"""README's fenced ``python`` blocks run as written, and its claims about the API hold."""

import re
import tokenize
from pathlib import Path

import bell_lab

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert blocks
    for block in blocks:
        # padded so that a traceback names the README line
        source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(source, str(README), "exec"), {})


def code_names(path: Path) -> set:
    """The names a module's code uses: its NAME tokens, bar the name each ``def`` or ``class`` defines."""
    names, prev = set(), None
    with path.open("rb") as f:
        for token in tokenize.tokenize(f.readline):
            if token.type == tokenize.NAME and prev not in ("def", "class"):
                names.add(token.string)
            prev = token.string
    return names


def test_every_exported_name_is_used():
    # README: each name in __all__ "is used by the CLI, the check battery or
    # the benchmark, bar classify_strategy", the tests' per-strategy case
    # label.  In the package (bar its re-exports) a use is a name in
    # code, not in a docstring or comment; in perfbench/, whose tracer names
    # its targets as strings, it is any line other than the name's own def
    # or class line
    files = [f for f in (ROOT / "src" / "bell_lab").glob("*.py") if f.name != "__init__.py"]
    used = set().union(*map(code_names, files))
    lines = [line for f in (ROOT / "perfbench").glob("*.py") for line in f.read_text(encoding="utf-8").splitlines()]
    unused = []
    for name in bell_lab.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if name not in used and not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert unused == ["classify_strategy"]
