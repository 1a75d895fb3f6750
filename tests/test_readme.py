"""README's fenced ``python`` blocks run as written, and its claims about the API hold."""

import re
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


def test_every_exported_name_is_used():
    # README: each name in __all__ "is used by the CLI, the check battery or
    # the benchmark"; a use is any line of the package (bar its re-exports)
    # or of perfbench/ other than the name's own def or class line
    files = [f for f in (ROOT / "src" / "bell_lab").glob("*.py") if f.name != "__init__.py"]
    files += (ROOT / "perfbench").glob("*.py")
    lines = [line for f in files for line in f.read_text(encoding="utf-8").splitlines()]
    unused = []
    for name in bell_lab.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert unused == []
