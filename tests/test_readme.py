"""README's fenced ``python`` blocks and ``bell-lab`` lines run as written, and its claims about the API hold."""

import functools
import inspect
import re
import shlex
import tokenize
from pathlib import Path

import bell_lab
from bell_lab import cli

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


def test_cli_examples_exit_0(tmp_path, monkeypatch, capsys):
    # every `bell-lab ...` line of the sh blocks, in a fresh directory: the
    # `quantum --d 3` table is saved as the table.json that `--input-file` reads
    text = README.read_text(encoding="utf-8")
    lines = [
        line
        for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
        for line in block.splitlines()
        if line.startswith("bell-lab ")
    ]
    assert len(lines) == 12
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert cli.run(argv) == 0, line
        out = capsys.readouterr().out
        if argv == ["quantum", "--d", "3"]:
            Path("table.json").write_text(out, encoding="utf-8")


def code_names(path: Path) -> set:
    """The names a module's code uses: its NAME tokens, bar the name each ``def`` or ``class`` defines."""
    names, prev = set(), None
    with path.open("rb") as f:
        for token in tokenize.tokenize(f.readline):
            if token.type == tokenize.NAME and prev not in ("def", "class"):
                names.add(token.string)
            prev = token.string
    return names


def is_used():
    """The test of whether a name is used.

    In the package (bar its re-exports) a use is a name in code, not in a
    docstring or comment; in perfbench/, whose tracer names its targets as
    strings, it is any line other than the name's own def or class line.
    """
    files = [f for f in (ROOT / "src" / "bell_lab").glob("*.py") if f.name != "__init__.py"]
    used = set().union(*map(code_names, files))
    lines = [line for f in (ROOT / "perfbench").glob("*.py") for line in f.read_text(encoding="utf-8").splitlines()]

    def check(name: str) -> bool:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        return name in used or any(word.search(line) and not own.match(line) for line in lines)

    return check


def test_every_exported_name_is_used():
    # README: each name in __all__ "is used by the CLI, the check battery or the benchmark"
    used = is_used()
    assert [name for name in bell_lab.__all__ if not used(name)] == []


def test_every_public_method_of_an_exported_class_is_used():
    # the same rule for the public methods and properties of the exported
    # classes: one that only the tests call is dead API
    used = is_used()
    kinds = (classmethod, staticmethod, property, functools.cached_property)
    methods = [
        f"{cls.__name__}.{name}"
        for cls in (getattr(bell_lab, export) for export in bell_lab.__all__)
        if inspect.isclass(cls)
        for name, attr in vars(cls).items()
        if not name.startswith("_") and (inspect.isfunction(attr) or isinstance(attr, kinds))
    ]
    assert "OutcomeMapping.difference_mapping" in methods and "EnumerationSummary.argmax" in methods
    assert [method for method in methods if not used(method.split(".")[1])] == []
