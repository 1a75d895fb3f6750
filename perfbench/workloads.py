"""Workloads of the bell-lab CLI benchmark and the checks on their outputs.

A workload is a fixed list of CLI argument vectors run one after another.
Each invocation's output is checked in two ways:

* against the sha256 of its stdout recorded at the seed commit (stored in
  ``digests.json``, keyed by the argument vector), whenever the argument
  vector has a recorded digest: every unseeded vector, and the seeded ones
  at the default seed;
* against invariants that hold for every seed (sampled LHV values lie in the
  LHV value set, optimization never loses ground, a table re-read reproduces
  its Bell value).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 1

# relative to the checkout root; the read step echoes this path in "source",
# so it must not change between runs or the recorded digest would not match
WORK_DIR = ".perfbench_work"
TABLE_FILE = f"{WORK_DIR}/table.json"

_DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


@dataclass(frozen=True)
class Step:
    argv: tuple[str, ...]
    seeded: bool = False
    # file that receives stdout, relative to the checkout root; None means a
    # per-step scratch file
    stdout_file: str | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    template: tuple[tuple[str, ...], ...]
    table_file: bool = False

    def steps(self, seed: int) -> list[Step]:
        out = []
        for i, args in enumerate(self.template):
            seeded = "{seed}" in args
            argv = tuple(a.format(seed=seed) for a in args)
            stdout_file = TABLE_FILE if self.table_file and i == 0 else None
            out.append(Step(argv, seeded, stdout_file))
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lhv-enum",
            (
                ("lhv", "--d", "64"),
                ("lhv", "--d", "64", "--mapping", "difference", "--format", "json"),
                ("lhv", "--d", "2000", "--samples", "2000000", "--seed", "{seed}"),
            ),
        ),
        Workload(
            "quantum-sweep",
            (
                ("scan", "--dmax", "160"),
                ("noise", "--d", "192"),
                ("optimize", "--d", "64", "--seed", "{seed}"),
            ),
        ),
        Workload(
            "exact-check",
            (
                ("check", "--d", "6"),
                ("check", "--d", "16"),
            ),
        ),
        Workload(
            "table-io",
            (
                ("quantum", "--d", "384"),
                ("quantum", "--input-file", TABLE_FILE),
            ),
            table_file=True,
        ),
    )
}


def load_digests() -> dict[str, str]:
    with open(_DIGESTS_PATH) as fh:
        return json.load(fh)["stdout_sha256"]


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _check_sampled_lhv(step: Step, text: str) -> list[str]:
    from bell_lab.lhv import lhv_value_set

    d = int(step.argv[step.argv.index("--d") + 1])
    samples = int(step.argv[step.argv.index("--samples") + 1])
    allowed = lhv_value_set(d)
    lines = dict(line.split(" ", 1) for line in text.splitlines() if " " in line)
    problems = []
    m = re.fullmatch(r"= (\S+) \(exact\)", lines.get("max", ""))
    if not m or Fraction(m.group(1)) > 2:
        problems.append(f"max line breaks max <= 2: {lines.get('max')!r}")
    hist = re.findall(r"(\S+) x(\d+)", lines.get("histogram:", ""))
    outside = [v for v, _ in hist if Fraction(v) not in allowed]
    if not hist or outside:
        problems.append(f"histogram values outside the LHV value set: {outside or 'none parsed'}")
    if sum(int(c) for _, c in hist) != samples:
        problems.append(f"histogram counts do not add up to {samples}")
    return problems


def _check_optimize(step: Step, text: str) -> list[str]:
    from bell_lab.quantum import quantum_bell_value

    d = int(step.argv[step.argv.index("--d") + 1])
    values = re.findall(r"phases\s+= \(.*\)\s+value = (\S+)", text)
    if len(values) != 2:
        return [f"could not parse start and best values from {text!r}"]
    start, best = (float(v) for v in values)
    problems = []
    if best < start:
        problems.append(f"best value {best} below start value {start}")
    if best > quantum_bell_value(d) + 1e-9:
        problems.append(f"best value {best} above the quantum value {quantum_bell_value(d)}")
    return problems


def _bell_value(path: str) -> float:
    with open(path) as fh:
        return float(json.load(fh)["summary"]["bell_value"])


def check_pass(workload: Workload, steps: list[Step], results: list[tuple[int, str, str]],
               digests: dict[str, str], seed: int) -> list[list[str]]:
    """Problems found in each step's output; an empty list means the step passed.

    ``results[i]`` is (exit code, stdout file, stdout sha256) of ``steps[i]``.
    """
    problems: list[list[str]] = []
    for step, (code, path, sha) in zip(steps, results):
        found = []
        if code != 0:
            found.append(f"exit code {code}")
        expected = digests.get(step.key)
        if expected is None and not (step.seeded and seed != DEFAULT_SEED):
            raise KeyError(f"no recorded stdout digest for {step.key!r}")
        if expected is not None and sha != expected:
            found.append("stdout differs from the recorded digest")
        invariant = _check_sampled_lhv if "--samples" in step.argv else (
            _check_optimize if step.subcommand == "optimize" else None)
        if invariant is not None:
            with open(path) as fh:
                text = fh.read()
            try:
                found += invariant(step, text)
            except (ValueError, ZeroDivisionError) as exc:
                found.append(f"output not parseable: {exc}")
        problems.append(found)
    if workload.table_file:
        try:
            written, read = (_bell_value(path) for _, path, _ in results)
        except (ValueError, KeyError, TypeError) as exc:
            problems[1].append(f"table reports not readable: {exc}")
        else:
            if abs(written - read) > 1e-14:
                problems[1].append(f"re-read bell value {read} differs from written {written}")
    return problems
