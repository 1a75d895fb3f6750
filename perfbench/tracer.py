"""Per-layer tracer for the bell-lab CLI, installed from outside the package.

``Tracer.install`` wraps the public functions of each layer (``cli``,
``analysis``, ``quantum``, ``lhv``, ``_accel``, ``core``) and rebinds every
name that refers to them: module attributes in every loaded ``bell_lab``
module (so names imported with ``from .x import y`` and the package
re-exports are covered too) and class attributes for methods and
classmethods.  Nothing under ``src/`` changes.

Each wrapped call records a span ``[name, parent, start, end, attrs]`` in
memory; functions called too often for a span only bump a counter.  Run as a
script, this module executes one CLI invocation under the tracer and writes
the spans as JSON when it ends:

    python3 perfbench/tracer.py SPANS.json -- lhv --d 16

``layer_metrics`` turns the span files of one workload pass into the
per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

PACKAGE = "bell_lab"
SUBCOMMANDS = ("lhv", "scan", "noise", "optimize", "check", "quantum")


def _fill_attrs(tracer, bound, result):
    d, lo, hi = bound["d"], bound["a1_lo"], bound["a1_hi"]
    return {"strategies": int(hi - lo) * int(d) ** 3}


def _summary_attrs(tracer, bound, result):
    attrs = {"argmax_rows": len(result.argmax)}
    if "n_samples" in bound:
        attrs["samples"] = int(bound["n_samples"])
    return attrs


def _born_attrs(tracer, bound, result):
    from bell_lab.quantum import CANONICAL_PHASES

    key = int(bound["d"]), (bound["settings"] or CANONICAL_PHASES).as_tuple()
    repeat = key in tracer.born_seen
    tracer.born_seen.add(key)
    return {"repeat": int(repeat)}


def _optimize_attrs(tracer, bound, result):
    return {"evaluations": int(result.evaluations)}


def _correlation_name(bound):
    return "core.correlation_exact" if bound["t"].is_exact else "core.correlation_float"


@dataclass(frozen=True)
class Target:
    module: str  # submodule of bell_lab
    attr: str  # "function" or "Class.method"
    span: bool = True  # False: count calls only
    attrs: Callable | None = None  # (tracer, bound arguments, result) -> dict
    rename: Callable | None = None  # bound arguments -> span name

    @property
    def name(self) -> str:
        layer = self.module.lstrip("_")
        return f"{layer}.{self.attr.rsplit('.', 1)[-1]}"


TARGETS = (
    Target("_accel", "fill_strategy_arrays", attrs=_fill_attrs),
    Target("lhv", "enumerate_strategies", attrs=_summary_attrs),
    Target("lhv", "sample_strategies", attrs=_summary_attrs),
    Target("lhv", "strategy_to_table"),
    Target("lhv", "strategy_bell_value", span=False),
    Target("quantum", "born_table", attrs=_born_attrs),
    Target("quantum", "measurement_basis"),
    Target("quantum", "closed_form_table"),
    Target("core", "JointProbabilityTable.from_fractions"),
    Target("core", "JointProbabilityTable.from_array"),
    Target("core", "JointProbabilityTable.to_json_dict"),
    Target("core", "correlation", rename=_correlation_name),
    Target("core", "bell_expression"),
    Target("core", "cglmp_expression"),
    Target("core", "difference_probability", span=False),
    Target("core", "load_table"),
    Target("analysis", "scan_dimensions"),
    Target("analysis", "cglmp_crosscheck"),
    Target("analysis", "noise_threshold_bisect"),
    Target("analysis", "noisy_table"),
    Target("analysis", "optimize_phases", attrs=_optimize_attrs),
    Target("cli", "run"),
)


class Tracer:
    """Wraps the TARGETS functions and records their spans and call counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        # (d, phases) of every table born_table built in this process
        self.born_seen: set = set()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, target: Target):
        name = target.name
        counts = self.counts
        if not target.span:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        signature = inspect.signature(fn)
        needs_args = target.attrs or target.rename
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if needs_args:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            record = [target.rename(bound) if target.rename else name,
                      stack[-1] if stack else -1, time.perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            if target.attrs:
                record[4] = target.attrs(self, bound, result)
            return result

        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target and rebind each name in bell_lab that refers to one."""
        importlib.import_module(PACKAGE)
        functions = {}  # id(original) -> (original, wrapper)
        for target in TARGETS:
            owner = importlib.import_module(f"{PACKAGE}.{target.module}")
            attr = target.attr
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._rebind(owner, attr, classmethod(self._wrap(raw.__func__, target)))
                else:
                    self._rebind(owner, attr, self._wrap(raw, target))
            else:
                raw = getattr(owner, attr)
                functions[id(raw)] = (raw, self._wrap(raw, target))
        for module in namespaces():
            for key, value in list(vars(module).items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(module, key, hit[1])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def namespaces() -> list:
    """Every loaded bell_lab module: the namespaces that can hold a wrapped name."""
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def layer_metrics(docs: list[dict], stdout_bytes: int, walls: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one workload pass.

    ``docs`` holds the span files of the pass's invocations, ``stdout_bytes``
    their total stdout size and ``walls`` the wall time per subcommand as the
    harness measured it.  Self time is a span's duration minus the durations
    of its direct child spans.
    """
    total, own, calls, attrs, counts = Counter(), Counter(), Counter(), Counter(), Counter()
    bisect_iterations = 0
    for doc in docs:
        spans = doc["spans"]
        counts.update(doc["counts"])
        child = [0.0] * len(spans)
        for name, parent, t0, t1, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for (name, parent, t0, t1, extra), inner in zip(spans, child):
            total[name] += t1 - t0
            own[name] += t1 - t0 - inner
            calls[name] += 1
            attrs.update(extra or {})
            if name == "analysis.noisy_table" and parent >= 0 \
                    and spans[parent][0] == "analysis.noise_threshold_bisect":
                bisect_iterations += 1
    born = calls["quantum.born_table"]
    metrics = {
        "accel.fill_s": total["accel.fill_strategy_arrays"],
        "accel.strategies": attrs["strategies"],
        # one int16 numerator and one int8 case code per strategy
        "accel.bytes_out": 3 * attrs["strategies"],
        "lhv.enumerate_self_s": own["lhv.enumerate_strategies"],
        "lhv.argmax_rows": attrs["argmax_rows"],
        "lhv.sample_s": total["lhv.sample_strategies"],
        "lhv.samples": attrs["samples"],
        "lhv.strategy_to_table_calls": calls["lhv.strategy_to_table"],
        "lhv.strategy_to_table_s": total["lhv.strategy_to_table"],
        "lhv.strategy_bell_value_calls": counts["lhv.strategy_bell_value"],
        "quantum.born_table_calls": born,
        "quantum.born_table_self_s": own["quantum.born_table"],
        "quantum.measurement_basis_s": total["quantum.measurement_basis"],
        "quantum.born_table_repeat_frac": attrs["repeat"] / born if born else 0.0,
        "quantum.closed_form_table_s": total["quantum.closed_form_table"],
        "core.from_fractions_calls": calls["core.from_fractions"],
        "core.from_fractions_s": total["core.from_fractions"],
        "core.correlation_exact_calls": calls["core.correlation_exact"],
        "core.correlation_exact_s": total["core.correlation_exact"],
        "core.correlation_float_calls": calls["core.correlation_float"],
        "core.bell_expression_s": total["core.bell_expression"],
        "core.from_array_s": total["core.from_array"],
        "core.cglmp_expression_s": total["core.cglmp_expression"],
        "core.difference_probability_calls": counts["core.difference_probability"],
        "core.to_json_dict_s": total["core.to_json_dict"],
        "core.load_table_s": total["core.load_table"],
        "analysis.scan_dimensions_self_s": own["analysis.scan_dimensions"],
        "analysis.cglmp_crosscheck_s": total["analysis.cglmp_crosscheck"],
        "analysis.bisect_iterations": bisect_iterations,
        "analysis.optimize_evaluations": attrs["evaluations"],
        "cli.self_s": own["cli.run"],
        "cli.stdout_bytes": stdout_bytes,
    }
    for sub in SUBCOMMANDS:
        metrics[f"cli.{sub}.wall_s"] = walls.get(sub, 0.0)
    return metrics


def unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if "bytes" in name:
        return "B"
    return "count"


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: tracer.py SPANS.json -- CLI-ARGS...\n")
        return 2
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    try:
        return cli.run(argv[2:])
    finally:
        sys.stdout.flush()
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
