"""Self-test of the benchmark's tracer and output gate.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_tracer.py

It runs one untraced and one traced pass of every workload at the default
seed (about a minute on two cores).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import bell_lab  # noqa: E402
from bell_lab import analysis, cli, core, lhv, quantum  # noqa: E402

# per-layer metrics that must be non-zero on the workload that does most of
# that layer's work, and those that must be zero where the layer is not used
NONZERO = {
    "lhv-enum": (
        "accel.fill_s", "accel.strategies", "accel.bytes_out", "lhv.enumerate_self_s",
        "lhv.argmax_rows", "lhv.sample_s", "lhv.samples", "cli.lhv.wall_s",
    ),
    "quantum-sweep": (
        "quantum.born_table_calls", "quantum.born_table_self_s", "quantum.measurement_basis_s",
        "quantum.born_table_repeat_frac", "core.correlation_float_calls", "core.bell_expression_s",
        "core.from_array_s", "core.cglmp_expression_s", "core.difference_probability_calls",
        "analysis.scan_dimensions_self_s", "analysis.cglmp_crosscheck_s",
        "analysis.bisect_iterations", "analysis.optimize_evaluations",
        "cli.scan.wall_s", "cli.noise.wall_s", "cli.optimize.wall_s",
    ),
    "exact-check": (
        "lhv.strategy_to_table_calls", "lhv.strategy_to_table_s", "lhv.strategy_bell_value_calls",
        "core.from_fractions_calls", "core.from_fractions_s", "core.correlation_exact_calls",
        "core.correlation_exact_s", "cli.check.wall_s",
    ),
    "table-io": (
        "quantum.closed_form_table_s", "core.to_json_dict_s", "core.load_table_s",
        "cli.self_s", "cli.stdout_bytes", "cli.quantum.wall_s",
    ),
}
ZERO = {
    "lhv-enum": ("quantum.born_table_calls",),
    "quantum-sweep": ("core.from_fractions_calls",),
}


def _originals():
    from bell_lab.core import JointProbabilityTable

    found = {}
    for target in tracer.TARGETS:
        owner = vars(sys.modules[f"bell_lab.{target.module}"])
        attr = target.attr
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = vars(owner[cls_name])
        raw = owner[attr]
        found[target.name] = raw.__func__ if isinstance(raw, classmethod) else raw
    assert JointProbabilityTable.from_fractions.__func__ is found["core.from_fractions"]
    return found


def test_install_rebinds_every_namespace():
    originals = _originals()
    ids = {id(fn) for fn in originals.values()}
    t = tracer.Tracer()
    t.install()
    try:
        for module in tracer.namespaces():
            for key, value in vars(module).items():
                assert id(value) not in ids, f"{module.__name__}.{key} is still unwrapped"
        # names imported with "from .x import y" and the package re-exports
        assert analysis.born_table.__wrapped__ is originals["quantum.born_table"]
        assert analysis.enumerate_strategies.__wrapped__ is originals["lhv.enumerate_strategies"]
        assert bell_lab.born_table is quantum.born_table is analysis.born_table
        assert bell_lab.strategy_to_table is lhv.strategy_to_table
        assert cli.run.__wrapped__ is originals["cli.run"]
        table_cls = core.JointProbabilityTable
        raw = vars(table_cls)["from_fractions"]
        assert isinstance(raw, classmethod)
        assert raw.__func__.__wrapped__ is originals["core.from_fractions"]
        assert vars(table_cls)["to_json_dict"].__wrapped__ is originals["core.to_json_dict"]

        analysis.noise_threshold_bisect(3, tol=1e-3)
        core.bell_expression(lhv.strategy_to_table((0, 1, 2, 0), 3))
        names = [span[0] for span in t.spans]
        for name in ("analysis.noise_threshold_bisect", "analysis.noisy_table",
                     "quantum.born_table", "core.from_array", "core.correlation_float",
                     "lhv.strategy_to_table", "core.from_fractions", "core.correlation_exact"):
            assert name in names
        bisect = names.index("analysis.noise_threshold_bisect")
        assert t.spans[bisect + 1][1] == bisect  # noisy_table is a child of the bisection
    finally:
        t.uninstall()
    assert _originals() == originals
    assert analysis.born_table is bell_lab.born_table is originals["quantum.born_table"]
    assert cli.run is originals["cli.run"]


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    layers = tracer.layer_metrics([], 0, {})
    assert {m["name"] for m in spec["per_layer"]} == set(layers) | {"trace_overhead_frac"}
    assert {m["name"] for m in spec["end_to_end"]} == set(bench.UNITS)
    for m in spec["per_layer"]:
        assert m["unit"] == tracer.unit(m["name"])
    for m in spec["end_to_end"]:
        assert m["unit"] == bench.UNITS[m["name"]]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    env, _ = bench.child_env()
    digests = workloads.load_digests()
    messages = []
    workload = workloads.WORKLOADS[name]
    plain = bench.run_pass(workload, workloads.DEFAULT_SEED, False, env, digests, messages.append)
    traced = bench.run_pass(workload, workloads.DEFAULT_SEED, True, env, digests, messages.append)
    assert plain["failed"] == traced["failed"] == 0, messages
    assert traced["stdout_sha256"] == plain["stdout_sha256"]
    layers = traced["layers"]
    for metric in NONZERO[name]:
        assert layers[metric] > 0, metric
    for metric in ZERO.get(name, ()):
        assert layers[metric] == 0, metric


def test_refuses_to_run_without_sources():
    # a directory holding only BENCHMARK.json and the benchmark's own files
    bare = os.path.join(ROOT, workloads.WORK_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
