"""The library names and parameters that the benchmark in ``perfbench/`` relies on.

The benchmark's tracer wraps functions by name and reads some of their
arguments by name; its harness probes the environment in a child that
imports ``bell_lab._accel``.  These tests only read ``perfbench/``: they fail
when a change to ``bell_lab`` removes something the benchmark still uses.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

# arguments the tracer's span attributes read from the bound call
TRACED_PARAMETERS = {
    ("_accel", "fill_strategy_arrays"): ("d", "a1_lo", "a1_hi"),
    ("quantum", "born_table"): ("d", "settings"),
    ("core", "correlation"): ("t",),
    ("lhv", "sample_strategies"): ("n_samples",),
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is made
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _resolve(module: str, attr: str):
    obj = importlib.import_module(f"bell_lab.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: f"{t.module}.{t.attr}")
def test_tracer_target_resolves(target):
    assert callable(_resolve(target.module, target.attr))


@pytest.mark.parametrize("key", sorted(TRACED_PARAMETERS), ids=".".join)
def test_traced_parameters_exist(key):
    assert key in {(t.module, t.attr) for t in TARGETS}
    params = inspect.signature(_resolve(*key)).parameters
    for name in TRACED_PARAMETERS[key]:
        assert name in params, f"{'.'.join(key)} has no parameter {name!r}"


def _env_child_source() -> str:
    with open(os.path.join(PERFBENCH, "run.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "ENV_CHILD" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no ENV_CHILD")


def test_environment_probe_runs():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _env_child_source()],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
