"""Benchmark of the bell-lab CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lhv-enum --seed 1 --seconds 30 --trace 0

Each workload is a list of CLI argument vectors (see ``workloads.py``).  One
pass runs them one after another, each in a fresh child process
(``bell_lab.cli.run`` from ``src/``); passes repeat closed-loop from this
single process, one invocation at a time, until ``--seconds`` is used up.
Every invocation's exit code and stdout are checked; a failed check counts
in ``failed`` and does not stop the run.

With ``--trace 0`` the end-to-end metrics are the medians over passes of
``wall_s`` (spawn to exit, summed over the pass), ``cpu_s`` (children's user
plus system time) and ``peak_rss_mb`` (largest ``ru_maxrss`` of one
invocation, read from ``os.wait4``), and ``setup_s``: the median wall time
of fresh interpreters that import ``bell_lab.cli`` and build its parser, one
after each invocation.  With ``--trace 1`` untraced and traced passes alternate; the traced children run
under ``tracer.py`` and the per-layer metrics are medians over traced passes.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record, with the
environment, goes to ``.perfbench_work/result-<workload>-<seed>-<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
# the checkout root, which holds this directory and src/
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# removed from the children's environment so that every run measures the
# default enumeration path
STRIPPED_ENV = ("BELL_LAB_THREADS", "BELL_LAB_NO_NUMBA")
# setup probes after each invocation; interleaved with the workload over the
# whole run, so that one slow spell of a shared machine does not set their median
SETUP_PROBES = 1
MIN_PASSES = 3

CLI_CHILD = "from bell_lab.cli import main; main()"
SETUP_CHILD = "from bell_lab.cli import build_parser; build_parser()"
ENV_CHILD = """
import json, numpy, bell_lab, bell_lab._accel as a
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
print(json.dumps({"numpy": numpy.__version__, "blas": blas, "bell_lab_file": bell_lab.__file__,
                  "HAS_NUMBA": a.HAS_NUMBA, "USING_NUMBA": a.USING_NUMBA}))
"""

UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def child_env() -> tuple[dict[str, str], list[str]]:
    env = dict(os.environ)
    removed = [name for name in STRIPPED_ENV if env.pop(name, None) is not None]
    env["PYTHONPATH"] = SRC
    return env, removed


def spawn(cmd: list[str], env: dict[str, str], stdout_path: str, stderr_path: str):
    """Run one child to its exit: (exit code, wall s, user+sys CPU s, peak RSS MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux and belongs to this child alone
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def run_pass(workload, seed, traced, env, digests, log, setup=None):
    """Run each step of the workload once and check its outputs; return the pass record.

    Unless ``setup`` is None, set-up probes run after each step and their
    times are appended to it.
    """
    steps = workload.steps(seed)
    record = {"traced": traced, "wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0,
              "stdout_bytes": 0, "walls": {}, "stdout_sha256": []}
    results, errs, span_docs = [], [], []
    for i, step in enumerate(steps):
        out = step.stdout_file or f"{workloads.WORK_DIR}/step{i}.out"
        err = f"{workloads.WORK_DIR}/step{i}.err"
        spans = f"{workloads.WORK_DIR}/step{i}.spans.json"
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), spans, "--", *step.argv]
        else:
            cmd = [sys.executable, "-c", CLI_CHILD, *step.argv]
        code, wall, cpu, rss = spawn(cmd, env, out, err)
        record["wall_s"] += wall
        record["cpu_s"] += cpu
        record["peak_rss_mb"] = max(record["peak_rss_mb"], rss)
        record["stdout_bytes"] += os.path.getsize(out)
        record["walls"][step.subcommand] = record["walls"].get(step.subcommand, 0.0) + wall
        sha = workloads.sha256_file(out)
        record["stdout_sha256"].append(sha)
        if traced and code == 0:
            with open(spans) as fh:
                span_docs.append(json.load(fh))
        results.append((code, out, sha))
        errs.append(err)
        if setup is not None:
            setup += measure_setup(env)
    problems = workloads.check_pass(workload, steps, results, digests, seed)
    for step, found, err in zip(steps, problems, errs):
        if found:
            with open(err) as fh:
                log(f"FAIL {step.key}: {'; '.join(found)}\n{fh.read()[-2000:]}")
    record["attempted"] = len(steps)
    record["failed"] = sum(1 for found in problems if found)
    if traced:
        record["layers"] = tracer.layer_metrics(span_docs, record["stdout_bytes"], record["walls"])
    return record


def measure_setup(env) -> list[float]:
    null = os.devnull
    return [spawn([sys.executable, "-c", SETUP_CHILD], env, null, null)[1]
            for _ in range(SETUP_PROBES)]


def environment(env, removed) -> dict:
    probe = subprocess.run([sys.executable, "-c", ENV_CHILD], env=env, cwd=ROOT,
                           capture_output=True, text=True, check=True)
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                             capture_output=True, text=True)
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, env=git_env, capture_output=True, text=True)
        git = {"sha": sha.stdout.strip() or None,
               "dirty": bool(dirty.stdout.strip()) if sha.returncode == 0 else None}
    except OSError:
        git = {"sha": None, "dirty": None}
    return {
        "git": git,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **json.loads(probe.stdout),
        "child_env_removed": removed,
        "child_env_stripped": list(STRIPPED_ENV),
        "blas_threads_env": {k: os.environ[k] for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                             if k in os.environ},
    }


def run_workload(workload, args, env, env_record, digests):
    """Measure one workload; return its metrics, their units and the run record."""
    def log(text: str) -> None:
        sys.stderr.write(text.rstrip("\n") + "\n")

    setup: list[float] = []
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(workload, args.seed, traced, env, digests, log,
                               None if args.trace else setup))
        elapsed = time.perf_counter() - start
        kinds = {p["traced"] for p in passes}
        enough = len(passes) >= MIN_PASSES and kinds == ({False, True} if args.trace else {False})
        if enough and elapsed + passes[-1]["wall_s"] > args.seconds:
            break

    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {name: statistics.median(p["layers"][name] for p in traced)
                   for name in traced[0]["layers"]}
        plain_wall = statistics.median(p["wall_s"] for p in plain)
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        metrics["trace_overhead_frac"] = (traced_wall - plain_wall) / plain_wall
        units = {name: tracer.unit(name) for name in metrics}
    else:
        metrics = {name: statistics.median(p[name] for p in plain)
                   for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setup)
        units = UNITS
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env_record, "setup_s": setup,
              "passes": passes, "attempted": sum(p["attempted"] for p in passes),
              "failed": sum(p["failed"] for p in passes), "metrics": metrics}
    path = f"{workloads.WORK_DIR}/result-{workload.name}-{args.seed}-{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {workload.name}  seed {args.seed}  passes {len(passes)}  "
          f"invocations {record['attempted']}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    if not args.trace:
        # not a JSON metric: the end-to-end metrics are gated by their ratio to a
        # parent's median, so none of them may be 0, and this one is 0 when all is
        # well; the JSON carries it as failed / attempted.  Per-layer metrics carry
        # no bound, so a layer a workload does not use reports 0 there.
        print(f"  {'failed_frac':40s} {record['failed'] / record['attempted']:>16.6g} ratio")
    return metrics, units, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bell_lab", "cli.py")):
        sys.stderr.write(f"error: no bell_lab sources under {SRC}\n")
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    digests = workloads.load_digests()
    env, removed = child_env()
    env_record = environment(env, removed)
    print("environment " + json.dumps(env_record, sort_keys=True))

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, units, record = run_workload(workloads.WORKLOADS[name], args, env, env_record,
                                              digests)
        result["attempted"] += record["attempted"]
        result["failed"] += record["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        result["metrics"].update({prefix + metric: {"value": value, "unit": units[metric]}
                                  for metric, value in metrics.items()})
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
