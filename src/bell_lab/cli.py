"""Command line interface.

Subcommands: quantum, lhv, scan, noise, optimize, cglmp, check.  ``lhv``
counts all d**4 local strategies exactly (one algorithm, O(d**2) in memory and
O(d**4) in time, up to d = 64) or, with --samples and --seed, summarises a
seeded sample.  Every report is laid out here; the other modules return data.
Each ``cmd_*`` returns ``(payload, lines, status)``: the JSON body without
``schema_version``, the text or CSV lines, and the exit status.  ``run`` alone
writes the report: ``payload`` under ``SCHEMA_VERSION`` when ``args.format``
is "json" (always for ``quantum``), otherwise ``lines`` (always for ``check``).
Reports are deterministic for a fixed argument vector: floats are printed
with 10 significant digits, exact rationals as "p/q", and the scan CSV header
carries ``SCHEMA_VERSION`` too.  Exit codes: 0 success, 1 failed checks, 2
usage or input errors, including a request that runs out of memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import _accel, analysis, core, lhv, quantum
from .errors import BellLabError

SCHEMA_VERSION = 1
# one column per analysis.ScanRow field, in field order
SCAN_COLUMNS = ("d", "Q_d", "I_d_QM", "p_threshold", "cglmp_value", "lhv_max")
# floats per block of rows that _fmt.join_rows formats at once
_FLOAT_BLOCK = 1 << 14
# stands in for a float matrix in the text of json.dumps; argv cannot hold NUL
_MATRIX = "\0matrix\0"


def fmt10(x) -> str:
    """Report format for floats: 10 significant digits."""
    return f"{float(x):.10g}"


def round10(x) -> float:
    return float(fmt10(x))


def _array_list(o):
    # the default of json.dumps: arrays as nested lists, anything else json's own TypeError
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _json_pieces(obj):
    """Yield the text of ``json.dumps(obj, indent=2)`` in pieces.

    A numpy array is written as its nested lists.  ``json.dumps`` writes the
    report with the string ``_MATRIX`` in place of each 2-D float64 array of
    finite values, such as a setting pair of ``quantum``.  The array's text
    then fills that place, ``_FLOAT_BLOCK`` floats at a time, from
    ``_fmt.join_rows``: the bytes of ``float.__repr__``, which json prints
    for every float (``_fmt`` says how).  A report that holds ``_MATRIX`` as
    a string of its own is written by ``json.dumps`` alone.
    """
    matrices = []

    def default(o):
        float_matrix = isinstance(o, np.ndarray) and o.ndim == 2 and o.size and o.dtype == np.float64
        if float_matrix and np.isfinite(o).all():
            matrices.append(o)
            return _MATRIX
        return _array_list(o)

    gaps = json.dumps(obj, indent=2, default=default).split(json.dumps(_MATRIX))
    if len(gaps) != len(matrices) + 1:
        yield json.dumps(obj, indent=2, default=_array_list)
        return
    yield gaps[0]
    for a, before, gap in zip(matrices, gaps, gaps[1:]):
        line = before[before.rfind("\n") + 1 :]
        yield from _float_matrix_pieces(a, " " * (len(line) - len(line.lstrip(" "))))
        yield gap


def _float_matrix_pieces(a: np.ndarray, indent: str):
    # imported on first use: only quantum's tables need it, so start-up and
    # the other commands do not load it
    from . import _fmt

    inner = indent + "  "
    leaf = inner + "  "
    row_sep = "\n" + inner + "],\n" + inner + "[\n" + leaf
    rows = max(1, _FLOAT_BLOCK // a.shape[1])
    yield "[\n" + inner + "[\n" + leaf
    for start in range(0, len(a), rows):
        if start:
            yield row_sep
        yield _fmt.join_rows(a[start : start + rows], ",\n" + leaf, row_sep)
    yield "\n" + inner + "]\n" + indent + "]"


def _emit_json(obj) -> None:
    """Write ``json.dumps(obj, indent=2)`` and a newline to stdout, piece by piece.

    The pure-Python encoder that ``indent`` selects would build the whole text
    from about two chunks per float, then copy it; here it writes only the
    text around the float matrices, whose floats come in blocks of rows.
    """
    write = sys.stdout.write
    for piece in _json_pieces(obj):
        write(piece)
    write("\n")


def _parse_phases(text: str) -> quantum.MeasurementSettings:
    parts = text.split(",")
    try:
        return quantum.MeasurementSettings.from_iterable(float(p) for p in parts)
    except ValueError as exc:
        raise BellLabError(f"--phases expects 'a1,a2,b1,b2' as numbers: {exc}")


def _correlations_payload(table: core.JointProbabilityTable) -> dict:
    return {
        key: float(core.correlation(table, i, j))
        for (i, j), key in zip(core.SETTING_PAIRS, core.PAIR_KEYS)
    }


def cmd_quantum(args) -> tuple[dict, list, int]:
    if args.input_file is not None:
        if args.d is not None or args.phases is not None:
            raise BellLabError("--input-file cannot be combined with --d or --phases")
        table = core.load_table(args.input_file)
        report = {
            "d": table.d,
            "source": args.input_file,
            "summary": {
                "bell_value": float(core.bell_expression(table)),
                "correlations": _correlations_payload(table),
            },
        }
        return report, [], 0
    if args.d is None:
        raise BellLabError("quantum needs --d or --input-file")
    d = core.check_dimension(args.d)
    settings = _parse_phases(args.phases) if args.phases else quantum.CANONICAL_PHASES
    table = quantum.born_table(d, settings)
    # the closed form must agree; it also guards against singular phase choices
    agreement = float(np.abs(table.p - quantum.closed_form_table(d, settings)).max())
    report = {
        "d": d,
        "phases": [float(x) for x in settings.as_tuple()],
        # table entries keep full precision so a re-read reproduces the Bell value
        "tables": {key: table.subtable(i, j) for (i, j), key in zip(core.SETTING_PAIRS, core.PAIR_KEYS)},
        "summary": {
            "d": d,
            "Q_d": round10(quantum.canonical_correlation(d)),
            "I_d_QM": round10(quantum.quantum_bell_value(d)),
            "bell_value": float(core.bell_expression(table)),
            "correlations": _correlations_payload(table),
            "closed_form_agreement": round10(agreement),
        },
    }
    return report, [], 0


def _lhv_summary(args) -> lhv.EnumerationSummary:
    d = core.check_dimension(args.d)
    if args.samples is not None and args.seed is None:
        raise BellLabError("--samples requires --seed for a reproducible draw")
    if args.seed is not None and args.samples is None:
        raise BellLabError("--seed applies only with --samples")
    mapping = getattr(core.OutcomeMapping, f"{args.mapping}_mapping")(d)
    if args.samples is None:
        return lhv.enumerate_strategies(d, mapping)
    return lhv.sample_strategies(d, args.samples, args.seed, mapping)


def cmd_lhv(args) -> tuple[dict, list, int]:
    summary = _lhv_summary(args)
    payload = {
        "d": summary.d,
        "mapping": summary.mapping,
        "method": summary.method,
        "n_strategies": summary.n_strategies,
        "max": str(summary.max_value),
        "histogram": {str(v): c for v, c in summary.histogram.items()},
        "argmax_count": summary.argmax_count,
        "case_counts": dict(summary.case_counts),
    }
    lines = [
        f"d = {summary.d}  mapping = {summary.mapping}  method = {summary.method}"
        f"  strategies = {summary.n_strategies}",
        f"max = {summary.max_value} (exact)",
        "histogram: " + "  ".join(f"{v} x{c}" for v, c in summary.histogram.items()),
        "cases: " + "  ".join(f"{k}={v}" for k, v in summary.case_counts.items()),
        f"argmax count = {summary.argmax_count}",
    ]
    if summary.d == 2:
        payload["cases_degenerate"] = True
        lines.append("note: case labels are degenerate for d = 2")
    if summary.seed is not None:
        payload["seed"] = summary.seed
        lines.append(f"seed = {summary.seed}")
    return payload, lines, 0


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return fmt10(value) if isinstance(value, float) else str(value)


def _json_cell(value):
    if isinstance(value, float):
        return round10(value)
    return str(value) if isinstance(value, Fraction) else value


def cmd_scan(args) -> tuple[dict, list, int]:
    result = analysis.scan_dimensions(core.check_dimension(args.dmax))
    rows = [dataclasses.astuple(r) for r in result.rows]
    payload = {
        "rows": [dict(zip(SCAN_COLUMNS, map(_json_cell, row))) for row in rows],
        "bell_value_increasing": result.bell_increasing,
        "threshold_decreasing": result.threshold_decreasing,
    }
    lines = [f"# schema_version={SCHEMA_VERSION}", ",".join(SCAN_COLUMNS)]
    lines += [",".join(map(_csv_cell, row)) for row in rows]
    return payload, lines, 0


def cmd_noise(args) -> tuple[dict, list, int]:
    d = core.check_dimension(args.d)
    # refuses a d too large for one table before the closed form allocates;
    # uniform noise has Bell value 0: each pair of bell_weights sums to 0
    full = core._sum_class_bell(quantum.sum_distributions(d))
    closed = analysis.noise_threshold(d)
    bisected = analysis._bisect_threshold(full, 0.0, d)
    delta = abs(closed - bisected)
    value = quantum.quantum_bell_value(d)
    payload = {
        "d": d,
        "I_d_QM": round10(value),
        "p_threshold": round10(closed),
        "p_threshold_bisect": round10(bisected),
        "delta": float(f"{delta:.3g}"),
    }
    lines = [
        f"d = {d}",
        f"I_d_QM = {fmt10(value)}",
        f"p_threshold = {fmt10(closed)}",
        f"p_threshold_bisect = {fmt10(bisected)}  (delta {delta:.3g})",
    ]
    return payload, lines, 0


def cmd_optimize(args) -> tuple[dict, list, int]:
    d = core.check_dimension(args.d)
    if args.halvings < 0:
        raise BellLabError(f"--halvings must be non-negative, got {args.halvings}")
    if not (math.isfinite(args.step) and args.step > 0):
        raise BellLabError(f"--step must be a positive finite number, got {args.step}")
    if args.seed is not None:
        start = analysis.random_settings(core.seeded_rng(args.seed))
    else:
        start = quantum.CANONICAL_PHASES
    result = analysis.optimize_phases(d, start, step=args.step, halvings=args.halvings)
    payload = {
        "d": d,
        "seed": args.seed,
        "start_phases": [round10(x) for x in result.start.as_tuple()],
        "start_value": round10(result.start_value),
        "best_phases": [round10(x) for x in result.settings.as_tuple()],
        "best_value": round10(result.value),
        "evaluations": result.evaluations,
    }
    lines = [
        f"d = {d}  seed = {args.seed}",
        f"start phases = {tuple(payload['start_phases'])}  value = {payload['start_value']}",
        f"best phases  = {tuple(payload['best_phases'])}  value = {payload['best_value']}",
        f"evaluations = {result.evaluations}",
    ]
    return payload, lines, 0


def cmd_cglmp(args) -> tuple[dict, list, int]:
    d = core.check_dimension(args.d)
    result = analysis.cglmp_crosscheck(quantum.born_table(d))
    payload = {
        "d": d,
        "kernel_value": round10(result["kernel_value"]),
        "cglmp_value": round10(result["cglmp_value"]),
        "delta": float(f"{result['delta']:.3g}"),
    }
    lines = [
        f"d = {d}",
        f"kernel_value = {fmt10(result['kernel_value'])}",
        f"cglmp_value = {fmt10(result['cglmp_value'])}",
        f"delta = {result['delta']:.3g}",
    ]
    return payload, lines, 0


def _lhv_cross_identity(rows: np.ndarray, d: int) -> tuple[bool, bool]:
    """Two checks on (n, 4) strategy rows (a1, a2, b1, b2): (values agree, cases admit them).

    The first compares each strategy's Bell numerator from
    ``_accel.strategy_values`` under the sum mapping, doubled, with
    ``bell_weights(d)`` summed over its four point-mass cells: the integer
    dot that ``bell_expression`` takes on its ``strategy_to_table``.  The
    second checks each value against the numerators (d - 1) * v of the
    values v that its case code admits (``lhv.case_value_set``).
    """
    a1, a2, b1, b2 = rows.T
    num, case = _accel.strategy_values(core.OutcomeMapping.sum_mapping(d), a1, a2, b1, b2)
    w = core.bell_weights(d)
    table = w[0, 0, a1, b1] + w[0, 1, a1, b2] + w[1, 0, a2, b1] + w[1, 1, a2, b2]
    # admitted[c] holds the doubled numerators (d - 1) * v that case code c
    # admits: two values, or one value twice
    admitted = np.array(
        [
            (sorted(int(v * (d - 1)) for v in lhv.case_value_set(label, d)) * 2)[:2]
            for label in lhv.CASE_LABELS
        ]
    )
    cross_ok = (2 * num == table).all()
    case_ok = (admitted[case] == 2 * num[:, None]).any(axis=1).all()
    return bool(cross_ok), bool(case_ok)


def _check_battery(d: int) -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(12345 + d)
    results = []

    def record(name: str, ok: bool, detail: str) -> None:
        results.append((name, bool(ok), detail))

    # the weight set (d - 1) - 2k is symmetric under negation, so the pair
    # signs of bell_weights change neither |pair sum| nor a sorted row
    kern = core.bell_weights(d)
    zero = max(abs(int(kern[i - 1, j - 1].sum())) for i, j in core.SETTING_PAIRS)
    record("kernel-zero-sum", zero == 0, f"largest pair numerator sum {zero}")

    expect = np.sort(d - 1 - 2 * np.arange(d))
    rows_ok = (np.sort(kern, axis=-1) == expect).all()
    record("kernel-row-multiset", rows_ok, "each row is a permutation of the weight set")

    table = quantum.born_table(d)
    worst = float(np.abs(table.p - quantum.closed_form_table(d)).max())
    for _ in range(3):
        settings = analysis.random_settings(rng)
        m = np.arange(d)
        grid = m[:, None] + m[None, :]
        singular = min(
            float(np.abs(np.sin(np.pi * (grid + a + b) / d)).min())
            for a, b in (settings.phases(i, j) for i, j in core.SETTING_PAIRS)
        )
        if singular < 1e-3:  # every draw from d = 1571 on, as sin(pi / 2d) < 1e-3
            continue
        t2 = quantum.born_table(d, settings)
        worst = max(worst, float(np.abs(t2.p - quantum.closed_form_table(d, settings)).max()))
    record("born-vs-closed-form", worst < 1e-12, f"max entry deviation {worst:.3e}")

    basis = quantum.measurement_basis(d, 0.25)
    gram_dev = float(np.abs(basis @ basis.conj().T - np.eye(d)).max())
    record("basis-orthonormality", gram_dev < 1e-12, f"gram deviation {gram_dev:.3e}")

    shift_dev = quantum.shift_symmetry_deviation(table)
    record("shift-symmetry", shift_dev < 1e-12, f"max deviation {shift_dev:.3e}")

    mapping = core.OutcomeMapping.sum_mapping(d)
    sum_dist = core.mapped_spin_distribution(table, 1, 1, mapping)
    direct = d * table.p[0, 0, :, 0]
    qdist = quantum.spin_projection_distribution(d)
    marg_dev = float(max(np.abs(sum_dist - direct).max(), np.abs(sum_dist - qdist).max()))
    record("sum-distribution-identity", marg_dev < 1e-12, f"max deviation {marg_dev:.3e}")

    q = quantum.canonical_correlation(d)
    corr = _correlations_payload(table)
    sign_dev = max(abs(corr[key] - s * q) for key, s in zip(core.PAIR_KEYS, core.PAIR_SIGNS))
    record("correlation-sign-pattern", sign_dev < 1e-12, f"max deviation {sign_dev:.3e}")

    bell = core.bell_expression(table)
    record("quantum-violation", bell > 2.8, f"bell value {bell:.10g}")

    assembled = core.bell_from_spin_correlations(table, mapping)
    rational = core.random_rational_table(d, rng)
    exact_match = core.bell_from_spin_correlations(rational, mapping) == core.bell_expression(rational)
    assembly_dev = abs(assembled - bell)
    record(
        "spin-assembly-consistency",
        assembly_dev < 1e-12 and exact_match,
        f"float deviation {assembly_dev:.3e}, exact match {exact_match}",
    )

    cglmp_delta = analysis.cglmp_crosscheck(table)["delta"]
    record("cglmp-consistency", cglmp_delta < 1e-10, f"delta {cglmp_delta:.3e}")

    thr = analysis.noise_threshold(d)
    identity_dev = abs(thr * bell - 2.0)
    bis_dev = abs(analysis.noise_threshold_bisect(table) - thr)
    record(
        "noise-threshold",
        identity_dev < 1e-10 and bis_dev < 1e-9,
        f"identity deviation {identity_dev:.3e}, bisection deviation {bis_dev:.3e}",
    )

    worst_gain = -np.inf
    for coord in range(4):
        for delta in (1e-4, -1e-4):
            phases = list(quantum.CANONICAL_PHASES.as_tuple())
            phases[coord] += delta
            perturbed = core.bell_expression(
                quantum.born_table(d, quantum.MeasurementSettings(*phases))
            )
            worst_gain = max(worst_gain, perturbed - bell)
    record("phase-stationarity", worst_gain <= 1e-8, f"largest gain {worst_gain:.3e}")

    if d <= 16:
        summary = lhv.enumerate_strategies(d)
        values_ok = set(summary.histogram) <= lhv.lhv_value_set(d)
        record(
            "lhv-bound",
            summary.max_value == Fraction(2) and values_ok,
            f"max {summary.max_value}, {len(summary.histogram)} distinct values",
        )
        rows = (
            np.indices((d,) * 4).reshape(4, -1).T
            if d <= 6
            else rng.integers(0, d, size=(200, 4))
        )
        cross_ok, case_ok = _lhv_cross_identity(rows, d)
        # the text predates the array pass and stays for the byte promise: the
        # "closed form" is _accel.strategy_values and the "table path" is
        # bell_weights(d) gathered at each strategy's point-mass cells
        record(
            "lhv-cross-identity",
            cross_ok and case_ok,
            f"{len(rows)} strategies, closed form vs table path",
        )

    if d == 2:
        chsh_dev = 0.0
        for _ in range(20):
            t2 = core.random_table(2, rng)
            direct = 0.0
            for (i, j), s in zip(core.SETTING_PAIRS, core.PAIR_SIGNS):
                e = sum(
                    (-1) ** (m + n) * t2.p[i - 1, j - 1, m, n] for m in range(2) for n in range(2)
                )
                direct += s * e
            chsh_dev = max(chsh_dev, abs(core.bell_expression(t2) - direct))
        record("two-outcome-reduction", chsh_dev < 1e-12, f"max deviation {chsh_dev:.3e}")

    if d == 3:
        tri_dev = 0.0
        for _ in range(20):
            t3 = core.random_table(3, rng)
            for i, j in core.SETTING_PAIRS:
                _, recombined = core.qutrit_complex_correlation(t3, i, j)
                tri_dev = max(tri_dev, abs(recombined - core.correlation(t3, i, j)))
        record("three-outcome-complex-form", tri_dev < 1e-12, f"max deviation {tri_dev:.3e}")

    return results


def cmd_check(args) -> tuple[dict, list, int]:
    d = core.check_dimension(args.d)
    # its first rows build the d x d kernel: refuse a d whose table exceeds the largest array first
    quantum.check_table_size(d)
    results = _check_battery(d)
    lines = [f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in results]
    passed = sum(ok for _, ok, _ in results)
    lines.append(f"{passed}/{len(results)} checks passed for d = {d}")
    return {}, lines, 0 if passed == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bell-lab",
        description=(
            "Bell correlation toolkit for two d-outcome measurements per side: "
            "quantum tables, local-strategy scans, noise thresholds, and checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_d(p, required=True):
        p.add_argument("--d", type=int, required=required, help="outcome count per measurement (>= 2)")

    def add_format(p, choices, default):
        p.add_argument("--format", choices=choices, default=default)

    p = sub.add_parser("quantum", help="emit the entangled-state table and its Bell value")
    add_d(p, required=False)
    p.add_argument("--phases", help="comma-separated alpha1,alpha2,beta1,beta2")
    p.add_argument("--input-file", help="evaluate a table read from this JSON file instead")
    p.set_defaults(func=cmd_quantum, format="json")

    p = sub.add_parser("lhv", help="scan deterministic local strategies")
    add_d(p)
    p.add_argument("--mapping", choices=("sum", "difference"), default="sum")
    add_format(p, ("text", "json"), "text")
    p.add_argument("--samples", type=int, help="sample size for d beyond the exhaustive limit")
    p.add_argument("--seed", type=int, help="seed for --samples")
    p.set_defaults(func=cmd_lhv)

    p = sub.add_parser("scan", help="per-dimension summary table")
    p.add_argument("--dmax", type=int, required=True)
    add_format(p, ("csv", "json"), "csv")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("noise", help="visibility threshold against uniform noise")
    add_d(p)
    add_format(p, ("text", "json"), "text")
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("optimize", help="coordinate-descent phase search")
    add_d(p)
    p.add_argument("--seed", type=int, help="random start (canonical start if omitted)")
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--halvings", type=int, default=12)
    add_format(p, ("text", "json"), "text")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("cglmp", help="kernel vs probability-difference consistency")
    add_d(p)
    add_format(p, ("text", "json"), "text")
    p.set_defaults(func=cmd_cglmp)

    p = sub.add_parser("check", help="run the invariant battery for one dimension")
    add_d(p)
    p.set_defaults(func=cmd_check, format="text")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, lines, status = args.func(args)
        if args.format == "json":
            _emit_json({"schema_version": SCHEMA_VERSION, **payload})
        else:
            sys.stdout.write("\n".join(lines) + "\n")
        return status
    except BellLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        sys.stderr.write(f"error: out of memory{detail}\n")
        return 2


def main() -> None:
    status = run()
    gc.freeze()  # finalization's cycle collections then skip the heap that import built
    sys.exit(status)


if __name__ == "__main__":
    main()
