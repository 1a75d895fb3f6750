"""Noise robustness and CGLMP cross-check of a given table, phase optimization, dimension scans."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

import numpy as np

from .core import (
    JointProbabilityTable,
    OutcomeMapping,
    _cglmp_value,
    _outcome_classes,
    _sum_class_bell,
    bell_expression,
    bell_from_spin_correlations,
    check_dimension,
)
from .errors import DimensionError
from .lhv import enumerate_strategies
from .quantum import (
    CANONICAL_PHASES,
    MeasurementSettings,
    canonical_correlation,
    check_table_size,
    quantum_bell_value,
    sum_distributions,
)

# exhaustive strategy scans stay cheap in this range; larger d leave the column empty
SCAN_LHV_LIMIT = 16
# the largest d_max a scan accepts: its rows cost O(d) each, so the scan is
# O(d_max**2), about 3e-7 * d_max**2 s (1.0 s at 2000, 22 s at 8000, 2 vCPUs)
SCAN_D_LIMIT = 10_000

# the largest d an optimize run accepts: its time grows as d, one FFT of four
# length-d rows per evaluation, about 56 us per d for a seeded run (5.0 s at
# 10**5, 45 s at 8 * 10**5, 2 vCPUs); seeds 1 and 4 took 26 s at the limit
OPTIMIZE_D_LIMIT = 500_000


def noisy_table(table: JointProbabilityTable, visibility: float) -> JointProbabilityTable:
    """The table mixed with uniform noise at the given visibility.

    visibility 1 returns the table's probabilities, 0 the uniform table; the
    Bell expression is linear in the visibility because the uniform part has
    zero correlation.  A string or a bool visibility raises ``TypeError``.
    """
    if isinstance(visibility, (str, bool, np.bool_)):
        raise TypeError(f"visibility must be a number, got {visibility!r}")
    v = float(visibility)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {v}")
    p = v * table.p + (1.0 - v) / table.d ** 2
    return JointProbabilityTable.from_array(p)


def noise_threshold(d) -> float:
    """Visibility where the noisy canonical Bell value crosses the local bound 2."""
    return 2.0 / quantum_bell_value(check_dimension(d))


def noise_threshold_bisect(table: JointProbabilityTable) -> float:
    """Visibility where the table, mixed with uniform noise, crosses 2.

    The Bell value of the mixture is linear in the visibility v, so the Bell
    expression is evaluated once on the table and once on the uniform table
    (``noisy_table`` at v = 0), and ``_bisect_threshold`` bisects the linear
    margin.  ``noise`` bisects its outcome-sum Bell value the same way,
    without a table.  A table whose Bell value is below 2 raises ``ValueError``.
    """
    return _bisect_threshold(bell_expression(table), bell_expression(noisy_table(table, 0.0)), table.d)


def _bisect_threshold(full: float, uniform: float, d: int) -> float:
    """Bisect v * full + (1 - v) * uniform - 2 over v in [0, 1] to a bracket narrower than 1e-10."""

    def margin(v: float) -> float:
        return v * full + (1.0 - v) * uniform - 2.0

    lo, hi = 0.0, 1.0
    if margin(hi) < 0:
        raise ValueError(f"no violation at full visibility for d={d}")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if margin(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class OptimizationResult:
    start: MeasurementSettings
    start_value: float
    settings: MeasurementSettings
    value: float
    evaluations: int
    final_step: float


def random_settings(rng: np.random.Generator) -> MeasurementSettings:
    """Uniform random phases in [-1/2, 1/2), one per setting."""
    return MeasurementSettings(*rng.uniform(-0.5, 0.5, size=4))


def optimize_phases(
    d,
    start: MeasurementSettings | None = None,
    step: float = 0.05,
    halvings: int = 12,
) -> OptimizationResult:
    """Maximize the Bell value over the four phases by coordinate descent.

    One coordinate move of +-step at a time, keeping strict improvements;
    when a full sweep yields none the step is halved, ``halvings`` times in
    total.  Deterministic for a fixed start.  Each distinct phase tuple is
    evaluated once, from its outcome-sum distributions (``sum_distributions``,
    O(d log d)); no d x d table is built.  Once the step has halved to 0,
    every candidate is the current point, so each remaining halving is one
    sweep of 8 evaluations that changes nothing: they are counted, not run.
    ``halvings`` must be a non-negative integer and ``step`` a positive
    finite number: a bool, a string or (for ``halvings``) a float raises
    ``TypeError``, and a value out of range ``ValueError``.  A d whose table
    is too large for an array, or above ``OPTIMIZE_D_LIMIT`` (read at each
    call), raises ``DimensionError`` before the first evaluation.
    """
    d = check_dimension(d)
    check_table_size(d)
    if d > OPTIMIZE_D_LIMIT:
        raise DimensionError(f"optimize is supported for d <= {OPTIMIZE_D_LIMIT} (its time grows as d), got {d}")
    if type(halvings) is not int and not isinstance(halvings, np.integer):
        raise TypeError(f"halvings must be an integer, got {halvings!r}")
    if halvings < 0:
        raise ValueError(f"halvings must be non-negative, got {halvings}")
    if not isinstance(step, Real) or isinstance(step, bool):
        raise TypeError(f"step must be a number, got {step!r}")
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be a positive finite number, got {step}")
    start = start or CANONICAL_PHASES

    # coordinate moves often return to phases already evaluated (a -width
    # candidate right after an accepted +width move), so each distinct phase
    # tuple is evaluated once
    values: dict[tuple, float] = {}

    def value_at(phases) -> float:
        key = tuple(phases)
        if key not in values:
            values[key] = _sum_class_bell(sum_distributions(d, MeasurementSettings(*key)))
        return values[key]

    x = list(start.as_tuple())
    best = value_at(x)
    start_value = best
    evaluations = 1
    width = float(step)
    remaining = int(halvings)
    while remaining > 0 and width != 0.0:
        improved = True
        while improved:
            improved = False
            for coord in range(4):
                for delta in (width, -width):
                    cand = list(x)
                    cand[coord] += delta
                    v = value_at(cand)
                    evaluations += 1
                    if v > best + 1e-12:
                        x, best = cand, v
                        improved = True
        width *= 0.5
        remaining -= 1
    evaluations += 8 * remaining
    return OptimizationResult(
        start=start,
        start_value=start_value,
        settings=MeasurementSettings(*x),
        value=best,
        evaluations=evaluations,
        final_step=width,
    )


def cglmp_crosscheck(table: JointProbabilityTable) -> dict:
    """Evaluate the table's Bell value through the kernel and the probability-difference form.

    The difference form reads the second party's outcomes as -n mod d, the
    convention its terms are built for, so it folds the table's outcome-sum
    classes as ``scan`` folds ``sum_distributions``; on an exact table it is
    the sum mapping's spin assembly.  Both paths measure the same behaviour
    and must agree, on any table.
    """
    kernel_value = bell_expression(table)
    if table.is_exact:
        cglmp_value = bell_from_spin_correlations(table, OutcomeMapping.sum_mapping(table.d))
    else:
        cglmp_value = _cglmp_value(_outcome_classes(table.p, 1).sum(axis=-1))
    return {
        "kernel_value": kernel_value,
        "cglmp_value": cglmp_value,
        "delta": abs(kernel_value - cglmp_value),
    }


@dataclass(frozen=True)
class ScanRow:
    d: int
    q_correlation: float
    bell_quantum: float
    p_threshold: float
    cglmp_value: float
    lhv_max: Fraction | None


@dataclass(frozen=True)
class ScanResult:
    rows: tuple
    bell_increasing: bool
    threshold_decreasing: bool


def scan_dimensions(d_max) -> ScanResult:
    """One summary row per dimension from 2 to d_max, plus monotonicity flags.

    The ``lhv_max`` column is filled by exhaustive enumeration up to
    ``SCAN_LHV_LIMIT`` (read at each call) and left empty above it.  The
    ``cglmp_value`` column folds the outcome-sum distributions of
    ``sum_distributions`` (one FFT per setting pair, O(d log d) per row, no
    d x d table), as ``cglmp_crosscheck`` folds a table's classes; it is
    printed to 10 significant digits, where it agrees with ``born_table``.  A
    d_max whose table is too large for an array, or above ``SCAN_D_LIMIT``
    (read at each call), raises ``DimensionError`` before the first row.
    """
    d_max = check_dimension(d_max)
    check_table_size(d_max)
    if d_max > SCAN_D_LIMIT:
        raise DimensionError(
            f"scan is supported for d_max <= {SCAN_D_LIMIT} (its time grows as d_max**2), got {d_max}"
        )
    rows = []
    for d in range(2, d_max + 1):
        lhv_max = enumerate_strategies(d).max_value if d <= SCAN_LHV_LIMIT else None
        # one spin-projection distribution per row: these are the expressions
        # quantum_bell_value and noise_threshold return
        q = canonical_correlation(d)
        bell = 4.0 * q
        rows.append(
            ScanRow(
                d=d,
                q_correlation=q,
                bell_quantum=bell,
                p_threshold=2.0 / bell,
                cglmp_value=_cglmp_value(sum_distributions(d)),
                lhv_max=lhv_max,
            )
        )
    bells = [r.bell_quantum for r in rows]
    thresholds = [r.p_threshold for r in rows]
    return ScanResult(
        rows=tuple(rows),
        bell_increasing=all(b2 > b1 for b1, b2 in zip(bells, bells[1:])),
        threshold_decreasing=all(t2 < t1 for t1, t2 in zip(thresholds, thresholds[1:])),
    )
