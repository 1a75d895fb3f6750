"""Noise robustness and CGLMP cross-check of a given table, phase optimization, dimension scans."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    JointProbabilityTable,
    _sum_class_bell,
    _sum_class_cglmp,
    bell_expression,
    cglmp_expression,
    check_dimension,
)
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


def noisy_table(table: JointProbabilityTable, visibility: float) -> JointProbabilityTable:
    """The table mixed with uniform noise at the given visibility.

    visibility 1 returns the table's probabilities, 0 the uniform table; the
    Bell expression is linear in the visibility because the uniform part has
    zero correlation.
    """
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
    """
    d = check_dimension(d)
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
    evaluations += 8 * max(remaining, 0)
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

    The difference form reads outcomes in the complementary convention for
    the second party (n -> -n mod d), which is the convention its
    probability-difference terms are built for; both paths then measure the
    same behaviour and must agree, on any table.
    """
    kernel_value = bell_expression(table)
    cglmp_value = cglmp_expression(table.conjugate_second_party())
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
    d x d table),
    which are the difference distributions of the conjugated table; it is
    printed to 10 significant digits, where it agrees with ``born_table``.  A
    d_max whose table is too large for an array is refused before the first
    row.
    """
    d_max = check_dimension(d_max)
    check_table_size(d_max)
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
                cglmp_value=_sum_class_cglmp(sum_distributions(d)),
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
