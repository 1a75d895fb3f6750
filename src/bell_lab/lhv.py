"""Deterministic local strategies: exact Bell values, case analysis, enumeration.

A deterministic strategy fixes one outcome per setting, (a1, a2, b1, b2).
Plugging its point-mass table into the Bell expression gives an exact
rational whose doubled numerator is an integer over d - 1, so the whole
strategy space can be counted in integer arithmetic.  For the sum and
difference mappings the count certifies the local bound: the maximum over all
strategies is 2 at every d it covers.  Other Latin-square mappings can exceed
it (a permuted 5 x 5 square reaches 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from . import _accel
from .core import JointProbabilityTable, OutcomeMapping, check_dimension, seeded_rng, spin
from .errors import DimensionError, EnumerationSizeError, MappingError

# largest d counted exhaustively; beyond it callers draw a seeded sample
EXHAUSTIVE_LIMIT = 64

# indexed by _accel.CASE_CODE; already in the sorted order that reports use
CASE_LABELS = ("Case1i", "Case1ii", "Case2i", "Case2ii", "Case2iii", "Case3i", "Case3ii")


def _coerce_strategy(s, d: int) -> tuple[int, int, int, int]:
    """The outcomes (a1, a2, b1, b2) as ints, each checked to lie in 0..d-1."""
    s = tuple(int(x) for x in s)
    if len(s) != 4:
        raise TypeError(f"a strategy has four outcomes (a1, a2, b1, b2), got {len(s)}")
    for x in s:
        if not 0 <= x < d:
            raise DimensionError(f"strategy outcomes must lie in 0..{d - 1}, got {s}")
    return s


def outcome_sums(s) -> tuple[int, int, int, int]:
    """The four setting-pair outcome sums (r11, r12, r21, r22).

    They satisfy r11 + r22 = r12 + r21 because each outcome appears in two sums.
    """
    a1, a2, b1, b2 = (int(x) for x in s)
    return a1 + b1, a1 + b2, a2 + b1, a2 + b2


def strategy_bell_value(s, d) -> Fraction:
    """Exact Bell value of a deterministic strategy.

    Closed form: 2 * [pos(r12) + (r21 mod d) - (r11 mod d) - (r22 mod d) - 1] / (d - 1)
    where pos(x) is the least positive residue of x modulo d (in 1..d).  The
    reversed pair (1,2) enters through its negated outcome sum, which is why
    its residue is taken in 1..d: at multiples of d the usual least
    non-negative residue would not match the kernel evaluation.
    """
    d = check_dimension(d)
    a1, a2, b1, b2 = _coerce_strategy(s, d)
    r11, r12, r21, r22 = outcome_sums((a1, a2, b1, b2))
    pos12 = d - ((-r12) % d)
    num = pos12 + (r21 % d) - (r11 % d) - (r22 % d) - 1
    return Fraction(2 * num, d - 1)


def classify_strategy(s, d) -> str:
    """Case label from the sum structure of the strategy.

    Counts how many of (r11, r22) and of (r12, r21) reach d and maps the pair
    of counts to one of seven labels.  Each label admits a fixed set of Bell
    values (see ``case_value_set``).
    """
    d = check_dimension(d)
    r11, r12, r21, r22 = outcome_sums(_coerce_strategy(s, d))
    n1 = (r11 >= d) + (r22 >= d)
    n2 = (r12 >= d) + (r21 >= d)
    return CASE_LABELS[_accel.CASE_CODE[n1, n2]]


def lhv_value_set(d) -> frozenset[Fraction]:
    """All Bell values deterministic strategies can attain for this d.

    {2, -1/S, -2(S+1)/S} in general; for d = 2 the third value cannot occur
    and the set collapses to {2, -2}.
    """
    s = spin(d)
    if d == 2:
        return frozenset((Fraction(2), Fraction(-2)))
    return frozenset((Fraction(2), -1 / s, -2 * (s + 1) / s))


def case_value_set(label: str, d) -> frozenset[Fraction]:
    """Bell values admitted by a case label (a superset of what occurs for d = 2)."""
    d = check_dimension(d)
    s = spin(d)
    two, mid, low = Fraction(2), -1 / s, -2 * (s + 1) / s
    sets = {
        "Case1i": (two, mid),
        "Case1ii": (mid, low),
        "Case2i": (two,),
        "Case2ii": (two, mid),
        "Case2iii": (mid, low),
        "Case3i": (two, mid),
        "Case3ii": (two,),
    }
    if label not in sets:
        raise ValueError(f"unknown case label {label!r}")
    return frozenset(sets[label])


def strategy_to_table(s, d) -> JointProbabilityTable:
    """Point-mass probability table of a deterministic strategy (exact)."""
    d = check_dimension(d)
    a1, a2, b1, b2 = _coerce_strategy(s, d)
    counts = np.zeros((2, 2, d, d), dtype=object)
    counts[[0, 0, 1, 1], [0, 1, 0, 1], [a1, a1, a2, a2], [b1, b2, b1, b2]] = 1
    return JointProbabilityTable(d, numerators=counts)


@dataclass(frozen=True)
class EnumerationSummary:
    """Result of scanning deterministic strategies for one dimension."""

    d: int
    mapping: str
    method: str
    max_value: Fraction
    histogram: dict
    case_counts: dict
    n_strategies: int
    argmax_count: int
    argmax_rows: Callable[[], np.ndarray] = field(repr=False, compare=False)
    seed: int | None = None

    @cached_property
    def argmax(self) -> np.ndarray:
        """Maximizing (a1, a2, b1, b2) rows in lexicographic order, as ``_accel.row_dtype(d)``.

        Decoded on first read: at d = 64 there are about three million rows.
        """
        return self.argmax_rows()


def _summary_from_counts(d, mapping, method, values, cases, argmax_count, argmax_rows, seed=None):
    # values[k] counts numerators k - 2(d-1); cases[c] counts case code c
    offset = 2 * (d - 1)
    # only the occupied bins become Python objects: a sample at large d
    # occupies a few of the 4d - 3
    histogram = {
        Fraction(2 * (int(k) - offset), d - 1): int(values[k])
        for k in np.flatnonzero(values)[::-1]
    }
    return EnumerationSummary(
        d=d,
        mapping=mapping.name,
        method=method,
        max_value=next(iter(histogram)),
        histogram=histogram,
        case_counts={label: int(cases[code]) for code, label in enumerate(CASE_LABELS)},
        n_strategies=int(values.sum()),
        argmax_count=argmax_count,
        argmax_rows=argmax_rows,
        seed=seed,
    )


def _summarize(d, mapping, nums, cases, strategies, method, seed=None) -> EnumerationSummary:
    """Summary of explicit strategies: their numerators, case codes and (n, 4) outcome rows."""
    values = np.bincount(nums.astype(np.int64, copy=False) + 2 * (d - 1), minlength=4 * d - 3)
    # the maximizing rows sorted lexicographically, each kept once (the rows
    # of np.unique(axis=0)); the exact cast to the narrow row dtype first
    # makes the sorts cheap
    top = strategies[nums == nums.max()].astype(_accel.row_dtype(d))
    top = top[np.lexsort(top.T[::-1])]
    first = np.ones(len(top), dtype=bool)
    first[1:] = (top[1:] != top[:-1]).any(axis=1)
    argmax = top[first]
    case_hist = np.bincount(cases, minlength=len(CASE_LABELS))
    return _summary_from_counts(d, mapping, method, values, case_hist, len(argmax), lambda: argmax, seed)


def _checked_mapping(d, mapping: OutcomeMapping | None) -> OutcomeMapping:
    if mapping is None:
        return OutcomeMapping.sum_mapping(d)
    if mapping.d != d:
        raise MappingError(f"mapping is for d={mapping.d}, requested d={d}")
    return mapping


def enumerate_strategies(d, mapping: OutcomeMapping | None = None) -> EnumerationSummary:
    """Exact Bell statistics over all d**4 deterministic strategies.

    With ``mapping`` the Bell expression is assembled from mapped spin
    correlations instead of raw outcome sums; the default is the outcome-sum
    mapping, which reproduces ``bell_expression`` on each point-mass table.
    The strategies are counted, not listed: ``_accel.count_strategies``
    separates each value into a part in b1 and a part in b2, which takes
    O(d**3) memory and O(d**4) time.  The ``argmax`` rows, ordered lexicographically in
    (a1, a2, b1, b2), are decoded only when read.
    """
    d = check_dimension(d)
    if d > EXHAUSTIVE_LIMIT:
        raise EnumerationSizeError(
            f"exhaustive enumeration is supported for d <= {EXHAUSTIVE_LIMIT} "
            f"({EXHAUSTIVE_LIMIT ** 4} strategies); for larger d draw a seeded "
            f"sample with sample_strategies"
        )
    mapping = _checked_mapping(d, mapping)
    values, cases, argmax_rows = _accel.count_strategies(mapping)
    argmax_count = int(values[np.flatnonzero(values)[-1]])
    return _summary_from_counts(d, mapping, "exhaustive", values, cases, argmax_count, argmax_rows)


def sample_strategies(d, n_samples: int, seed: int, mapping: OutcomeMapping | None = None) -> EnumerationSummary:
    """Seeded uniform sample of deterministic strategies (for d beyond the scan limit).

    Draws ``n_samples`` strategies uniformly with replacement and summarises
    them like ``enumerate_strategies``; ``argmax`` holds the distinct
    maximizing rows drawn, as ``_accel.row_dtype(d)`` (int16 up to d = 32768).
    The cost is O(n_samples) time and memory, plus a histogram of 4d - 3
    counters: the mapping is evaluated elementwise, and the sum and
    difference mappings are arithmetic that builds no d x d table.  A draw
    or histogram too large for one array, as for every d beyond int64,
    raises ``EnumerationSizeError`` before anything is drawn.
    """
    d = check_dimension(d)
    n_samples = int(n_samples)
    if n_samples < 1:
        raise EnumerationSizeError(f"need at least one sample, got {n_samples}")
    # sizes in bytes of the histogram and the draw, against the largest array
    max_bytes = np.iinfo(np.intp).max
    if 8 * (4 * d - 3) > max_bytes:
        raise EnumerationSizeError(
            f"d = {d} is too large to sample: its 4d - 3 int64 counters exceed the largest array"
        )
    if 8 * 4 * n_samples > max_bytes:
        raise EnumerationSizeError(
            f"{n_samples} samples are too many: the (n, 4) int64 draw exceeds the largest array"
        )
    mapping = _checked_mapping(d, mapping)
    rng = seeded_rng(seed)
    strategies = rng.integers(0, d, size=(n_samples, 4), dtype=np.int64)
    nums, cases = _accel.strategy_values(mapping, *strategies.T)
    return _summarize(d, mapping, nums, cases, strategies, "sampled", int(seed))
