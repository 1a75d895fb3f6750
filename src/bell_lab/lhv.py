"""Deterministic local strategies: exact Bell values, case analysis, enumeration.

A deterministic strategy fixes one outcome per setting, (a1, a2, b1, b2).
Plugging its point-mass table into the Bell expression gives an exact
rational whose doubled numerator is an integer over d - 1, so the whole
strategy space can be scanned in integer arithmetic.  The scan certifies the
local bound: the maximum over all strategies is 2 for every d.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import _accel
from .core import (
    BellValue,
    JointProbabilityTable,
    OutcomeMapping,
    check_dimension,
    spin,
)
from .errors import DimensionError, EnumerationSizeError, MappingError

# d**4 strategies are scanned explicitly; past this the memory and time cost
# calls for sampling instead.
EXHAUSTIVE_LIMIT = 64

# indexed by _accel.CASE_CODE; already in the sorted order that reports use
CASE_LABELS = ("Case1i", "Case1ii", "Case2i", "Case2ii", "Case2iii", "Case3i", "Case3ii")

class DeterministicStrategy(NamedTuple):
    a1: int
    a2: int
    b1: int
    b2: int


def _coerce_strategy(s, d: int) -> DeterministicStrategy:
    s = DeterministicStrategy(*(int(x) for x in s))
    for x in s:
        if not 0 <= x < d:
            raise DimensionError(f"strategy outcomes must lie in 0..{d - 1}, got {tuple(s)}")
    return s


def outcome_sums(s) -> tuple[int, int, int, int]:
    """The four setting-pair outcome sums (r11, r12, r21, r22).

    They satisfy r11 + r22 = r12 + r21 because each outcome appears in two sums.
    """
    a1, a2, b1, b2 = (int(x) for x in s)
    return a1 + b1, a1 + b2, a2 + b1, a2 + b2


def strategy_bell_value(s, d) -> BellValue:
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
    return BellValue.from_exact(Fraction(2 * num, d - 1))


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


@dataclass(frozen=True)
class StrategyReport:
    """One strategy with its sum structure, case label, and exact Bell value."""

    strategy: DeterministicStrategy
    d: int
    sums: tuple[int, int, int, int]
    case: str
    value: BellValue
    degenerate: bool

    @classmethod
    def build(cls, s, d) -> "StrategyReport":
        d = check_dimension(d)
        s = _coerce_strategy(s, d)
        return cls(
            strategy=s,
            d=d,
            sums=outcome_sums(s),
            case=classify_strategy(s, d),
            value=strategy_bell_value(s, d),
            # for d = 2 the case split is reported but not meaningful: several
            # cases cannot occur and the value set collapses to {2, -2}
            degenerate=(d == 2),
        )


def strategy_to_table(s, d) -> JointProbabilityTable:
    """Point-mass probability table of a deterministic strategy (exact)."""
    d = check_dimension(d)
    a1, a2, b1, b2 = _coerce_strategy(s, d)
    counts = np.zeros((2, 2, d, d), dtype=np.int64)
    counts[[0, 0, 1, 1], [0, 1, 0, 1], [a1, a1, a2, a2], [b1, b2, b1, b2]] = 1
    return JointProbabilityTable.from_fractions(counts)


def worker_count(threads=None) -> int:
    """Number of enumeration workers; BELL_LAB_THREADS caps it, default 1."""
    if threads is None:
        raw = os.environ.get("BELL_LAB_THREADS", "1").strip()
        try:
            threads = int(raw)
        except ValueError:
            raise ValueError(f"BELL_LAB_THREADS must be an integer, got {raw!r}")
    return max(1, min(int(threads), os.cpu_count() or 1))


@dataclass(frozen=True)
class EnumerationSummary:
    """Result of scanning deterministic strategies for one dimension."""

    d: int
    mapping: str
    method: str
    max_value: Fraction
    histogram: dict
    argmax: np.ndarray
    case_counts: dict
    n_strategies: int
    seed: int | None = None

    @property
    def argmax_count(self) -> int:
        return len(self.argmax)

    def to_json_dict(self) -> dict:
        out = {
            "schema_version": 1,
            "d": self.d,
            "mapping": self.mapping,
            "method": self.method,
            "n_strategies": self.n_strategies,
            "max": str(self.max_value),
            "histogram": {str(v): c for v, c in self.histogram.items()},
            "argmax_count": self.argmax_count,
            "case_counts": dict(self.case_counts),
        }
        if self.d == 2:
            out["cases_degenerate"] = True
        if self.seed is not None:
            out["seed"] = self.seed
        return out


def _decode_strategies(idx: np.ndarray, d: int) -> np.ndarray:
    out = np.empty((idx.size, 4), dtype=np.int16)
    rest = idx.astype(np.int64)
    for col in (3, 2, 1, 0):
        out[:, col] = rest % d
        rest //= d
    return out


def _summarize(d, mapping, nums, cases, strategies, method, seed=None) -> EnumerationSummary:
    offset = 2 * (d - 1)
    counts = np.bincount(nums.astype(np.int64) + offset, minlength=4 * d - 3)
    histogram = {
        Fraction(2 * (v - offset), d - 1): int(c)
        for v, c in sorted(enumerate(counts), key=lambda vc: -vc[0])
        if c
    }
    best = int(nums.max())
    max_value = Fraction(2 * best, d - 1)
    hit = nums == best
    if strategies is None:
        argmax = _decode_strategies(np.flatnonzero(hit), d)
    else:
        argmax = np.unique(strategies[hit], axis=0).astype(np.int16)
    case_hist = np.bincount(cases.astype(np.int64), minlength=7)
    case_counts = {label: int(case_hist[code]) for code, label in enumerate(CASE_LABELS)}
    return EnumerationSummary(
        d=d,
        mapping=mapping.name,
        method=method,
        max_value=max_value,
        histogram=histogram,
        argmax=argmax,
        case_counts=case_counts,
        n_strategies=len(nums),
        seed=seed,
    )


def enumerate_strategies(d, mapping: OutcomeMapping | None = None, threads=None) -> EnumerationSummary:
    """Scan all d**4 deterministic strategies and report exact Bell statistics.

    With ``mapping`` the Bell expression is assembled from mapped spin
    correlations instead of raw outcome sums; the default is the outcome-sum
    mapping, which reproduces ``bell_expression`` on each point-mass table.
    Strategies are ordered lexicographically in (a1, a2, b1, b2).
    """
    d = check_dimension(d)
    if d > EXHAUSTIVE_LIMIT:
        raise EnumerationSizeError(
            f"exhaustive enumeration is supported for d <= {EXHAUSTIVE_LIMIT} "
            f"({EXHAUSTIVE_LIMIT ** 4} strategies); for larger d draw a seeded "
            f"sample with sample_strategies"
        )
    if mapping is None:
        mapping = OutcomeMapping.sum_mapping(d)
    elif mapping.d != d:
        raise MappingError(f"mapping is for d={mapping.d}, requested d={d}")
    total = d ** 4
    nums = np.empty(total, dtype=np.int16)
    cases = np.empty(total, dtype=np.int8)
    g = mapping.table
    workers = worker_count(threads)
    if workers == 1:
        _accel.fill_strategy_arrays(d, g, nums, cases, 0, d)
    else:
        bounds = np.linspace(0, d, workers + 1).astype(int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            jobs = [
                pool.submit(_accel.fill_strategy_arrays, d, g, nums, cases, lo, hi)
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
            for job in jobs:
                job.result()
    return _summarize(d, mapping, nums, cases, None, method="exhaustive")


def sample_strategies(d, n_samples: int, seed: int, mapping: OutcomeMapping | None = None) -> EnumerationSummary:
    """Seeded uniform sample of deterministic strategies (for d beyond the scan limit)."""
    d = check_dimension(d)
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    if mapping is None:
        mapping = OutcomeMapping.sum_mapping(d)
    elif mapping.d != d:
        raise MappingError(f"mapping is for d={mapping.d}, requested d={d}")
    rng = np.random.default_rng(seed)
    strategies = rng.integers(0, d, size=(n_samples, 4), dtype=np.int64)
    a1, a2, b1, b2 = strategies.T
    g = mapping.table.astype(np.int64)
    gneg = (d - g) % d
    nums = ((d - 1) + g[a2, b1] - g[a1, b1] - g[a2, b2] - gneg[a1, b2]).astype(np.int16)
    n1 = ((a1 + b1) >= d).astype(np.int8) + ((a2 + b2) >= d).astype(np.int8)
    n2 = ((a1 + b2) >= d).astype(np.int8) + ((a2 + b1) >= d).astype(np.int8)
    cases = _accel.CASE_CODE[n1, n2]
    return _summarize(d, mapping, nums, cases, strategies, method="sampled", seed=int(seed))
