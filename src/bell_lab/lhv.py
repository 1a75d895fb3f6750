"""Deterministic local strategies: exact Bell values, case analysis, enumeration.

A deterministic strategy fixes one outcome per setting, (a1, a2, b1, b2).
Plugging its point-mass table into the Bell expression gives an exact
rational whose doubled numerator, an integer over d - 1, sums ``core``'s
weight rule at its four cells, so the whole strategy space can be counted
in integer arithmetic.  For the sum and difference mappings the count
certifies the local bound: the maximum over all strategies is 2 at every d
it covers.  Other Latin-square mappings can exceed it (a permuted 5 x 5
square reaches 3).
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

# largest d sampled: its outcome sums and numerators, within +-2(d - 1),
# stay within int64
_SAMPLE_D_LIMIT = 1 << 62

# largest sample count drawn: about 10**7 strategies are drawn per second
# (2 vCPUs), so a run at the limit takes about 30 s, as scan does at its limit
SAMPLE_LIMIT = 300_000_000

# strategies drawn at a time by sample_strategies
_SAMPLE_CHUNK = 1 << 15

# indexed by _accel.CASE_CODE; already in the sorted order that reports use
CASE_LABELS = ("Case1i", "Case1ii", "Case2i", "Case2ii", "Case2iii", "Case3i", "Case3ii")


def _coerce_strategy(s, d: int) -> tuple[int, int, int, int]:
    """The outcomes (a1, a2, b1, b2) as ints, each checked to lie in 0..d-1.

    Only Python ints and numpy integers are outcomes: a bool, a float or a
    string raises ``TypeError`` instead of being converted.
    """
    s = tuple(s)
    if len(s) != 4:
        raise TypeError(f"a strategy has four outcomes (a1, a2, b1, b2), got {len(s)}")
    for x in s:
        if type(x) is not int and not isinstance(x, np.integer):
            raise TypeError(f"strategy outcomes must be integers, got {x!r}")
    s = tuple(map(int, s))
    for x in s:
        if not 0 <= x < d:
            raise DimensionError(f"strategy outcomes must lie in 0..{d - 1}, got {s}")
    return s


def strategy_bell_value(s, d) -> Fraction:
    """Exact Bell value of a deterministic strategy.

    Evaluated by ``_accel.strategy_values``, ``bell_weights``' rule at its four
    cells as enumeration and sampling run it, on the outcomes as Python ints
    under the sum mapping, so it is exact at any d.
    """
    g = OutcomeMapping.sum_mapping(d)
    num, _ = _accel.strategy_values(g, *_coerce_strategy(s, g.d))
    return Fraction(2 * num, g.d - 1)


def classify_strategy(s, d) -> str:
    """Case label from the sum structure of the strategy.

    The case code of ``_accel.strategy_values`` (see ``_accel.CASE_CODE``),
    which counts how many of a1+b1, a2+b2 and how many of a1+b2, a2+b1 reach
    d.  Each label admits a fixed set of Bell values (see ``case_value_set``).
    """
    g = OutcomeMapping.sum_mapping(d)
    _, case = _accel.strategy_values(g, *_coerce_strategy(s, g.d))
    return CASE_LABELS[case]


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
    # one value set per label, in CASE_LABELS order
    sets = dict(
        zip(CASE_LABELS, [(two, mid), (mid, low), (two,), (two, mid), (mid, low), (two, mid), (two,)])
    )
    if label not in sets:
        raise ValueError(f"unknown case label {label!r}")
    return frozenset(sets[label])


def strategy_to_table(s, d) -> JointProbabilityTable:
    """Point-mass probability table of a deterministic strategy (exact).

    Each setting pair holds a single int64 numerator 1 over the denominator
    1, so the table keeps its numerators as int64.
    """
    d = check_dimension(d)
    a1, a2, b1, b2 = _coerce_strategy(s, d)
    counts = np.zeros((2, 2, d, d), dtype=np.int64)
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


def _summary_from_counts(d, mapping, method, totals, cases, argmax_count, argmax_rows, seed=None):
    # totals maps each Bell numerator that occurs to its count; cases[c]
    # counts case code c
    histogram = {Fraction(2 * k, d - 1): totals[k] for k in sorted(totals, reverse=True)}
    return EnumerationSummary(
        d=d,
        mapping=mapping.name,
        method=method,
        max_value=next(iter(histogram)),
        histogram=histogram,
        case_counts={label: int(cases[code]) for code, label in enumerate(CASE_LABELS)},
        n_strategies=sum(histogram.values()),
        argmax_count=argmax_count,
        argmax_rows=argmax_rows,
        seed=seed,
    )


class _TopKeys:
    """The rows that attain the largest numerator so far, one sortable key per row.

    Up to d = 32768 a key is the uint64 a1 << 48 | a2 << 32 | b1 << 16 | b2:
    the int16 row, columns reversed, read as one little-endian word.  Above,
    it is the row as four big-endian int64 read as 32 raw bytes, which
    compare as the row does because outcomes are non-negative.  Either way
    the keys sort as the rows do.  They live in one array that starts empty
    and grows in place by a quarter at a time.  When it is full, its keys
    are sorted in place and compacted to the distinct ones if that frees at
    least half; a sort that does not is not tried again before the store
    holds twice as many keys.  So the sorts cost O(log n) per key, amortized,
    and the room stays below 1.25 times the keys held plus one chunk's.
    """

    def __init__(self, d):
        self.packed = _accel.row_dtype(d) == np.int16
        self.keys = np.empty(0, "<u8" if self.packed else "V32")
        self.clear()

    def clear(self):
        # retry: a full store holding no more keys than this is not sorted
        self.n = self.retry = 0

    def add(self, rows):
        if self.packed:
            keys = np.ascontiguousarray(rows[:, ::-1], "<i2").view("<u8")[:, 0]
        else:
            keys = np.ascontiguousarray(rows, ">i8").view("V32")[:, 0]
        if self.n + len(keys) > len(self.keys) and self.n > self.retry:
            self._compact()
        end = self.n + len(keys)
        if end > len(self.keys):
            # in place: no view of the store outlives the method that made it
            self.keys.resize(max(end, len(self.keys) * 5 // 4), refcheck=False)
        self.keys[self.n : end] = keys
        self.n = end

    def _compact(self) -> int:
        """Sort the keys held in place and return how many are distinct.

        The repeats are dropped if that frees at least half of the keys held,
        so the copy this takes holds at most half of them; if not, the next
        sort waits until twice as many keys are held.
        """
        held = self.keys[: self.n]
        held.sort()
        differs = held[1:] != held[:-1]
        distinct = 1 + int(np.count_nonzero(differs))
        if 2 * distinct <= self.n:
            self.keys[1:distinct] = held[1:][differs]
            self.n, self.retry = distinct, 0
        else:
            self.retry = 2 * self.n
        return distinct

    def finish(self) -> int:
        """Sort the keys held, release the room left over and return the distinct count."""
        distinct = self._compact()
        self.keys.resize(self.n, refcheck=False)
        return distinct

    def rows(self) -> np.ndarray:
        """The distinct rows after ``finish``, in lexicographic order, as ``_accel.row_dtype(d)``."""
        keys = self.keys[np.concatenate(([True], self.keys[1:] != self.keys[:-1]))]
        if self.packed:
            return np.ascontiguousarray(keys.view("<i2").reshape(-1, 4)[:, ::-1], np.int16)
        return keys.view(">i8").reshape(-1, 4).astype(np.int64)


def _summarize(d, mapping, chunks, method, seed=None) -> EnumerationSummary:
    """Summary of explicit strategies, given as ``(strategies, nums, cases)`` chunks.

    Each chunk holds (n, 4) outcome rows with their numerators and case codes.
    Only running totals outlive a chunk: the count of each numerator that
    occurs, the case histogram and a ``_TopKeys`` store of the rows that
    attain the largest numerator so far.
    """
    totals = {}
    case_hist = np.zeros(len(CASE_LABELS), dtype=np.int64)
    top_num, top = None, _TopKeys(d)
    for strategies, nums, cases in chunks:
        keys, counts = np.unique(nums, return_counts=True)
        for k, c in zip(keys.tolist(), counts.tolist()):
            totals[k] = totals.get(k, 0) + c
        case_hist += np.bincount(cases, minlength=len(CASE_LABELS))
        chunk_max = keys[-1]
        if top_num is None or chunk_max > top_num:
            top_num = chunk_max
            top.clear()
        if chunk_max == top_num:
            top.add(strategies[nums == chunk_max])
        # no array of this chunk stays alive while the next one is drawn
        del strategies, nums, cases, keys, counts
    argmax_count = top.finish()
    return _summary_from_counts(d, mapping, method, totals, case_hist, argmax_count, top.rows, seed)


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
    O(d**2) memory and O(d**4) time.  The ``argmax`` rows, ordered
    lexicographically in (a1, a2, b1, b2), are decoded only when read.
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
    # values[k] counts the numerator k - 2(d-1)
    totals = {int(k) - 2 * (d - 1): int(values[k]) for k in np.flatnonzero(values)}
    argmax_count = totals[max(totals)]
    return _summary_from_counts(d, mapping, "exhaustive", totals, cases, argmax_count, argmax_rows)


def sample_strategies(d, n_samples: int, seed: int, mapping: OutcomeMapping | None = None) -> EnumerationSummary:
    """Seeded uniform sample of deterministic strategies (for d beyond the scan limit).

    Draws ``n_samples`` strategies uniformly with replacement and summarises
    them like ``enumerate_strategies``; ``argmax`` holds the distinct
    maximizing rows drawn, as ``_accel.row_dtype(d)`` (int16 up to d = 32768).
    The draw streams in chunks of ``_SAMPLE_CHUNK`` (32768) strategies from
    one generator, the same stream as one whole draw, in int32 while that
    holds the outcome sums (d <= 2**30).  The time is O(n_samples).  The
    memory is one chunk, the distinct numerators drawn (three under the
    named mappings) and one key per maximizing row drawn (a uint64 up to
    d = 32768), in a store that is compacted to its distinct keys whenever
    that frees half of it (``_TopKeys``); the keys are decoded into
    ``argmax`` rows only when read.  So at d = 3, with 30 maximizing rows,
    the store never outgrows 1.25 chunks' keys (320 KiB) at any sample count
    and keeps at most 60 keys in the summary, while at large d, where draws
    rarely repeat, it grows with the maximizing draws, about one in six.
    The mapping is evaluated elementwise, and the sum and difference mappings
    are arithmetic that builds no d x d table.  A d whose outcome sums would
    overflow int64, or a sample count that is not an integer (a bool, a
    float or a string), lies above the cap ``intp.max // 32`` (2**58 - 1) or
    above ``SAMPLE_LIMIT`` (3 * 10**8, about 30 s), raises
    ``EnumerationSizeError`` before anything is drawn.
    """
    d = check_dimension(d)
    if type(n_samples) is not int and not isinstance(n_samples, np.integer):
        raise EnumerationSizeError(f"the sample count must be an integer, got {n_samples!r}")
    n_samples = int(n_samples)
    if n_samples < 1:
        raise EnumerationSizeError(f"need at least one sample, got {n_samples}")
    if d > _SAMPLE_D_LIMIT:
        raise EnumerationSizeError(
            f"d = {d} is too large to sample: outcome sums up to 2(d - 1) must fit in int64 "
            "(d <= 2**62)"
        )
    cap = np.iinfo(np.intp).max // 32
    if n_samples > cap:
        raise EnumerationSizeError(f"{n_samples} samples are too many: the sample count is capped at {cap}")
    if n_samples > SAMPLE_LIMIT:
        raise EnumerationSizeError(
            f"sampling is supported for at most {SAMPLE_LIMIT} samples (its time grows with the count), "
            f"got {n_samples}"
        )
    mapping = _checked_mapping(d, mapping)
    rng = seeded_rng(seed)
    dtype = np.int32 if d <= 1 << 30 else np.int64

    def chunks():
        for start in range(0, n_samples, _SAMPLE_CHUNK):
            k = min(_SAMPLE_CHUNK, n_samples - start)
            strategies = rng.integers(0, d, size=(k, 4), dtype=dtype)
            yield (strategies, *_accel.strategy_values(mapping, *strategies.T))
            del strategies  # the next chunk is drawn without this one

    return _summarize(d, mapping, chunks(), "sampled", int(seed))
