"""Deterministic-strategy tests.

Histograms, case counts, and example values below were frozen from an
independent exact-arithmetic enumerator before this module was written.
"""

import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bell_lab as bl
from bell_lab import _accel, cli, core, lhv
from bell_lab.errors import BellLabError, EnumerationSizeError, SeedError
from conftest import classify_strategy

F = Fraction


def all_strategies(d):
    for s in np.ndindex(d, d, d, d):
        yield tuple(int(x) for x in s)


# (n1, n2) -> case label, where n1 counts which of a1+b1, a2+b2 reach d and n2
# counts which of a1+b2, a2+b1 do
ORACLE_CASES = {
    (0, 0): "Case1i",
    (0, 1): "Case1ii",
    (1, 0): "Case2i",
    (1, 1): "Case2ii",
    (1, 2): "Case2iii",
    (2, 2): "Case3i",
    (2, 1): "Case3ii",
}


def outcome_sums(s):
    """The setting-pair outcome sums (r11, r12, r21, r22), as Python ints.

    They satisfy r11 + r22 = r12 + r21 because each outcome appears in two sums.
    """
    a1, a2, b1, b2 = map(int, s)
    return a1 + b1, a1 + b2, a2 + b1, a2 + b2


def closed_form(s, d):
    """(Bell value, case label) of a strategy from its outcome sums alone.

    The value is 2 * [pos(r12) + (r21 mod d) - (r11 mod d) - (r22 mod d) - 1] / (d - 1),
    where pos(x) is the least positive residue of x modulo d (in 1..d).  The
    reversed pair (1,2) enters through its negated outcome sum, which is why
    its residue is taken in 1..d: at multiples of d the usual least
    non-negative residue would not match the kernel evaluation.  The label
    is ``ORACLE_CASES`` of how many of (r11, r22) and of (r12, r21) reach d.
    """
    r11, r12, r21, r22 = outcome_sums(s)
    num = d - (-r12) % d + r21 % d - r11 % d - r22 % d - 1
    n1 = (r11 >= d) + (r22 >= d)
    n2 = (r12 >= d) + (r21 >= d)
    return F(2 * num, d - 1), ORACLE_CASES[n1, n2]


def evaluated(s, d):
    """(Bell value, case label) of a strategy from the package."""
    return bl.strategy_bell_value(s, d), classify_strategy(s, d)


class TestStrategyValue:
    def test_all_zero_strategy(self):
        for d in (2, 3, 7):
            assert bl.strategy_bell_value((0, 0, 0, 0), d) == 2
            assert classify_strategy((0, 0, 0, 0), d) == "Case1i"

    def test_frozen_examples_d3(self):
        cases = {
            (2, 2, 2, 2): ("Case3i", F(-1)),
            (2, 0, 0, 2): ("Case1ii", F(-4)),
            (1, 0, 0, 2): ("Case1ii", F(-1)),
            (2, 1, 2, 0): ("Case2ii", F(-1)),
        }
        for s, (label, value) in cases.items():
            assert classify_strategy(s, 3) == label
            assert bl.strategy_bell_value(s, 3) == value

    def test_outcome_sums(self):
        assert outcome_sums((1, 2, 3, 4)) == (4, 5, 5, 6)
        # the oracle's sums do not wrap: at d = 2**70 + 1 they pass 2**70,
        # and the package agrees with the oracle there
        s = (np.int64(7), 2**70 - 1, 0, 2**70)
        assert outcome_sums(s) == (7, 2**70 + 7, 2**70 - 1, 2**71 - 1)
        assert evaluated(s, 2**70 + 1) == closed_form(s, 2**70 + 1)

    def test_sum_identity(self):
        # r11 + r22 = r12 + r21 for every strategy, and each oracle sum is,
        # mod d, where the point-mass table puts its setting pair's
        # outcome-sum distribution
        d = 3
        g = bl.OutcomeMapping.sum_mapping(d)
        for s in all_strategies(d):
            sums = outcome_sums(s)
            assert sums[0] + sums[3] == sums[1] + sums[2]
            t = bl.strategy_to_table(s, d)
            for (i, j), r in zip(core.SETTING_PAIRS, sums):
                assert bl.mapped_spin_distribution(t, i, j, g).tolist() == np.eye(d)[r % d].tolist()

    @pytest.mark.parametrize("d", range(2, 9))
    def test_every_strategy_matches_the_closed_form(self, d):
        for s in all_strategies(d):
            assert evaluated(s, d) == closed_form(s, d)

    @pytest.mark.parametrize("d", [2**63 + 5, 2**64 + 3, 10**30], ids=["2**63+5", "2**64+3", "10**30"])
    def test_python_int_outcomes_match_the_closed_form_beyond_int64(self, d):
        # the named mappings add Python ints here: np.add would raise
        # OverflowError on outcomes beyond int64
        ends = (0, 1, d // 2, d - 2, d - 1)
        draw = random.Random(d)
        strategies = itertools.chain(
            itertools.product(ends, repeat=4), ([draw.randrange(d) for _ in range(4)] for _ in range(500))
        )
        for s in strategies:
            assert evaluated(s, d) == closed_form(s, d)

    def test_rejects_out_of_range_outcomes(self):
        for evaluate in (bl.strategy_bell_value, bl.strategy_to_table):
            with pytest.raises(ValueError):
                evaluate((0, 0, 0, 3), 3)
            with pytest.raises(ValueError):
                evaluate((-1, 0, 0, 0), 3)

    @pytest.mark.parametrize("s", [(), (0, 0, 0), (0, 0, 0, 0, 0)])
    def test_rejects_strategies_without_four_outcomes(self, s):
        for evaluate in (bl.strategy_bell_value, bl.strategy_to_table):
            with pytest.raises(TypeError):
                evaluate(s, 3)

    @pytest.mark.parametrize(
        "s",
        [
            (0.9, 0, 0, 0),  # used to truncate to the value 2 of (0, 0, 0, 0)
            (1.7, 0, True, 0),  # used to build the table of (1, 0, 1, 0)
            ("1", 0, 0, 0),  # used to evaluate to -1
            (True, 0, 0, 0),
            (0, 0, 0, np.bool_(False)),
            (0, np.float64(1.0), 0, 0),
            (F(1), 0, 0, 0),
            (0, 0, 1 + 0j, 0),
        ],
    )
    def test_rejects_outcomes_that_are_not_integers(self, s):
        for evaluate in (bl.strategy_bell_value, bl.strategy_to_table):
            with pytest.raises(TypeError, match="strategy outcomes must be integers"):
                evaluate(s, 3)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.int64, np.uint64])
    def test_numpy_integer_outcomes_are_ints(self, dtype):
        for s in [(0, 1, 2, 1), (2, 2, 0, 1)]:
            t = bl.strategy_to_table(tuple(dtype(x) for x in s), 3)
            assert t.numerators.tolist() == bl.strategy_to_table(s, 3).numerators.tolist()
            assert bl.strategy_bell_value(np.array(s, dtype=dtype), 3) == bl.strategy_bell_value(s, 3)

    @given(st.integers(2, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_closed_form_equals_table_evaluation(self, d, data):
        s = tuple(data.draw(st.integers(0, d - 1)) for _ in range(4))
        direct = bl.strategy_bell_value(s, d)
        via_table = bl.bell_expression(bl.strategy_to_table(s, d))
        assert direct == via_table

    @given(st.integers(2, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_value_lies_in_class_value_set(self, d, data):
        s = tuple(data.draw(st.integers(0, d - 1)) for _ in range(4))
        value = bl.strategy_bell_value(s, d)
        assert value in bl.lhv_value_set(d)
        assert value in bl.case_value_set(classify_strategy(s, d), d)


class TestValueSets:
    def test_global_sets(self):
        assert bl.lhv_value_set(2) == {F(2), F(-2)}
        assert bl.lhv_value_set(3) == {F(2), F(-1), F(-4)}
        assert bl.lhv_value_set(4) == {F(2), F(-2, 3), F(-10, 3)}
        assert bl.lhv_value_set(5) == {F(2), F(-1, 2), F(-3)}

    def test_case_sets_d3(self):
        s = bl.spin(3)
        low = F(-1) / s
        bottom = F(-2) * (s + 1) / s
        assert bl.case_value_set("Case1i", 3) == {F(2), low}
        assert bl.case_value_set("Case1ii", 3) == {low, bottom}
        assert bl.case_value_set("Case2i", 3) == {F(2)}
        assert bl.case_value_set("Case2ii", 3) == {F(2), low}
        assert bl.case_value_set("Case2iii", 3) == {low, bottom}
        assert bl.case_value_set("Case3i", 3) == {F(2), low}
        assert bl.case_value_set("Case3ii", 3) == {F(2)}

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            bl.case_value_set("Case9", 3)

    def test_attained_values_within_case_sets(self):
        # d=3 is too small for Case2iii to reach its bottom value; from d=4 on
        # every admissible (label, value) combination occurs
        seen3 = {}
        for s in all_strategies(3):
            label = classify_strategy(s, 3)
            seen3.setdefault(label, set()).add(bl.strategy_bell_value(s, 3))
        for label, values in seen3.items():
            assert values <= bl.case_value_set(label, 3)
        assert seen3["Case2iii"] == {F(-1)}

        seen4 = {}
        for s in all_strategies(4):
            label = classify_strategy(s, 4)
            seen4.setdefault(label, set()).add(bl.strategy_bell_value(s, 4))
        for label, values in seen4.items():
            assert values == bl.case_value_set(label, 4)


class TestEnumeration:
    def test_histograms_match_frozen_counts(self):
        expect = {
            2: {F(2): 8, F(-2): 8},
            3: {F(2): 30, F(-1): 48, F(-4): 3},
            4: {F(2): 80, F(-2, 3): 160, F(-10, 3): 16},
            5: {F(2): 175, F(-1, 2): 400, F(-3): 50},
        }
        for d, hist in expect.items():
            summary = bl.enumerate_strategies(d)
            assert summary.histogram == hist
            assert summary.max_value == 2
            assert summary.n_strategies == d**4

    def test_case_counts_d3(self):
        summary = bl.enumerate_strategies(3)
        assert summary.case_counts == {
            "Case1i": 26,
            "Case1ii": 10,
            "Case2i": 10,
            "Case2ii": 24,
            "Case2iii": 2,
            "Case3i": 7,
            "Case3ii": 2,
        }

    def test_counts_agree_with_classifier(self):
        for d in (2, 4):
            summary = bl.enumerate_strategies(d)
            counts = {}
            for s in all_strategies(d):
                label = classify_strategy(s, d)
                counts[label] = counts.get(label, 0) + 1
            assert {k: v for k, v in summary.case_counts.items() if v} == counts

    def test_against_inline_reference_enumeration(self):
        # independent path: evaluate every strategy through the table machinery
        for d in (2, 3):
            hist = {}
            for s in all_strategies(d):
                v = bl.bell_expression(bl.strategy_to_table(s, d))
                hist[v] = hist.get(v, 0) + 1
            assert bl.enumerate_strategies(d).histogram == hist

    def test_argmax_rows_attain_maximum(self):
        for d in (2, 3, 5):
            summary = bl.enumerate_strategies(d)
            assert summary.argmax_count == summary.histogram[summary.max_value]
            assert len(summary.argmax) == summary.argmax_count
            for row in summary.argmax:
                s = tuple(int(x) for x in row)
                assert bl.strategy_bell_value(s, d) == summary.max_value

    def test_custom_mapping_still_bounded_by_two(self):
        table = ((1, 0, 2), (0, 2, 1), (2, 1, 0))
        g = bl.OutcomeMapping(3, table, "custom")
        summary = bl.enumerate_strategies(3, g)
        assert summary.max_value <= 2
        assert summary.mapping == "custom"

    def test_bound_two_is_not_general_for_latin_squares(self):
        # the bound 2 is certified for the sum and difference mappings only:
        # a permuted cyclic 5 x 5 square reaches 3
        d = 5
        r = np.random.default_rng(0)
        base = np.add.outer(np.arange(d), np.arange(d)) % d
        t = base[r.permutation(d)][:, r.permutation(d)]
        t = r.permutation(d)[t]
        assert bl.enumerate_strategies(d, bl.OutcomeMapping(d, t)).max_value == 3

    def test_difference_mapping_same_histogram(self):
        g = bl.OutcomeMapping.difference_mapping(4)
        assert bl.enumerate_strategies(4, g).histogram == bl.enumerate_strategies(4).histogram

    def test_size_guard(self):
        with pytest.raises(EnumerationSizeError):
            bl.enumerate_strategies(65)


class TestSampling:
    def test_seeded_reproducibility(self):
        a = bl.sample_strategies(20, 500, seed=9)
        b = bl.sample_strategies(20, 500, seed=9)
        assert a == b
        assert a.method == "sampled"
        assert a.seed == 9

    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.5])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(SeedError, match="seed must be a non-negative integer") as exc:
            bl.sample_strategies(3, 5, seed=seed)
        assert isinstance(exc.value, BellLabError)

    @pytest.mark.parametrize("n_samples", [2.9, True, "7", np.float64(3.0)])
    def test_sample_count_must_be_an_integer(self, n_samples):
        # 2.9 used to draw 2 strategies, True 1 and "7" 7
        with pytest.raises(EnumerationSizeError, match="sample count must be an integer"):
            bl.sample_strategies(3, n_samples, seed=1)

    def test_sampled_values_subset_of_value_set(self):
        summary = bl.sample_strategies(33, 2000, seed=3)
        assert set(summary.histogram) <= bl.lhv_value_set(33)
        assert summary.max_value == 2

    def test_small_d_sampling_matches_support(self):
        summary = bl.sample_strategies(3, 4000, seed=1)
        assert set(summary.histogram) == {F(2), F(-1), F(-4)}

    def test_extreme_numerators_do_not_wrap(self, monkeypatch):
        # numerators run from -2(d-1) to d-1; at d = 16386 the lower end is
        # -32770, below int16.  The strategy formula is stubbed to return
        # both ends.
        d = 16386
        low, high = -2 * (d - 1), d - 1
        monkeypatch.setattr(
            _accel,
            "strategy_values",
            lambda g, a1, a2, b1, b2: (np.resize([low, high, 0], len(a1)), np.zeros(len(a1), np.int8)),
        )
        summary = bl.sample_strategies(d, 6, seed=1)
        assert summary.histogram == {F(2): 2, F(0): 2, F(-4): 2}
        assert summary.max_value == 2

    def test_rows_beyond_int16_stay_in_range(self):
        # int16 holds outcomes only up to d = 32768; nothing d x d is built
        d = 40000
        summary = bl.sample_strategies(d, 3000, seed=1)
        rows = summary.argmax
        assert rows.dtype == np.int64
        assert len(rows) == summary.argmax_count > 0
        assert rows.min() >= 0 and rows.max() < d
        for row in rows:
            assert bl.strategy_bell_value(row, d) == summary.max_value == 2

    def test_int64_arithmetic_holds_at_the_largest_d(self):
        # outcome sums and numerators reach +-2(d - 1), which int64 holds up
        # to d = 2**62
        assert_extreme_outcomes(2**62, np.int64)

    def test_int32_arithmetic_holds_up_to_the_int32_draw_limit(self):
        # the sampler draws int32 outcomes up to d = 2**30, where the sums
        # +-2(d - 1) still fit in int32
        assert_extreme_outcomes(2**30, np.int32)

    @pytest.mark.parametrize(
        "d, dtype",
        [(2, np.int32), (3, np.int32), (2000, np.int32), (32768, np.int32), (32769, np.int32),
         (2**30, np.int32), (2**30 + 1, np.int64)],
    )
    def test_draw_is_the_int64_stream(self, monkeypatch, d, dtype):
        # int32 while it holds the outcome sums; the stream is the int64 one
        draws = []
        values = _accel.strategy_values

        def record(g, a1, a2, b1, b2):
            draws.append(np.stack((a1, a2, b1, b2), axis=1))
            return values(g, a1, a2, b1, b2)

        monkeypatch.setattr(_accel, "strategy_values", record)
        n = lhv._SAMPLE_CHUNK + 5
        bl.sample_strategies(d, n, seed=7)
        assert {a.dtype for a in draws} == {np.dtype(dtype)}
        expect = np.random.default_rng(7).integers(0, d, size=(n, 4), dtype=np.int64)
        assert np.array_equal(np.concatenate(draws), expect)

    def test_sampling_stops_at_the_int64_bound(self):
        assert bl.sample_strategies(2**62, 2, seed=1).n_strategies == 2
        with pytest.raises(EnumerationSizeError, match="int64"):
            bl.sample_strategies(2**62 + 1, 2, seed=1)


def assert_extreme_outcomes(d, dtype):
    """Every strategy of extreme outcomes, as ``dtype``, against the closed
    form (sum mapping) and Python ints (difference mapping)."""
    ends = np.array([0, 1, d - 2, d - 1], dtype=dtype)
    rows = np.stack(np.meshgrid(ends, ends, ends, ends, indexing="ij"), axis=-1).reshape(-1, 4)
    nums, cases = _accel.strategy_values(bl.OutcomeMapping.sum_mapping(d), *rows.T)
    for row, num, case in zip(rows.tolist(), nums.tolist(), cases.tolist()):
        assert (F(2 * num, d - 1), lhv.CASE_LABELS[case]) == closed_form(row, d)

    def g(a, b):
        return (a - b) % d

    nums, _ = _accel.strategy_values(bl.OutcomeMapping.difference_mapping(d), *rows.T)
    for (a1, a2, b1, b2), num in zip(rows.tolist(), nums.tolist()):
        assert num == (d - 1) + g(a2, b1) - g(a1, b1) - g(a2, b2) - (-g(a1, b2)) % d


def sampled_oracle(d, mapping, n_samples, seed):
    """A sampled summary from mapping.table gathers and np.unique rows."""
    g = mapping.table
    draw = np.random.default_rng(seed).integers(0, d, size=(n_samples, 4), dtype=np.int64)
    a1, a2, b1, b2 = draw.T
    nums = (d - 1) + g[a2, b1] - g[a1, b1] - g[a2, b2] - (-g[a1, b2]) % d
    n1 = (a1 + b1 >= d).astype(int) + (a2 + b2 >= d)
    n2 = (a1 + b2 >= d).astype(int) + (a2 + b1 >= d)
    labels = Counter(ORACLE_CASES[pair] for pair in zip(n1.tolist(), n2.tolist()))
    counts = Counter(nums.tolist())
    rows = np.unique(draw[nums == nums.max()], axis=0).astype(np.int16)
    return lhv.EnumerationSummary(
        d=d,
        mapping=mapping.name,
        method="sampled",
        max_value=F(2 * max(counts), d - 1),
        histogram={F(2 * k, d - 1): counts[k] for k in sorted(counts, reverse=True)},
        case_counts={label: labels[label] for label in sorted(ORACLE_CASES.values())},
        n_strategies=n_samples,
        argmax_count=len(rows),
        argmax_rows=lambda: rows,
        seed=seed,
    )


def random_latin_square(d, rng):
    # row, column and symbol permutations of the cyclic square
    rows, cols, symbols = (rng.permutation(d) for _ in range(3))
    return symbols[np.add.outer(rows, cols) % d]


def assert_oracle_grid(kind, dims):
    rng = np.random.default_rng(5)
    for d in dims:
        if kind == "latin":
            mapping = bl.OutcomeMapping(d, random_latin_square(d, rng), "latin")
        else:
            mapping = getattr(bl.OutcomeMapping, f"{kind}_mapping")(d)
        for seed in (1, 2, 7):
            assert_same_summary(
                bl.sample_strategies(d, 400, seed, mapping), sampled_oracle(d, mapping, 400, seed)
            )


class TestSampledOracle:
    """sample_strategies against table gathers and np.unique(axis=0)."""

    @pytest.mark.parametrize("kind", ["sum", "difference", "latin"])
    def test_matches_gather_and_unique(self, kind):
        assert_oracle_grid(kind, range(2, 41))

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("kind", ["sum", "difference", "latin"])
    def test_small_chunks_match_one_draw(self, monkeypatch, kind, chunk):
        # many chunks hold no maximizing strategy, so later chunks raise the
        # running maximum and drop the rows kept so far; the key store starts
        # empty, so it fills on almost every chunk and is compacted where the
        # maximizing rows repeat (small d) and grows where they do not
        monkeypatch.setattr(lhv, "_SAMPLE_CHUNK", chunk)
        assert_oracle_grid(kind, range(2, 13))

    @pytest.mark.parametrize("d", [3, 40, 2000])
    def test_chunk_boundaries_match_one_draw(self, d):
        chunk = lhv._SAMPLE_CHUNK
        mapping = bl.OutcomeMapping.sum_mapping(d)
        for n in (chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
            assert_same_summary(bl.sample_strategies(d, n, 1, mapping), sampled_oracle(d, mapping, n, 1))

    def test_draw_streams_in_bounded_memory(self):
        # one whole (n, 4) int64 draw alone would take 61 MiB
        tracemalloc.start()
        try:
            summary = bl.sample_strategies(2000, 2_000_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary.n_strategies == 2_000_000
        assert peak < 24 * 2**20

    def test_maximizing_draws_are_kept_as_one_key_each(self):
        # about 334,000 of the 2,000,000 draws maximize, nearly all distinct;
        # kept as int16 rows and made distinct with a lexsort, the call
        # peaked at 12.9 MiB, and with a list of keys and their concatenation
        # at 5.7 MiB; with one store that grows in place it peaks at 4.3 MiB
        tracemalloc.start()
        try:
            summary = bl.sample_strategies(2000, 2_000_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary.argmax_count > 300_000
        assert peak < 5 * 2**20

    def test_repeated_maximizing_draws_are_kept_once(self):
        # about 1.85 million of the 5,000,000 draws maximize, but there are
        # only 30 maximizing rows at d = 3: the store is compacted whenever
        # it fills, so it never outgrows 1.25 chunks' keys (320 KiB)
        tracemalloc.start()
        try:
            summary = bl.sample_strategies(3, 5_000_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary.argmax_count == 30
        assert peak < 2 * 2**20


class TestTopKeys:
    """The store of maximizing rows, driven directly."""

    ROWS = np.array([[2, 1, 0, 0], [0, 0, 0, 1], [1, 2, 2, 2]])

    @pytest.mark.parametrize("d, dtype", [(3, np.int16), (40000, np.int64)])
    def test_repeats_are_compacted_in_place(self, d, dtype):
        top = lhv._TopKeys(d)
        for _ in range(10):
            top.add(self.ROWS)
        # the second add found 3 distinct keys in 3 and grew the store; the
        # fourth, at twice as many keys, dropped the repeats, as every fill
        # has since: 0 -> 3 -> 6 -> 9 keys
        assert len(top.keys) == 9
        assert top.finish() == 3
        assert top.n == len(top.keys) == 3
        rows = top.rows()
        assert rows.dtype == dtype
        assert np.array_equal(rows, np.unique(self.ROWS, axis=0))

    def test_distinct_keys_grow_the_store(self):
        top = lhv._TopKeys(40)
        rows = np.stack(np.unravel_index(np.arange(40**4)[::-997][:100], (40,) * 4), axis=1)
        for lo in range(0, 100, 10):
            top.add(rows[lo : lo + 10])
        # sorted at 10, 30 and 62 keys, and no sort freed anything:
        # 0 -> 10 -> 20 -> 30 -> 40 -> 50 -> 62 -> 77 -> 96 -> 120 keys
        assert top.n == 100
        assert len(top.keys) == 120
        assert top.finish() == 100
        assert np.array_equal(top.rows(), np.unique(rows, axis=0))


def reference_summary(d, mapping):
    """The d**4 reference: every strategy written out, then summarised."""
    nums = np.empty(d**4, np.int16)
    cases = np.empty(d**4, np.int8)
    _accel.fill_strategy_arrays(d, mapping.table, nums, cases, 0, d)
    strategies = np.stack(np.unravel_index(np.arange(d**4), (d,) * 4), axis=1)
    return lhv._summarize(d, mapping, [(strategies, nums, cases)], "exhaustive")


def assert_same_summary(fast, ref):
    # the summaries' max, histogram, case counts and argmax count; the
    # histogram's key order is part of the report too
    assert fast == ref
    assert list(fast.histogram) == list(ref.histogram)
    assert fast.argmax.dtype == ref.argmax.dtype
    assert np.array_equal(fast.argmax, ref.argmax)


class TestBackends:
    """The O(d**2) separable count against the d**4 reference fill."""

    @pytest.mark.parametrize("name", ["sum_mapping", "difference_mapping"])
    def test_separable_count_matches_reference(self, name):
        for d in range(2, 25):
            mapping = getattr(bl.OutcomeMapping, name)(d)
            assert_same_summary(bl.enumerate_strategies(d, mapping), reference_summary(d, mapping))

    @given(st.integers(2, 12), st.data())
    @settings(max_examples=40, deadline=None)
    def test_separable_count_matches_reference_on_latin_squares(self, d, data):
        # row, column and symbol permutations of the cyclic square
        rows, cols, symbols = (np.array(data.draw(st.permutations(range(d)))) for _ in range(3))
        cyclic = np.add.outer(np.arange(d), np.arange(d)) % d
        mapping = bl.OutcomeMapping(d, symbols[cyclic[rows][:, cols]], "latin")
        assert_same_summary(bl.enumerate_strategies(d, mapping), reference_summary(d, mapping))

    @pytest.mark.parametrize("name", ["sum_mapping", "difference_mapping"])
    def test_count_matches_closed_forms(self, name):
        # the float64 histogram product must be exact at every d counted
        for d in range(2, lhv.EXHAUSTIVE_LIMIT + 1):
            summary = bl.enumerate_strategies(d, getattr(bl.OutcomeMapping, name)(d))
            top = d * d * (d + 1) * (d + 2) // 6
            histogram = {F(2): top, F(-2, d - 1): 2 * d * d * (d * d - 1) // 3}
            if d > 2:
                histogram[F(-2 * (d + 1), d - 1)] = d * d * (d - 1) * (d - 2) // 6
            assert summary.histogram == histogram
            assert summary.argmax_count == top
            mixed = d * (d + 2) * (d * d - 1) // 12
            low = d * (d - 2) * (d * d - 1) // 12
            assert summary.case_counts == {
                "Case1i": d * (d + 1) * (d * d + d + 1) // 6,
                "Case1ii": mixed,
                "Case2i": mixed,
                "Case2ii": d * d * (d * d - 1) // 3,
                "Case2iii": low,
                "Case3i": d * (d - 1) * (d * d - d + 1) // 6,
                "Case3ii": low,
            }

    def test_count_takes_o_d2_memory(self):
        # the (d, d, d) outcome arrays and (d**2, 2d - 1) histograms of one
        # whole pass peaked at 20 MiB
        tracemalloc.start()
        try:
            summary = bl.enumerate_strategies(lhv.EXHAUSTIVE_LIMIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary.n_strategies == lhv.EXHAUSTIVE_LIMIT**4
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("name", ["sum_mapping", "difference_mapping"])
    def test_argmax_decodes_within_twice_its_rows(self, name):
        # a decode through int64 indices and rows peaked at 9 times the rows
        d = lhv.EXHAUSTIVE_LIMIT
        mapping = getattr(bl.OutcomeMapping, name)(d)
        summary = bl.enumerate_strategies(d, mapping)
        tracemalloc.start()
        try:
            rows = summary.argmax
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * rows.nbytes
        # as many rows as maximizing strategies, each maximizing, in strictly
        # increasing lexicographic order: every maximizing strategy once
        assert rows.dtype == np.int16 and len(rows) == summary.argmax_count
        outcomes = rows.T.astype(np.int64)
        assert (np.diff(np.ravel_multi_index(outcomes, (d,) * 4)) > 0).all()
        nums, _ = _accel.strategy_values(mapping, *outcomes)
        assert (nums == d - 1).all()

    def test_argmax_rows_are_decoded_on_first_read(self):
        summary = bl.enumerate_strategies(6)
        assert "argmax" not in vars(summary)
        rows = summary.argmax
        assert summary.argmax is rows
        assert len(rows) == summary.argmax_count

    def test_accel_keeps_the_names_perfbench_reads(self):
        # perfbench's environment probe and tracer look these up by name
        assert _accel.HAS_NUMBA is False
        assert _accel.USING_NUMBA is False
        assert callable(_accel.fill_strategy_arrays)

    def test_dispatcher_matches_direct_values(self):
        d = 4
        g = np.add.outer(np.arange(d), np.arange(d)) % d
        num = np.empty(d**4, np.int16)
        case = np.empty(d**4, np.int8)
        _accel.fill_strategy_arrays(d, g, num, case, 0, d)
        for idx, s in enumerate(all_strategies(d)):
            assert (F(2 * int(num[idx]), d - 1), lhv.CASE_LABELS[case[idx]]) == closed_form(s, d)


class TestOneWeightRule:
    """Strategy values read the pair conventions from ``core`` alone."""

    # (PAIR_SIGNS, PAIR_ORIENT): the package's own, then two others
    CONVENTIONS = [
        ((1, 1, -1, 1), (1, -1, 1, 1)),
        ((1, -1, 1, 1), (1, 1, -1, 1)),
        ((-1, 1, 1, 1), (-1, 1, 1, -1)),
    ]

    @pytest.mark.parametrize("signs, orient", CONVENTIONS)
    def test_enumeration_follows_the_pair_conventions(self, signs, orient):
        bl.bell_weights.cache_clear()
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(core, "PAIR_SIGNS", signs)
                patch.setattr(core, "PAIR_ORIENT", orient)
                for d in range(2, 7):
                    rows = np.indices((d,) * 4).reshape(4, -1).T
                    a1, a2, b1, b2 = rows.T
                    w = bl.bell_weights(d)
                    doubled = w[0, 0, a1, b1] + w[0, 1, a1, b2] + w[1, 0, a2, b1] + w[1, 1, a2, b2]
                    assert (doubled % 2 == 0).all()
                    expect = Counter(F(int(x), d - 1) for x in doubled)
                    assert bl.enumerate_strategies(d).histogram == expect
                    assert cli._lhv_cross_identity(rows, d)[0]
        finally:
            bl.bell_weights.cache_clear()


class TestSpinAssembly:
    """Strategy values against the paper's spin assembly, which reads no Bell weights."""

    @pytest.mark.parametrize("d", range(2, 6))
    def test_every_strategy_matches_the_spin_assembly(self, d):
        rng = np.random.default_rng(100 + d)
        mappings = [bl.OutcomeMapping.sum_mapping(d), bl.OutcomeMapping.difference_mapping(d)]
        mappings += [bl.OutcomeMapping(d, random_latin_square(d, rng), "latin") for _ in range(3)]
        rows = np.indices((d,) * 4).reshape(4, -1).T
        for mapping in mappings:
            nums, _ = _accel.strategy_values(mapping, *rows.T)
            for s, num in zip(rows.tolist(), nums.tolist()):
                table = bl.strategy_to_table(s, d)
                assert F(2 * num, d - 1) == bl.bell_from_spin_correlations(table, mapping), (mapping.name, s)
