"""Deterministic-strategy tests.

Histograms, case counts, and example values below were frozen from an
independent exact-arithmetic enumerator before this module was written.
"""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bell_lab as bl
from bell_lab import _accel, lhv
from bell_lab.errors import BellLabError, EnumerationSizeError, SeedError

F = Fraction


def all_strategies(d):
    for s in np.ndindex(d, d, d, d):
        yield tuple(int(x) for x in s)


class TestStrategyValue:
    def test_all_zero_strategy(self):
        for d in (2, 3, 7):
            assert bl.strategy_bell_value((0, 0, 0, 0), d) == 2
            assert bl.classify_strategy((0, 0, 0, 0), d) == "Case1i"

    def test_frozen_examples_d3(self):
        cases = {
            (2, 2, 2, 2): ("Case3i", F(-1)),
            (2, 0, 0, 2): ("Case1ii", F(-4)),
            (1, 0, 0, 2): ("Case1ii", F(-1)),
            (2, 1, 2, 0): ("Case2ii", F(-1)),
        }
        for s, (label, value) in cases.items():
            assert bl.classify_strategy(s, 3) == label
            assert bl.strategy_bell_value(s, 3) == value

    def test_outcome_sums(self):
        assert bl.outcome_sums((1, 2, 3, 4)) == (4, 5, 5, 6)

    def test_sum_identity(self):
        # r11 + r22 = r12 + r21 for every strategy
        for s in all_strategies(3):
            r11, r12, r21, r22 = bl.outcome_sums(s)
            assert r11 + r22 == r12 + r21

    def test_rejects_out_of_range_outcomes(self):
        for evaluate in (bl.strategy_bell_value, bl.classify_strategy, bl.strategy_to_table):
            with pytest.raises(ValueError):
                evaluate((0, 0, 0, 3), 3)
            with pytest.raises(ValueError):
                evaluate((-1, 0, 0, 0), 3)

    @pytest.mark.parametrize("s", [(), (0, 0, 0), (0, 0, 0, 0, 0)])
    def test_rejects_strategies_without_four_outcomes(self, s):
        for evaluate in (bl.strategy_bell_value, bl.classify_strategy, bl.strategy_to_table):
            with pytest.raises(TypeError):
                evaluate(s, 3)

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
        assert value in bl.case_value_set(bl.classify_strategy(s, d), d)


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
            label = bl.classify_strategy(s, 3)
            seen3.setdefault(label, set()).add(bl.strategy_bell_value(s, 3))
        for label, values in seen3.items():
            assert values <= bl.case_value_set(label, 3)
        assert seen3["Case2iii"] == {F(-1)}

        seen4 = {}
        for s in all_strategies(4):
            label = bl.classify_strategy(s, 4)
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
                label = bl.classify_strategy(s, d)
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


# (n1, n2) -> case label, where n1 counts which of a1+b1, a2+b2 reach d and n2
# counts which of a1+b2, a2+b1 do; frozen from classify_strategy
ORACLE_CASES = {
    (0, 0): "Case1i",
    (0, 1): "Case1ii",
    (1, 0): "Case2i",
    (1, 1): "Case2ii",
    (1, 2): "Case2iii",
    (2, 2): "Case3i",
    (2, 1): "Case3ii",
}


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


class TestSampledOracle:
    """sample_strategies against table gathers and np.unique(axis=0)."""

    @pytest.mark.parametrize("kind", ["sum", "difference", "latin"])
    def test_matches_gather_and_unique(self, kind):
        rng = np.random.default_rng(5)
        for d in range(2, 41):
            if kind == "latin":
                mapping = bl.OutcomeMapping(d, random_latin_square(d, rng), "latin")
            else:
                mapping = getattr(bl.OutcomeMapping, f"{kind}_mapping")(d)
            for seed in (1, 2, 7):
                assert_same_summary(
                    bl.sample_strategies(d, 400, seed, mapping), sampled_oracle(d, mapping, 400, seed)
                )


def reference_summary(d, mapping):
    """The d**4 reference: every strategy written out, then summarised."""
    nums = np.empty(d**4, np.int16)
    cases = np.empty(d**4, np.int8)
    _accel.fill_strategy_arrays(d, mapping.table, nums, cases, 0, d)
    strategies = np.stack(np.unravel_index(np.arange(d**4), (d,) * 4), axis=1)
    return lhv._summarize(d, mapping, nums, cases, strategies, "exhaustive")


def assert_same_summary(fast, ref):
    # the summaries' max, histogram, case counts and argmax count; the
    # histogram's key order is part of the report too
    assert fast == ref
    assert list(fast.histogram) == list(ref.histogram)
    assert fast.argmax.dtype == ref.argmax.dtype
    assert np.array_equal(fast.argmax, ref.argmax)


class TestBackends:
    """The O(d**3) separable count against the d**4 reference fill."""

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
            expect = bl.strategy_bell_value(s, d)
            assert F(2 * int(num[idx]), d - 1) == expect
            assert lhv.CASE_LABELS[case[idx]] == bl.classify_strategy(s, d)
