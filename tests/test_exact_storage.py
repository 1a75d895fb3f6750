"""Exact tables on both sides of the int64 storage limit, and the Bell weight array.

An exact table keeps int64 numerators while its denominator is at most 2**53
and 4(d - 1) * denominator < 2**63, and Python ints otherwise.  Whichever it
keeps, its exact values must equal a pure-``Fraction`` evaluation and its
``p`` the bits of Python-int division.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bell_lab as bl
from bell_lab.errors import NormalizationError, TableFormatError

from conftest import assert_storage_rule, conjugate_second_party, random_table

PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))
SIGN = {(1, 1): 1, (1, 2): 1, (2, 1): -1, (2, 2): 1}
# the reversed pair (1,2) reads its outcome sum negated
ORIENT = {(1, 1): 1, (1, 2): -1, (2, 1): 1, (2, 2): 1}


def _second_bound(d) -> int:
    """The largest denominator with 4(d - 1) * denominator < 2**63."""
    return (2**63 - 1) // (4 * (d - 1))


def _spread(weights, denominator) -> list:
    """Python ints in proportion to ``weights`` (not all zero) that sum to ``denominator``."""
    total = sum(weights)
    nums = [w * denominator // total for w in weights]
    nums[weights.index(max(weights))] += denominator - sum(nums)
    return nums


@st.composite
def storage_cases(draw):
    """(d, numerators as an object array of Python ints, denominator).

    Random, point-mass and uniform pairs, optionally conjugated, over small
    denominators and over denominators just under and over 2**53 and the
    second bound 2**63 / (4(d - 1)).  That bound is below 2**53 from d = 257
    on, so d = 256, 257 and 260 put each bound in charge; their pairs fill a
    few cells only, so the oracle stays fast.
    """
    d = draw(st.sampled_from([2, 3, 4, 5, 7, 12, 256, 257, 260]))
    edges = [2**53 - 1, 2**53, 2**53 + 1, _second_bound(d), _second_bound(d) + 1, 2**64 + 13]
    den = draw(st.sampled_from(edges) | st.integers(1, 10**6))
    kind = draw(st.sampled_from(["random", "point-mass"] + ["uniform"] * (d <= 12)))
    if kind == "uniform":  # the multiple of d * d next to den
        den = d * d * max(1, den // (d * d) + draw(st.integers(0, 1)))
    cell = st.integers(0, d * d - 1)
    pairs = []
    for _ in range(4):
        if kind == "uniform":
            weights = [1] * (d * d)
        elif kind == "random" and d <= 12:
            weights = draw(st.lists(st.integers(0, 9), min_size=d * d, max_size=d * d).filter(any))
        else:
            weights = [0] * (d * d)
            for k in draw(st.lists(cell, min_size=1, max_size=1 if kind == "point-mass" else 6)):
                weights[k] = draw(st.integers(1, 9))
        pairs.append(_spread(weights, den))
    nums = np.array(pairs, dtype=object).reshape(2, 2, d, d)
    if draw(st.booleans()):  # conjugated: second outcome n -> -n
        nums = nums[..., (-np.arange(d)) % d]
    return d, nums, den


def _oracle(nums, den, combine) -> dict:
    """Q_ij of each pair, and the Bell value under "bell", by ``Fraction`` sums over the nonzero entries.

    The weight of entry (m, n) is (S - k) / S with k = (o_ij * combine(m, n)) mod d.
    """
    d = nums.shape[-1]
    values = {}
    for i, j in PAIRS:
        sub = nums[i - 1, j - 1]
        values[i, j] = sum(
            Fraction(d - 1 - 2 * ((ORIENT[i, j] * combine(int(m), int(n))) % d), d - 1) * Fraction(sub[m, n], den)
            for m, n in zip(*np.nonzero(sub))
        )
    values["bell"] = sum(SIGN[key] * values[key] for key in PAIRS)
    return values


def _inputs(nums):
    """``nums`` as every input form that holds its values: object, nested lists, int64, uint64, int32."""
    forms = {"object": nums, "list": nums.tolist()}
    for dtype in (np.int64, np.uint64, np.int32):
        info = np.iinfo(dtype)
        if info.min <= min(nums.flat) and max(nums.flat) <= info.max:
            forms[np.dtype(dtype).name] = nums.astype(dtype)
    return forms


def _is_python_fraction(v) -> bool:
    return type(v) is Fraction and type(v.numerator) is int and type(v.denominator) is int


class TestStorageRule:
    @given(storage_cases())
    @settings(max_examples=60, deadline=None)
    def test_exact_values_and_bits_on_both_sides_of_the_limit(self, case):
        d, nums, den = case
        sums = _oracle(nums, den, lambda m, n: m + n)
        differences = _oracle(nums, den, lambda m, n: m - n)
        quotients = np.array([x / den for x in nums.flat]).tobytes()
        # every input form stores the same numerators, so one table is evaluated
        for form, numerators in _inputs(nums).items():
            t = bl.JointProbabilityTable(d, numerators=numerators)
            assert t.denominator == den, form
            assert_storage_rule(t)
            assert t.numerators.tolist() == nums.tolist()
            assert t.p.tobytes() == quotients
        values = [bl.correlation(t, i, j) for i, j in PAIRS]
        assert values == [sums[key] for key in PAIRS]
        values += [bl.bell_expression(t), bl.bell_from_spin_correlations(t, bl.OutcomeMapping.sum_mapping(d))]
        assert values[-2:] == [sums["bell"]] * 2
        difference = bl.bell_from_spin_correlations(t, bl.OutcomeMapping.difference_mapping(d))
        assert difference == differences["bell"]
        assert all(_is_python_fraction(v) for v in values + [difference])
        if d <= 12:
            # from_fractions puts the entries over the lcm of their reduced denominators
            entries = np.array([Fraction(x, den) for x in nums.flat], dtype=object).reshape(nums.shape)
            t = bl.JointProbabilityTable.from_fractions(entries)
            assert_storage_rule(t)
            assert bl.bell_expression(t) == sums["bell"]
            assert t.p.tobytes() == quotients

    @pytest.mark.parametrize(
        "d, den, dtype",
        [
            (2, 2**53, np.int64),
            (2, 2**53 + 1, object),
            (256, 2**53, np.int64),
            (257, 2**53 - 1, np.int64),
            (257, 2**53, object),
            (260, _second_bound(260), np.int64),
            (260, _second_bound(260) + 1, object),
        ],
    )
    def test_each_bound_decides_the_storage(self, d, den, dtype):
        nums = np.zeros((2, 2, d, d), dtype=object)
        nums[..., 0, 0], nums[..., d - 1, 1] = den - 1, 1
        t = bl.JointProbabilityTable(d, numerators=nums)
        assert t.numerators.dtype == dtype
        assert_storage_rule(t)

    def test_point_masses_and_conjugates_stay_int64(self):
        t = bl.strategy_to_table((1, 2, 0, 2), 3)
        assert t.numerators.dtype == conjugate_second_party(t).numerators.dtype == np.int64
        assert not t.numerators.flags.writeable

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_integer_input_sums_do_not_wrap(self, dtype):
        # pair 11 holds four 2**62 entries and a 1: its 64-bit sum wraps to 1
        nums = np.zeros((2, 2, 3, 3), dtype=dtype)
        nums[..., 0, 0] = 1
        nums[0, 0] = [[2**62, 2**62, 2**62], [2**62, 1, 0], [0, 0, 0]]
        with pytest.raises(NormalizationError, match=f"pair \\(1,2\\) sums to 1/{2**64 + 1}, expected 1"):
            bl.JointProbabilityTable(3, numerators=nums)


@st.composite
def flawed_inputs(draw):
    """(d, flaw, [(form, numerators), ...]): one flawed table in every input form that can hold it."""
    d = draw(st.integers(2, 5))
    den = draw(st.sampled_from([2**53, 2**53 + 1, 2**63]) | st.integers(1, 100))
    weights = draw(st.lists(st.integers(0, 9), min_size=d * d, max_size=d * d).filter(any))
    nums = np.array([_spread(weights, den) for _ in range(4)], dtype=object).reshape(2, 2, d, d)
    flaw = draw(st.sampled_from(["negative", "unequal", "shape", "bool", "float"]))
    k = (draw(st.integers(0, 1)), draw(st.integers(0, 1)))
    cell = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
    m, n = draw(cell)
    if flaw == "negative":
        m2, n2 = draw(cell.filter(lambda c: c != (m, n)))
        nums[k + (m2, n2)] += nums[k + (m, n)] + 1
        nums[k + (m, n)] = -1
    elif flaw == "unequal":
        nums[k + (m, n)] += draw(st.integers(1, 2**64))
    elif flaw == "shape":
        nums = draw(st.sampled_from([nums[..., :-1], nums[:1], np.concatenate([nums, nums[..., :1] * 0], axis=3)]))
    if flaw in ("bool", "float"):
        entry = True if flaw == "bool" else 1.0
        odd = nums.copy()
        odd[k + (m, n)] = entry
        forms = {"object": odd, "list": odd.tolist(), "array": nums.astype(bool if flaw == "bool" else float)}
    else:
        forms = _inputs(nums)
    return d, flaw, forms


class TestFlawParity:
    @given(flawed_inputs())
    @settings(max_examples=150, deadline=None)
    def test_each_flaw_raises_the_same_error_from_every_input(self, case):
        d, flaw, forms = case
        expected = NormalizationError if flaw in ("negative", "unequal") else TableFormatError
        raised = {}
        for form, numerators in forms.items():
            with pytest.raises(expected) as info:
                bl.JointProbabilityTable(d, numerators=numerators)
            raised[form] = str(info.value)
        assert len(set(raised.values())) == 1, raised


def _cglmp_weights(d, e) -> np.ndarray:
    """Folded CGLMP coefficients of orientation e at (m, n), with the second outcome conjugated.

    Coefficient (d - 1) - 2k sits on the difference k * e and its negative on
    (-k - 1) * e, for k < floor(d / 2).  With n read as -n the difference
    m - (-n) is the outcome sum m + n.
    """
    coeff = np.zeros(d, dtype=np.int64)
    for k in range(d // 2):
        coeff[(k * e) % d] = (d - 1) - 2 * k
        coeff[((-k - 1) * e) % d] = -((d - 1) - 2 * k)
    m = np.arange(d)
    return coeff[(m[:, None] - (-m[None, :]) % d) % d]


class TestBellWeights:
    @pytest.mark.parametrize("d", range(2, 65))
    def test_pairs_and_rows(self, d):
        w = bl.bell_weights(d)
        assert w.dtype == np.int64 and w.shape == (2, 2, d, d)
        assert not w.sum(axis=(2, 3)).any()
        # every row of every pair is a permutation of the weights (d - 1) - 2k
        assert (np.sort(w, axis=3) == np.arange(1 - d, d, 2)).all()
        # pair (i, j) is its sign times the spin weights (d - 1) - 2k of k = (o * (m + n)) mod d
        m = np.arange(d)
        for i, j in PAIRS:
            k = (ORIENT[i, j] * (m[:, None] + m)) % d
            assert np.array_equal(w[i - 1, j - 1], SIGN[i, j] * ((d - 1) - 2 * k))

    def test_read_only_and_cached(self):
        w = bl.bell_weights(7)
        assert w is bl.bell_weights(7)
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0, 0, 0, 0] = 0
        assert bl.bell_weights.cache_info().maxsize == 8

    @pytest.mark.parametrize("d", [*range(2, 65), 399, 1000])
    def test_cglmp_coefficients_are_the_kernel(self, d):
        # each pair's kernel is its Bell weights times its sign
        w = bl.bell_weights(d)
        for (i, j) in PAIRS:
            assert np.array_equal(_cglmp_weights(d, ORIENT[i, j]), SIGN[i, j] * w[i - 1, j - 1])

    @given(st.integers(2, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_dot_matches_float_bell_expression_to_tolerance(self, d, seed):
        # only to 1e-12: the dot sums in another order than the four correlations
        t = random_table(d, np.random.default_rng(seed))
        dot = float(np.vdot(t.p, bl.bell_weights(d))) / (d - 1)
        assert abs(dot - bl.bell_expression(t)) < 1e-12
