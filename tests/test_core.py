"""Core kernel, table, and expression tests.

Frozen numeric values in this file were computed beforehand with independent
brute-force evaluators (exact rational arithmetic and 40-digit mpmath).
"""

import json
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import bell_lab as bl
from bell_lab import cli, core, lhv
from bell_lab.errors import (
    DimensionError,
    MappingError,
    NormalizationError,
    SeedError,
    TableFormatError,
)

from conftest import assert_storage_rule, random_rational_table, random_table


def weight_direct(x, d) -> Fraction:
    """Kernel weight (S - (x mod d)) / S as a function of the outcome sum x."""
    return Fraction(d - 1 - 2 * (x % d), d - 1)


def weight_reversed(x, d) -> Fraction:
    """Kernel weight ((x mod d) - S - 1) / S used for the reversed setting pair.

    Valid whenever x is not a multiple of d; at multiples of d the reversed
    kernel takes the value 1 instead (its argument -(m + n) wraps to 0).
    """
    return Fraction(2 * (x % d) - d - 1, d - 1)


def _kernel_weight(d, i, j, m, n) -> Fraction:
    """Kernel weight f_ij(m, n) / S from the scalar weights: the reversed pair (1, 2) reads -(m + n)."""
    if (i, j) != (1, 2):
        return weight_direct(m + n, d)
    return weight_reversed(m + n, d) if (m + n) % d else Fraction(1)


def kernel(d) -> np.ndarray:
    """Each pair's kernel numerators 2 * f_ij(m, n) over d - 1: ``bell_weights`` times the pair's sign."""
    return np.reshape(core.PAIR_SIGNS, (2, 2, 1, 1)) * bl.bell_weights(d)


def _fraction_bell_oracle(subs) -> Fraction:
    """Bell value by a Fraction double loop; ``subs`` lists the pairs 11, 12, 21, 22."""
    d = len(subs[0])
    return sum(
        sign * sum(
            _kernel_weight(d, i, j, m, n) * Fraction(sub[m][n])
            for m in range(d)
            for n in range(d)
        )
        for (i, j), sign, sub in zip(core.SETTING_PAIRS, core.PAIR_SIGNS, subs)
    )


def uniform_table(d):
    return bl.JointProbabilityTable.from_fractions(np.full((2, 2, d, d), Fraction(1, d * d), dtype=object))


def point_mass_table(d, m, n):
    """Exact table concentrated on outcomes (m, n) for every setting pair."""
    return lhv.strategy_to_table((m, m, n, n), d)


def relabel(t, a_shift, b_shift):
    """Cyclic relabelling m -> m + a_shift, n -> n + b_shift (mod d), exact parts included."""
    k = np.arange(t.d)
    index = np.ix_(range(2), range(2), (k - a_shift) % t.d, (k - b_shift) % t.d)
    if t.is_exact:
        return bl.JointProbabilityTable(t.d, numerators=t.numerators[index])
    return bl.JointProbabilityTable(t.d, t.p[index])


def _point_masses(dtype, d, cells):
    """Integer table with a 1 at ``cells[k]`` of setting pair k (pairs in order 11, 12, 21, 22)."""
    arr = np.zeros((2, 2, d, d), dtype=dtype)
    for (si, sj), (m, n) in zip(np.ndindex(2, 2), cells):
        arr[si, sj, m, n] = 1
    return arr


def _wrapping_table(dtype):
    """Point masses except pair 11: four 2**62 entries and a 1, which wrap to 1 in 64 bits."""
    arr = _point_masses(dtype, 3, [(0, 0)] * 4)
    arr[0, 0] = [[2**62, 2**62, 2**62], [2**62, 1, 0], [0, 0, 0]]
    return arr


@st.composite
def integer_tables(draw):
    dtype = draw(st.sampled_from([np.int64, np.uint64, np.int8]))
    info = np.iinfo(dtype)
    kind = draw(st.sampled_from(["point-mass", "entries", "shape", "wrap"]))
    if kind == "point-mass":  # includes d = 1
        d = draw(st.integers(1, 5))
        cell = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
        return _point_masses(dtype, d, draw(st.lists(cell, min_size=4, max_size=4)))
    if kind == "entries":  # below 0, above 1, pairs that miss 1
        d = draw(st.integers(1, 4))
        elements = st.integers(max(int(info.min), -2), 2) | st.sampled_from([int(info.min), int(info.max)])
        return draw(hnp.arrays(dtype, (2, 2, d, d), elements=elements))
    if kind == "shape":
        shape = draw(hnp.array_shapes(min_dims=0, max_dims=5, min_side=0, max_side=3))
        return draw(hnp.arrays(dtype, shape, elements=st.integers(0, 1)))
    return _wrapping_table(draw(st.sampled_from([np.int64, np.uint64])))


@st.composite
def exact_tables(draw):
    """Random rational tables, their relabelled and conjugated forms, uniform and point-mass tables."""
    d = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(["random", "relabel", "conjugate", "uniform", "point-mass"]))
    if kind == "uniform":
        return uniform_table(d)
    if kind == "point-mass":
        cell = st.integers(0, d - 1)
        return point_mass_table(d, draw(cell), draw(cell))
    t = random_rational_table(d, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    if kind == "relabel":
        shift = st.integers(-d, 2 * d)
        return relabel(t, draw(shift), draw(shift))
    if kind == "conjugate":
        return t.conjugate_second_party()
    return t


# the error each flaw raises; on the exact routes a NaN is not an entry at all
FLAWS = {
    "unnormalised": NormalizationError,
    "negative": NormalizationError,
    "non-finite": NormalizationError,
    "shape": TableFormatError,
}
NOT_AN_ENTRY = {
    ("exact constructor", "non-finite"): TableFormatError,
    ("from_fractions", "non-finite"): TypeError,
}


@st.composite
def flawed_tables(draw):
    """(d, flaw, denominator, valid numerators, flawed numerators).

    Every setting pair is a permutation of one weight list, so the valid
    numerators share their pair sum.  The flawed copy adds 1 to an entry of
    one pair, moves mass so that an entry is -1, sets an entry to NaN, or is
    made for d + 1 outcomes.
    """
    d = draw(st.integers(2, 8))
    flaw = draw(st.sampled_from(sorted(FLAWS)))
    e = d + 1 if flaw == "shape" else d
    weights = draw(st.lists(st.integers(0, 5), min_size=e * e, max_size=e * e).filter(any))
    pairs = [draw(st.permutations(weights)) for _ in range(4)]
    valid = np.array(pairs, dtype=object).reshape(2, 2, e, e)
    bad = valid.copy()
    k = (draw(st.integers(0, 1)), draw(st.integers(0, 1)))
    cell = st.tuples(st.integers(0, e - 1), st.integers(0, e - 1))
    m, n = draw(cell)
    if flaw == "unnormalised":
        bad[k + (m, n)] += 1
    elif flaw == "negative":
        m2, n2 = draw(cell.filter(lambda c: c != (m, n)))
        bad[k + (m2, n2)] += bad[k + (m, n)] + 1
        bad[k + (m, n)] = -1
    elif flaw == "non-finite":
        bad[k + (m, n)] = float("nan")
    return d, flaw, sum(weights), valid, bad


def _routes(d, den, numerators):
    """Build the table of ``numerators`` over ``den`` by every route.

    Routes that read d from the array get it cut to d columns, so a table for
    d + 1 outcomes reaches them with a shape that does not match its d.
    """
    cut = numerators[..., :d]
    p = np.array([float(x) / den for x in numerators.ravel()]).reshape(numerators.shape)
    doc = {"d": d, "tables": dict(zip(core.PAIR_KEYS, p.reshape(4, *p.shape[2:]).tolist()))}
    fractions = [x if isinstance(x, float) else Fraction(x, den) for x in cut.flat]

    def load():
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.json"
            path.write_text(json.dumps(doc))
            return bl.load_table(path)

    return {
        "constructor": lambda: bl.JointProbabilityTable(d, p),
        "from_array": lambda: bl.JointProbabilityTable.from_array(p[..., :d]),
        "from_json_dict": lambda: bl.JointProbabilityTable.from_json_dict(doc),
        "load_table": load,
        "exact constructor": lambda: bl.JointProbabilityTable(d, numerators=numerators),
        "from_fractions": lambda: bl.JointProbabilityTable.from_fractions(
            np.array(fractions, dtype=object).reshape(cut.shape)
        ),
    }


def _exact_build(tables):
    """What from_fractions makes of ``tables``: its exact parts, or the error it raises."""
    try:
        t = bl.JointProbabilityTable.from_fractions(tables)
    except Exception as exc:
        return type(exc), str(exc)
    assert_storage_rule(t)
    return t.d, t.numerators.tolist(), t.denominator, t.p.shape, t.p.tobytes()


class TestScalars:
    def test_check_dimension_accepts_integers(self):
        assert bl.check_dimension(2) == 2
        assert bl.check_dimension(np.int64(7)) == 7

    @pytest.mark.parametrize("bad", [1, 0, -3, 2.5, "3", True])
    def test_check_dimension_rejects(self, bad):
        with pytest.raises((DimensionError, TypeError)):
            bl.check_dimension(bad)

    @pytest.mark.parametrize("seed", [True, False])
    def test_seeded_rng_refuses_bools(self, seed):
        # as check_dimension does; True used to seed with 1
        with pytest.raises(SeedError, match="seed must be a non-negative integer"):
            core.seeded_rng(seed)

    def test_spin_is_half_of_d_minus_one(self):
        assert bl.spin(2) == Fraction(1, 2)
        assert bl.spin(3) == 1
        assert bl.spin(8) == Fraction(7, 2)


class TestKernel:
    def test_direct_weight_values_d3(self):
        assert [weight_direct(x, 3) for x in range(3)] == [1, 0, -1]

    def test_reversed_weight_values_d3(self):
        # valid away from multiples of d
        assert weight_reversed(1, 3) == -1
        assert weight_reversed(2, 3) == 0
        assert weight_reversed(4, 3) == -1

    def test_kernel_matches_scalar_weights(self):
        # the lone reversed pair is (1, 2), whose orientation flips m + n
        for d in (2, 3, 5):
            kern = kernel(d)
            for m in range(d):
                for n in range(d):
                    weight = {(i, j): Fraction(int(kern[i - 1, j - 1, m, n]), d - 1) for i, j in core.SETTING_PAIRS}
                    assert weight[1, 1] == weight_direct(m + n, d)
                    assert weight[2, 1] == weight_direct(m + n, d)
                    assert weight[2, 2] == weight_direct(m + n, d)
                    if (m + n) % d:
                        assert weight[1, 2] == weight_reversed(m + n, d)
                    else:
                        assert weight[1, 2] == 1
                    assert all(weight[i, j] == _kernel_weight(d, i, j, m, n) for i, j in core.SETTING_PAIRS)

    def test_kernel_d2_is_chsh_sign_table(self):
        d = 2
        w = kernel(d) / (d - 1)
        for i, j in core.SETTING_PAIRS:
            expect = np.array([[1.0, -1.0], [-1.0, 1.0]])
            assert np.array_equal(w[i - 1, j - 1], expect)

    @given(st.integers(2, 30))
    @settings(max_examples=25, deadline=None)
    def test_kernel_rows_and_columns_sum_to_zero(self, d):
        kern = kernel(d)
        for i, j in core.SETTING_PAIRS:
            num = kern[i - 1, j - 1]
            assert num.sum(axis=0).max() == 0 == num.sum(axis=0).min()
            assert num.sum(axis=1).max() == 0 == num.sum(axis=1).min()

    @given(st.integers(2, 30))
    @settings(max_examples=25, deadline=None)
    def test_kernel_rows_hold_every_weight_once(self, d):
        kern = kernel(d)
        expect = np.sort(d - 1 - 2 * np.arange(d))
        for i, j in core.SETTING_PAIRS:
            for m in range(d):
                assert np.array_equal(np.sort(kern[i - 1, j - 1, m]), expect)

    def test_kernel_is_the_sum_mappings_spin_weights(self):
        for d in (2, 3, 8):
            weights = bl.bell_weights(d)
            assert weights is bl.bell_weights(d)
            assert weights.dtype == np.int64 and weights.shape == (2, 2, d, d)
            assert not weights.flags.writeable
            kern = kernel(d)
            g = bl.OutcomeMapping.sum_mapping(d).table
            for (i, j), o in zip(core.SETTING_PAIRS, core.PAIR_ORIENT):
                # weight 2 * (S - k) of the spin projection S - k, k = (o * g) mod d
                assert np.array_equal(kern[i - 1, j - 1], (d - 1) - 2 * ((o * g) % d))

    def test_kernel_cache_is_bounded(self):
        for d in range(2, 60):
            bl.bell_weights(d)
        info = bl.bell_weights.cache_info()
        assert info.maxsize == 8 and info.currsize == 8
        assert bl.bell_weights(59) is bl.bell_weights(59)

    def test_check_builds_its_kernel_once(self, capsys):
        bl.bell_weights.cache_clear()
        assert cli.run(["check", "--d", "16"]) == 0
        capsys.readouterr()
        assert bl.bell_weights.cache_info().misses == 1

    def test_kernel_depends_only_on_sum_mod_d(self):
        kern = kernel(7)
        for i, j in core.SETTING_PAIRS:
            num = kern[i - 1, j - 1]
            for m in range(7):
                for n in range(7):
                    assert num[m, n] == num[(m + 3) % 7, (n - 3) % 7]


class TestOutcomeMapping:
    def test_sum_mapping(self):
        g = bl.OutcomeMapping.sum_mapping(4)
        assert g(1, 2) == 3
        assert g(3, 3) == 2
        assert g.name == "sum"

    def test_difference_mapping(self):
        g = bl.OutcomeMapping.difference_mapping(4)
        assert g(1, 2) == 3
        assert g(2, 1) == 1

    @pytest.mark.parametrize("name, expect", [("sum_mapping", 4), ("difference_mapping", 10**30 - 6)])
    def test_named_mappings_take_python_ints_of_any_size(self, name, expect):
        # np.add and np.subtract raise OverflowError on ints beyond int64
        assert getattr(bl.OutcomeMapping, name)(10**30)(10**30 - 1, 5) == expect

    def test_rejects_non_latin_square(self):
        with pytest.raises(MappingError):
            bl.OutcomeMapping(2, ((0, 0), (1, 1)), "broken")

    def test_rejects_out_of_range_values(self):
        with pytest.raises(MappingError):
            bl.OutcomeMapping(2, ((0, 3), (3, 0)), "broken")

    def test_custom_latin_square_accepted(self):
        table = ((1, 0, 2), (0, 2, 1), (2, 1, 0))
        g = bl.OutcomeMapping(3, table, "custom")
        assert g(2, 1) == 1
        assert np.array_equal(g(np.array([0, 1, 2]), 0), [1, 0, 2])

    @pytest.mark.parametrize("name, op", [("sum_mapping", np.add), ("difference_mapping", np.subtract)])
    def test_named_table_is_built_on_first_read(self, name, op):
        d = 9
        g = getattr(bl.OutcomeMapping, name)(d)
        assert not [v for v in vars(g).values() if isinstance(v, np.ndarray)]
        table = g.table
        a, b = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
        assert table.dtype == np.int64
        assert np.array_equal(table, op(a, b) % d)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1
        assert g.table is table

    @given(st.sampled_from([("sum_mapping", np.add), ("difference_mapping", np.subtract)]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_named_evaluation_equals_table_gather(self, named, data):
        name, op = named
        d = data.draw(st.integers(2, 50))
        a = np.array(data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=20)))
        b = np.array(data.draw(st.lists(st.integers(0, d - 1), min_size=len(a), max_size=len(a))))
        g = getattr(bl.OutcomeMapping, name)(d)
        rows, cols = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
        full = op(rows, cols) % d
        expect = full[a, b]
        assert np.array_equal(g(a, b), expect)
        assert np.array_equal(g(a[:, None], b), full[a[:, None], b])
        assert g(int(a[0]), int(b[0])) == expect[0]
        assert np.array_equal(g.table[a, b], expect)


def fraction_rational_table(d, rng):
    """``random_rational_table``'s four draws as ``Fraction`` entries w / total, through ``from_fractions``."""
    pairs = []
    for _ in range(4):
        weights = rng.integers(1, 10, size=(d, d))
        total = int(weights.sum())
        pairs.append([[Fraction(int(w), total) for w in row] for row in weights])
    return bl.JointProbabilityTable.from_fractions([pairs[:2], pairs[2:]])


class TestRandomRationalTable:
    @pytest.mark.parametrize("d", [*range(2, 65), 256])
    def test_numerators_are_the_fraction_builds(self, d):
        for seed in range(5 if d <= 64 else 1):
            t = random_rational_table(d, np.random.default_rng(seed))
            oracle = fraction_rational_table(d, np.random.default_rng(seed))
            assert t.denominator == oracle.denominator
            assert t.numerators.dtype == oracle.numerators.dtype
            assert np.array_equal(t.numerators, oracle.numerators)
            assert np.array_equal(t.p, oracle.p)

    def test_pairs_with_a_common_factor(self):
        # random draws almost never share a factor; these pairs share 2, 3, 6 and none
        class Draws:
            def __init__(self):
                self.pairs = iter([[[2, 4], [6, 8]], [[3, 9], [6, 3]], [[6, 6], [6, 6]], [[1, 2], [3, 4]]])

            def integers(self, low, high, size):
                return np.array(next(self.pairs), dtype=np.int64)

        t, oracle = random_rational_table(2, Draws()), fraction_rational_table(2, Draws())
        assert t.denominator == oracle.denominator == 140  # lcm(20 // 2, 21 // 3, 24 // 6, 10)
        assert np.array_equal(t.numerators, oracle.numerators)

    def test_later_draws_do_not_move(self):
        rng, oracle_rng = np.random.default_rng(9), np.random.default_rng(9)
        random_rational_table(12, rng), fraction_rational_table(12, oracle_rng)
        assert rng.integers(2**62) == oracle_rng.integers(2**62)


class TestJointProbabilityTable:
    def test_from_array_shape_validation(self):
        with pytest.raises(TableFormatError):
            bl.JointProbabilityTable.from_array(np.zeros((2, 2, 3, 2)))

    def test_from_array_rejects_negative(self):
        x = np.full((2, 2, 2, 2), 0.25)
        x[0, 0, 0, 0] = -0.25
        x[0, 0, 1, 1] = 0.75
        with pytest.raises(NormalizationError):
            bl.JointProbabilityTable.from_array(x)

    def test_from_array_rejects_bad_sum(self):
        x = np.full((2, 2, 2, 2), 0.3)
        with pytest.raises(NormalizationError):
            bl.JointProbabilityTable.from_array(x)

    def test_uniform_and_point_mass(self):
        u = uniform_table(3)
        assert u.is_exact
        assert Fraction(u.numerators[0, 0, 2, 2], u.denominator) == Fraction(1, 9)
        p = point_mass_table(3, 1, 2)
        assert p.p[0, 0, 1, 2] == 1.0
        assert p.numerators[1, 0, 1, 2] == p.denominator == 1

    @pytest.mark.parametrize("m, n", [(-1, 0), (3, 0), (0, -1), (0, 3)])
    def test_point_mass_rejects_outcomes_out_of_range(self, m, n):
        # a point mass is the table of the strategy (m, m, n, n): the range
        # check is strategy_to_table's
        with pytest.raises(DimensionError):
            point_mass_table(3, m, n)

    def test_tables_compare_and_hash_by_identity(self):
        # generated field-wise, == raised ValueError on the arrays and hash TypeError
        t, same = bl.born_table(3), bl.born_table(3)
        assert t == t and t != same
        assert hash(t) == hash(t)
        assert len({t, same, t}) == 2
        assert uniform_table(3) != uniform_table(3)

    def test_from_fractions_rejects_ragged_and_float_entries(self):
        half = Fraction(1, 2)
        ragged = (((half, half), (Fraction(0),)),) * 2
        with pytest.raises(TableFormatError):
            bl.JointProbabilityTable.from_fractions((ragged, ragged))
        floats = (((0.5, 0.5), (0.0, 0.0)),) * 2
        with pytest.raises(TypeError):
            bl.JointProbabilityTable.from_fractions((floats, floats))

    def test_denominator_above_int64_is_exact(self):
        # four primes near 2**32: their lcm is about 2**128
        primes = (4294967291, 4294967279, 4294967231, 4294967197)
        subs = [
            ((Fraction(1, q), Fraction(2, q), Fraction(0)),
             (Fraction(0), 1 - Fraction(3, q), Fraction(0)),
             (Fraction(0), Fraction(0), Fraction(0)))
            for q in primes
        ]
        t = bl.JointProbabilityTable.from_fractions((subs[:2], subs[2:]))
        assert t.denominator == np.prod([Fraction(q) for q in primes]) > 2**63
        assert t.numerators.dtype == object
        assert bl.bell_expression(t) == _fraction_bell_oracle(subs)

    def test_from_fractions_requires_exact_normalization(self):
        half = Fraction(1, 2)
        good = tuple(
            tuple(((half, Fraction(0)), (Fraction(0), half)) for _ in range(2))
            for _ in range(2)
        )
        t = bl.JointProbabilityTable.from_fractions(good)
        assert t.is_exact
        bad = tuple(
            tuple(((half, Fraction(0)), (Fraction(0), Fraction(1, 3))) for _ in range(2))
            for _ in range(2)
        )
        with pytest.raises(NormalizationError):
            bl.JointProbabilityTable.from_fractions(bad)
        # integers are probabilities too: pairs of all-ones sum to 4, not 1
        with pytest.raises(NormalizationError):
            bl.JointProbabilityTable.from_fractions(np.ones((2, 2, 2, 2), dtype=np.int64))

    @given(integer_tables())
    @settings(max_examples=300, deadline=None)
    def test_integer_array_path_matches_general_path(self, arr):
        # Python ints take the entry-by-entry path; a zero-length axis drops
        # the axes after it from tolist(), an object array keeps them
        general = arr.tolist() if arr.size else arr.astype(object)
        assert _exact_build(arr) == _exact_build(general)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_integer_pair_sums_do_not_wrap(self, dtype):
        arr = _wrapping_table(dtype)
        assert arr[0, 0].sum() == 1  # numpy's own sum wraps around
        with pytest.raises(NormalizationError, match=f"sums to {2**64 + 1}, expected 1"):
            bl.JointProbabilityTable.from_fractions(arr)

    def test_integer_array_is_copied_read_only(self):
        arr = _point_masses(np.int64, 2, [(0, 1)] * 4)
        t = bl.JointProbabilityTable.from_fractions(arr)
        arr[0, 0, 0, 1] = 0
        assert t.numerators[0, 0, 0, 1] == t.denominator == 1
        assert not t.numerators.flags.writeable and not t.p.flags.writeable

    def test_denominator_is_read_from_the_numerators(self, rng):
        t = random_rational_table(5, rng)
        direct = bl.JointProbabilityTable(t.d, numerators=t.numerators)
        assert direct.denominator == t.denominator == int(t.numerators[0, 0].sum())
        assert direct.p.tobytes() == t.p.tobytes()
        assert bl.bell_expression(direct) == bl.bell_expression(t)
        assert bl.JointProbabilityTable(t.d, t.p).denominator is None
        # neither the denominator nor a second copy of the entries is an argument
        with pytest.raises(TypeError):
            bl.JointProbabilityTable(t.d, None, t.numerators, 1)
        with pytest.raises(TypeError):
            bl.JointProbabilityTable(t.d, t.p, t.numerators)

    def test_denormalized_pair_rejected_at_construction(self):
        x = np.full((2, 2, 2, 2), 0.25)
        bl.JointProbabilityTable(2, x.copy(), None)
        x2 = x.copy()
        x2[1, 0] *= 1.001
        with pytest.raises(NormalizationError):
            bl.JointProbabilityTable(2, x2, None)

    def test_json_round_trip_preserves_entries(self, rng):
        t = random_table(4, rng)
        back = bl.JointProbabilityTable.from_json_dict(t.to_json_dict())
        assert np.abs(back.p - t.p).max() < 1e-14

    def test_json_dict_shape(self, rng):
        obj = random_table(3, rng).to_json_dict()
        assert obj["d"] == 3
        assert set(obj["tables"]) == {"11", "12", "21", "22"}
        assert len(obj["tables"]["21"]) == 3

    def test_from_json_dict_validation(self):
        with pytest.raises(TableFormatError):
            bl.JointProbabilityTable.from_json_dict({"d": 2})
        with pytest.raises(TableFormatError):
            bl.JointProbabilityTable.from_json_dict({"d": 2, "tables": {"11": [[1, 0], [0, 0]]}})

    def test_load_table_errors(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("not json")
        with pytest.raises(TableFormatError):
            bl.load_table(path)

    def test_conjugate_second_party_is_involution(self, rng):
        t = random_table(4, rng)
        back = t.conjugate_second_party().conjugate_second_party()
        assert np.array_equal(back.p, t.p)
        for d in (2, 3, 5, 8):
            t = random_rational_table(d, rng)
            back = t.conjugate_second_party().conjugate_second_party()
            assert np.array_equal(back.numerators, t.numerators) and back.denominator == t.denominator

    @given(flawed_tables())
    @settings(max_examples=120, deadline=None)
    def test_every_route_checks_the_table(self, case):
        d, flaw, den, valid, bad = case
        e = valid.shape[-1]
        for route, build in _routes(e, den, valid).items():
            t = build()
            assert t.d == e and not t.p.flags.writeable, route
            if t.is_exact:
                entries = [Fraction(x, t.denominator) for x in t.numerators.flat]
                assert entries == [Fraction(x, den) for x in valid.flat]
            for u in (t, t.conjugate_second_party()):
                if u.is_exact:
                    assert u.p.tobytes() == (u.numerators / u.denominator).astype(float).tobytes()
        for route, build in _routes(d, den, bad).items():
            with pytest.raises(NOT_AN_ENTRY.get((route, flaw), FLAWS[flaw])):
                build()

    def test_tables_that_evaluators_used_to_take(self):
        # edited numerators used to sit next to the p of the original table
        t = point_mass_table(3, 0, 0)
        edited = t.numerators.copy()
        edited[1, 1, 0, 0], edited[1, 1, 0, 1] = 0, 1
        with pytest.raises(TypeError):
            bl.JointProbabilityTable(3, t.p, edited)
        u = bl.JointProbabilityTable(3, numerators=edited)
        assert bl.bell_expression(u) == bl.bell_expression(bl.JointProbabilityTable.from_array(u.p)) == 1
        edited[1, 1, 0, 1] = 2
        with pytest.raises(NormalizationError):
            bl.JointProbabilityTable(3, numerators=edited)
        # a -0.75 entry in a pair that sums to 1
        x = np.full((2, 2, 2, 2), 0.25)
        x[0, 0, 0, 0], x[0, 0, 1, 1] = -0.75, 1.25
        with pytest.raises(NormalizationError, match="negative"):
            bl.JointProbabilityTable(2, x)
        # 2 x 2 pairs given as a d = 3 table
        with pytest.raises(TableFormatError):
            bl.JointProbabilityTable(3, np.full((2, 2, 2, 2), 0.25))


class TestCorrelationAndBell:
    def test_uniform_table_scores_zero_exactly(self):
        for d in (2, 3, 6):
            v = bl.bell_expression(uniform_table(d))
            assert v == 0 and type(v) is Fraction

    def test_point_mass_values(self):
        # all outcomes zero: every pair contributes weight 1, signs 1+1-1+1
        t = point_mass_table(3, 0, 0)
        assert bl.bell_expression(t) == 2

    def test_exact_and_float_paths_agree(self, rng):
        for d in (2, 3, 5):
            t = random_rational_table(d, rng)
            exact = bl.bell_expression(t)
            floats = bl.bell_expression(bl.JointProbabilityTable.from_array(t.p))
            assert type(exact) is Fraction
            assert type(floats) is float
            assert abs(float(exact) - floats) < 1e-12

    @given(st.integers(2, 8), st.integers(0, 2**32), st.data())
    @settings(max_examples=40, deadline=None)
    def test_value_types_follow_the_table(self, d, seed, data):
        rng = np.random.default_rng(seed)
        s = tuple(data.draw(st.integers(0, d - 1)) for _ in range(4))
        mapping = bl.OutcomeMapping.sum_mapping(d)

        def values(t):
            kind = Fraction if t.is_exact else float
            out = [bl.correlation(t, i, j) for i, j in core.SETTING_PAIRS]
            out += [bl.cglmp_correlation(t, i, j) for i, j in core.SETTING_PAIRS]
            out += [bl.bell_expression(t), bl.bell_from_spin_correlations(t, mapping), bl.cglmp_expression(t)]
            assert all(type(v) is kind for v in out)
            return out

        values(random_table(d, rng))
        for t in (random_rational_table(d, rng), bl.strategy_to_table(s, d)):
            exact = values(t)
            floats = values(bl.JointProbabilityTable.from_array(t.p))
            assert max(abs(f - float(e)) for e, f in zip(exact, floats)) < 1e-12
        value = bl.strategy_bell_value(s, d)
        assert type(value) is Fraction
        assert value == bl.bell_expression(bl.strategy_to_table(s, d))

    @given(st.integers(2, 8), st.integers(0, 7), st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_opposite_relabeling_is_a_symmetry(self, d, c_a, c_b):
        # shifting both outcomes by (c, -c) preserves every m+n residue
        rng = np.random.default_rng(d * 64 + c_a * 8 + c_b)
        t = random_rational_table(d, rng)
        shifted = relabel(t, c_a % d, (-c_a) % d)
        assert bl.bell_expression(shifted) == bl.bell_expression(t)

    @given(st.integers(2, 8), st.integers(-9, 9), st.integers(-9, 9), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_exact_representation_matches_fraction_oracle(self, d, a_shift, b_shift, seed):
        rng = np.random.default_rng(seed)
        subs = []
        for _ in range(4):
            weights = rng.integers(1, 20, size=(d, d)).tolist()
            total = sum(map(sum, weights))
            subs.append([[Fraction(w, total) for w in row] for row in weights])
        t = bl.JointProbabilityTable.from_fractions((subs[:2], subs[2:]))
        same = list(range(d))
        cases = (
            (t, same, same),
            (relabel(t, a_shift, b_shift),
             [(m - a_shift) % d for m in same], [(n - b_shift) % d for n in same]),
            (t.conjugate_second_party(), same, [(-n) % d for n in same]),
        )
        for u, rows, cols in cases:
            # entry (m, n) of u is entry (rows[m], cols[n]) of t
            moved = [[[sub[r][c] for c in cols] for r in rows] for sub in subs]
            exact = [
                [[Fraction(x, u.denominator) for x in row] for row in u.numerators[i - 1, j - 1]]
                for i, j in core.SETTING_PAIRS
            ]
            assert exact == moved
            assert np.array_equal((u.numerators / u.denominator).astype(float), u.p)
            assert bl.bell_expression(u) == _fraction_bell_oracle(moved)

    def test_correlation_weights_match_manual_sum(self, rng):
        d = 4
        t = random_table(d, rng)
        kern = kernel(d)
        for i, j in core.SETTING_PAIRS:
            manual = sum(
                kern[i - 1, j - 1, m, n] / (d - 1) * t.p[i - 1, j - 1, m, n]
                for m in range(d)
                for n in range(d)
            )
            assert abs(bl.correlation(t, i, j) - manual) < 1e-12

    @given(exact_tables())
    @settings(max_examples=60, deadline=None)
    def test_exact_pair_values_combine_one_way(self, t):
        for i, j in core.SETTING_PAIRS:
            assert type(t.denominator) is int
            assert int(t.numerators[i - 1, j - 1].sum()) == t.denominator
        value = bl.bell_expression(t)
        paired = sum(
            s * bl.correlation(t, i, j) for (i, j), s in zip(core.SETTING_PAIRS, core.PAIR_SIGNS)
        )
        assert value == paired
        assert value == bl.bell_from_spin_correlations(t, bl.OutcomeMapping.sum_mapping(t.d))

    # the d at which every pair's float product sum of the uniform table cancels to 0.0
    UNIFORM_ZERO_D = (2, 3, 4, 8, 11, 12, 16, 32, 33, 35, 64)

    @pytest.mark.parametrize("d", range(2, 65))
    def test_uniform_float_correlations_are_never_negative_zero(self, d):
        # the sign of Q_21 multiplies the integer weights; a float negation
        # of the sum would print -0.0
        t = bl.JointProbabilityTable.from_array(np.full((2, 2, d, d), 1.0 / d**2))
        reprs = [repr(bl.correlation(t, i, j)) for i, j in core.SETTING_PAIRS]
        assert "-0.0" not in reprs
        if d in self.UNIFORM_ZERO_D:
            assert reprs == ["0.0"] * 4

    def test_bell_combination_signs(self, rng):
        t = random_table(3, rng)
        q = {(i, j): bl.correlation(t, i, j) for i, j in core.SETTING_PAIRS}
        combo = q[1, 1] + q[1, 2] - q[2, 1] + q[2, 2]
        assert abs(bl.bell_expression(t) - combo) < 1e-12


class TestSpinAssembly:
    def test_mapped_distribution_buckets_probability(self, rng):
        d = 4
        t = random_table(d, rng)
        g = bl.OutcomeMapping.sum_mapping(d)
        dist = bl.mapped_spin_distribution(t, 1, 2, g)
        manual = np.zeros(d)
        for m in range(d):
            for n in range(d):
                manual[g(m, n)] += t.p[0, 1, m, n]
        assert np.abs(dist - manual).max() < 1e-15
        assert abs(dist.sum() - 1.0) < 1e-12

    def test_reversed_sign_buckets(self, rng):
        d = 3
        t = random_table(d, rng)
        g = bl.OutcomeMapping.sum_mapping(d)
        dist = core._mapped_distribution(t.subtable(2, 1), g, -1)
        manual = np.zeros(d)
        for m in range(d):
            for n in range(d):
                manual[(-g(m, n)) % d] += t.p[1, 0, m, n]
        assert np.abs(dist - manual).max() < 1e-15

    def test_spin_assembly_equals_kernel_exactly(self, rng):
        g = None
        for d in (2, 3, 5, 7):
            g = bl.OutcomeMapping.sum_mapping(d)
            t = random_rational_table(d, rng)
            assert bl.bell_from_spin_correlations(t, g) == bl.bell_expression(t)

    @pytest.mark.parametrize("mapping_d", [4, 2])
    def test_exact_assembly_rejects_mapping_of_other_size(self, mapping_d):
        with pytest.raises(MappingError):
            bl.bell_from_spin_correlations(
                uniform_table(3), bl.OutcomeMapping.sum_mapping(mapping_d)
            )

    def test_spin_assembly_with_difference_equals_cglmp(self, rng):
        for d in (2, 3, 4, 6):
            g = bl.OutcomeMapping.difference_mapping(d)
            t = random_table(d, rng)
            assembled = bl.bell_from_spin_correlations(t, g)
            assert abs(assembled - bl.cglmp_expression(t)) < 1e-12


class TestCglmpPieces:
    def test_difference_probability(self, rng):
        d = 5
        t = random_table(d, rng)
        for c in range(-2, 3):
            manual = sum(t.p[0, 0, m, (m - c) % d] for m in range(d))
            assert abs(bl.difference_probability(t, 1, 1, c) - manual) < 1e-14

    def test_difference_distribution_is_the_per_c_loop(self, rng):
        # the gather must sum each diagonal in the same order as the loop, bit for bit
        for d in list(range(2, 20)) + [31, 64]:
            t = random_table(d, rng)
            rows = np.arange(d)
            for i, j in core.SETTING_PAIRS:
                p = t.subtable(i, j)
                loop = [float(p[rows, (rows - c) % d].sum()) for c in range(d)]
                assert bl.difference_distribution(t, i, j).tolist() == loop
                for c in range(-d, 2 * d):
                    assert bl.difference_probability(t, i, j, c) == loop[c % d]

    def test_cglmp_correlation_is_the_per_c_loop(self, rng):
        def loop_correlation(t, i, j, e):
            p, d = t.subtable(i, j), t.d
            rows = np.arange(d)

            def prob(c):
                return float(p[rows, (rows - c) % d].sum())

            total = 0.0
            for k in range(d // 2):
                total += (1.0 - 2.0 * k / (d - 1)) * (prob(k * e) - prob((-k - 1) * e))
            return total

        for d in list(range(2, 20)) + [31, 64]:
            t = random_table(d, rng)
            for (i, j), e in zip(core.SETTING_PAIRS, core.PAIR_ORIENT):
                assert bl.cglmp_correlation(t, i, j) == loop_correlation(t, i, j, e)

    def test_cglmp_d2_collapses_to_chsh_correlation(self, rng):
        t = random_table(2, rng)
        for i, j in core.SETTING_PAIRS:
            sig = -1 if (i, j) == (2, 1) else 1
            expect = bl.difference_probability(t, i, j, 0) - bl.difference_probability(
                t, i, j, sig
            )
            assert abs(bl.cglmp_correlation(t, i, j) - expect) < 1e-14


def loop_fold(diff, e) -> float:
    """The CGLMP fold of one difference distribution as a loop over k, from 0.0."""
    diff, d = diff.tolist(), len(diff)
    total = 0.0
    for k in range(d // 2):
        coeff = 1.0 - 2.0 * k / (d - 1)
        total += coeff * (diff[(k * e) % d] - diff[((-k - 1) * e) % d])
    return total


class TestCglmpFold:
    def test_fold_is_the_loop_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        for d in [*range(2, 601), 1000, 2000]:
            rows = np.concatenate([bl.sum_distributions(d).reshape(4, d), rng.random((2, d))])
            orients = [*core.PAIR_ORIENT, 1, -1]
            assert core._cglmp_fold(rows, orients) == [loop_fold(q, e) for q, e in zip(rows, orients)]
            for e in (1, -1):
                assert core._cglmp_fold(rows, [e] * len(rows)) == [loop_fold(q, e) for q in rows]

    def test_scan_column_is_the_fold_of_the_sum_distributions(self):
        for row in bl.scan_dimensions(40).rows:
            dists = bl.sum_distributions(row.d).reshape(4, row.d)
            folds = [loop_fold(q, e) for q, e in zip(dists, core.PAIR_ORIENT)]
            assert row.cglmp_value == folds[0] + folds[1] - folds[2] + folds[3]


class TestExactCglmp:
    """The paper's second set of correlation functions, CGLMP's, as an exact identity."""

    @pytest.mark.parametrize("d", range(2, 13))
    def test_conjugated_cglmp_is_the_bell_value_on_rational_tables(self, d):
        rng = np.random.default_rng(d)
        for _ in range(3):
            t = random_rational_table(d, rng)
            u = t.conjugate_second_party()
            value = bl.cglmp_expression(u)
            assert type(value) is Fraction and value == bl.bell_expression(t)
            for i, j in core.SETTING_PAIRS:
                q = bl.cglmp_correlation(u, i, j)
                assert type(q) is Fraction and q == bl.correlation(t, i, j)

    @pytest.mark.parametrize("d", range(2, 6))
    def test_conjugated_cglmp_is_the_bell_value_on_every_point_mass_table(self, d):
        for s in np.ndindex(d, d, d, d):
            t = bl.strategy_to_table(s, d)
            assert bl.cglmp_expression(t.conjugate_second_party()) == bl.bell_expression(t)


class TestQutritComplexForm:
    def test_rejects_other_dimensions(self, rng):
        with pytest.raises(DimensionError):
            bl.qutrit_complex_correlation(random_table(4, rng), 1, 1)

    def test_recombination_matches_kernel(self, rng):
        for _ in range(20):
            t = random_table(3, rng)
            for i, j in core.SETTING_PAIRS:
                moment, recombined = bl.qutrit_complex_correlation(t, i, j)
                assert isinstance(moment, complex)
                assert abs(recombined - bl.correlation(t, i, j)) < 1e-12

    def test_moment_is_unit_bounded(self, rng):
        t = random_table(3, rng)
        moment, _ = bl.qutrit_complex_correlation(t, 1, 1)
        assert abs(moment) <= 1 + 1e-12
