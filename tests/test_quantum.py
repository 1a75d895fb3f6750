"""Quantum-side tests.

Frozen constants were produced by a 40-digit mpmath brute-force evaluator
(state construction, basis build, amplitude squaring) run before this package
existed, plus closed-form radicals where small d admits them.
"""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bell_lab as bl
from bell_lab import core
from bell_lab.errors import DimensionError, NormalizationError, SingularAngleError
from conftest import conjugate_second_party, sequential_born_table, sum_amplitude_table

# 40-digit brute force, rounded; d=2,3,4 also match the radical forms
FROZEN_Q = {2: 0.7071067812, 3: 0.7182335128, 4: 0.7240608046}
FROZEN_I = {2: 2.8284271247, 3: 2.8729340512, 4: 2.8962432185}


class TestStateAndBasis:
    @given(st.integers(2, 12), st.floats(-2, 2, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_basis_is_unitary(self, d, phase):
        u = bl.measurement_basis(d, phase)
        gram = u @ u.conj().T
        assert np.abs(gram - np.eye(d)).max() < 1e-12

    def test_basis_entries(self):
        u = bl.measurement_basis(2, 0.5)
        # row m, column l: exp(i 2 pi l (m + phase) / d) / sqrt(d)
        expect = np.array([[1, 1j], [1, -1j]]) / math.sqrt(2)
        assert np.abs(u - expect).max() < 1e-14


class TestBornTable:
    def test_normalization_and_shape(self):
        for d in (2, 3, 6):
            t = bl.born_table(d)
            assert t.p.shape == (2, 2, d, d)
            assert np.abs(t.p.sum(axis=(2, 3)) - 1).max() < 1e-12

    def test_frozen_entry_d2(self):
        t = bl.born_table(2)
        assert abs(t.p[0, 0, 0, 0] - 0.4267766953) < 5e-11
        assert abs(t.p[0, 0, 0, 0] - (2 + math.sqrt(2)) / 8) < 1e-14

    def test_frozen_entry_d3(self):
        t = bl.born_table(3)
        assert abs(t.p[0, 0, 0, 0] - 0.2764482080) < 5e-11
        assert abs(t.p[0, 0, 0, 0] - (4 + 2 * math.sqrt(3)) / 27) < 1e-14

    def test_closed_form_matches_born_canonical(self):
        # at d = 880 and 992 the closed form's pair sums leave INTERNAL_TOL,
        # so it is compared as a bare array, never gated as a table
        for d in (*range(2, 9), 880, 992):
            closed = bl.closed_form_table(d)
            assert type(closed) is np.ndarray
            assert closed.shape == (2, 2, d, d)
            assert np.abs(bl.born_table(d).p - closed).max() < 1e-13

    def test_closed_form_is_not_a_table(self):
        # the gate stays at INTERNAL_TOL; the oracle is what falls outside it
        assert core.INTERNAL_TOL == 1e-12
        closed = bl.closed_form_table(880)
        assert np.abs(closed.sum(axis=(2, 3)) - 1.0).max() > core.INTERNAL_TOL
        with pytest.raises(NormalizationError):
            bl.JointProbabilityTable.from_array(closed)

    def test_closed_form_matches_born_random_settings(self, rng):
        for d in (2, 3, 5):
            for _ in range(10):
                s = bl.random_settings(rng)
                try:
                    closed = bl.closed_form_table(d, s)
                except SingularAngleError:
                    continue
                born = bl.born_table(d, s)
                assert np.abs(born.p - closed).max() < 1e-12

    def test_singular_angle_raises_with_location(self):
        s = bl.MeasurementSettings(0.0, 0.5, 1.0, -0.25)
        with pytest.raises(SingularAngleError) as err:
            bl.closed_form_table(3, s)
        i, j, m, n = err.value.entry
        assert (i, j) == (1, 1)
        assert (m + n + 1.0) % 3 == 0

    def test_table_depends_only_on_phase_sums(self):
        # adding the same offset to both parties' first settings with opposite
        # signs leaves each pair's phase sum, hence the table, unchanged
        a = bl.born_table(3, bl.MeasurementSettings(0.1, 0.6, 0.2, -0.3))
        b = bl.born_table(3, bl.MeasurementSettings(0.3, 0.8, 0.0, -0.5))
        assert np.abs(a.p - b.p).max() < 1e-13


def per_pair_born(d, s):
    """The construction born_table replaced: both bases rebuilt for every pair."""
    p = np.empty((2, 2, d, d))
    for i, j in core.SETTING_PAIRS:
        alpha, beta = s.phases(i, j)
        ua = bl.measurement_basis(d, alpha)
        ub = bl.measurement_basis(d, beta)
        amp = np.conj(ua) @ np.conj(ub).T / np.sqrt(d)
        p[i - 1, j - 1] = np.abs(amp) ** 2
    return p


class TestBornTableBitIdentity:
    """Sharing the bases across pairs must not move a single bit of the table."""

    def test_canonical_and_random_settings(self, rng):
        for d in range(2, 25):
            for s in (bl.CANONICAL_PHASES, bl.random_settings(rng)):
                assert np.array_equal(bl.born_table(d, s).p, per_pair_born(d, s))

    @given(
        st.integers(2, 24),
        st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=4, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_drawn_settings(self, d, phases):
        s = bl.MeasurementSettings(*phases)
        assert np.array_equal(bl.born_table(d, s).p, per_pair_born(d, s))


class TestThreadedBornTable:
    """The two-thread split of born_table's products keeps every bit of the sequential loop."""

    @pytest.mark.parametrize("d", [2, 3, 17, 384, 1000])
    def test_matches_the_sequential_loop(self, d):
        rng = np.random.default_rng(d)
        for s in (bl.CANONICAL_PHASES, *(bl.random_settings(rng) for _ in range(3))):
            got = bl.born_table(d, s).p
            assert np.array_equal(got.view(np.uint64), sequential_born_table(d, s).view(np.uint64))

    @pytest.mark.parametrize("helper", [True, False])
    def test_an_error_in_either_thread_reaches_the_caller(self, monkeypatch, helper):
        divide = np.divide

        def failing(*args, **kwargs):
            if (threading.current_thread() is threading.main_thread()) != helper:
                raise FloatingPointError("product failed")
            return divide(*args, **kwargs)

        monkeypatch.setattr(np, "divide", failing)
        with pytest.raises(FloatingPointError, match="product failed"):
            bl.born_table(5)
        assert threading.active_count() == 1


class TestSumAmplitudeTable:
    """The one-FFT-per-pair builder against the Born matrix products."""

    def test_matches_born_canonical(self):
        for d in range(2, 65):
            assert np.abs(sum_amplitude_table(d).p - bl.born_table(d).p).max() < 1e-12

    @given(
        st.integers(2, 40),
        st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=4, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_born_drawn_settings(self, d, phases):
        s = bl.MeasurementSettings(*phases)
        assert np.abs(sum_amplitude_table(d, s).p - bl.born_table(d, s).p).max() < 1e-12

    def test_integer_phase_sum_is_a_delta(self):
        # pair (1, 1) has phase sum 1: the closed form has no finite value there
        s = bl.MeasurementSettings(0.0, 0.5, 1.0, -0.25)
        with pytest.raises(SingularAngleError):
            bl.closed_form_table(3, s)
        for d in (3, 8, 31):
            p = sum_amplitude_table(d, s).p
            assert np.isfinite(p).all()
            assert np.abs(p.sum(axis=(2, 3)) - 1.0).max() < core.INTERNAL_TOL
            # all weight on the outcome sums k = -1 mod d, 1/d per entry
            by_sum = d * p[0, 0, 0]
            assert abs(by_sum[d - 1] - 1.0) < 1e-12
            assert np.abs(by_sum[: d - 1]).max() < 1e-12

    @pytest.mark.parametrize("d", [880, 992, 2000])
    def test_pair_sums_stay_in_the_gate(self, d):
        # where the closed form's pair sums leave INTERNAL_TOL
        p = sum_amplitude_table(d).p
        assert np.abs(p.sum(axis=(2, 3)) - 1.0).max() < core.INTERNAL_TOL
        assert np.abs(bl.sum_distributions(d).sum(axis=-1) - 1.0).max() < core.INTERNAL_TOL

    def test_outcome_sums_follow_the_spin_distribution(self):
        # pair (i, j) reads spin label k at outcome sum orient * k, with k
        # reversed (k -> d - 1 - k) on the pair whose sign is negative
        for d in range(2, 257):
            p = sum_amplitude_table(d).p
            q = bl.spin_projection_distribution(d)
            k = np.arange(d)
            for (i, j), orient, sign in zip(core.SETTING_PAIRS, core.PAIR_ORIENT, core.PAIR_SIGNS):
                label = k if sign > 0 else d - 1 - k
                dist = d * p[i - 1, j - 1, 0, (orient * label) % d]
                assert np.abs(dist - q).max() < 1e-12

    @pytest.mark.parametrize("phase", [1e308, -1e308, math.inf])
    def test_huge_phase_is_refused_without_a_warning(self, phase):
        # filterwarnings = error: a numpy RuntimeWarning would surface instead
        s = bl.MeasurementSettings(phase, 0.0, 0.0, 0.0)
        with pytest.raises(NormalizationError, match="non-finite"):
            sum_amplitude_table(3, s)
        # the distributions pass the same gate
        with pytest.raises(NormalizationError, match="non-finite"):
            bl.sum_distributions(3, s)


def table_path_values(d, s=None):
    """Bell and CGLMP values of the sum-amplitude table, through the d^2 table evaluators."""
    table = sum_amplitude_table(d, s)
    return bl.bell_expression(table), bl.cglmp_expression(conjugate_second_party(table))


def sum_path_values(d, s=None):
    """The same two values from the (2, 2, d) outcome-sum distributions, in O(d)."""
    dists = bl.sum_distributions(d, s)
    return core._sum_class_bell(dists), core._pair_sum(core._cglmp_fold(dists, core.PAIR_ORIENT))


class TestSumDistributions:
    """The O(d) evaluators of scan and optimize against the table path."""

    def test_matches_table_path_canonical(self):
        for d in range(2, 65):
            assert np.abs(np.subtract(sum_path_values(d), table_path_values(d))).max() < 1e-12

    @given(
        st.integers(2, 40),
        st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=4, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_table_path_drawn_settings(self, d, phases):
        s = bl.MeasurementSettings(*phases)
        assert np.abs(np.subtract(sum_path_values(d, s), table_path_values(d, s))).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 17, 64])
    def test_is_d_times_a_row_of_the_table(self, d):
        # one FFT builder: the table's row m = 0 holds each class once
        s = bl.random_settings(np.random.default_rng(d))
        dists = bl.sum_distributions(d, s)
        assert np.array_equal(dists, d * sum_amplitude_table(d, s).p[:, :, 0, :])
        assert not dists.flags.writeable


def rolled_shift_deviation(t):
    """The loop shift_symmetry_deviation replaced: d - 1 rolled copies of the table."""
    worst = 0.0
    for c in range(1, t.d):
        shifted = np.roll(t.p, (-c, c), axis=(2, 3))
        worst = max(worst, float(np.abs(t.p - shifted).max()))
    return worst


class TestSymmetryAndSpin:
    @pytest.mark.parametrize("d", [*range(2, 40), 100, 200])
    def test_shift_symmetry_matches_rolled_oracle(self, d):
        from conftest import random_table

        rng = np.random.default_rng(d)
        for t in (bl.born_table(d), bl.born_table(d, bl.random_settings(rng)), random_table(d, rng)):
            assert bl.shift_symmetry_deviation(t) == rolled_shift_deviation(t)

    def test_shift_symmetry_canonical(self):
        for d in range(2, 9):
            assert bl.shift_symmetry_deviation(bl.born_table(d)) < 1e-12

    def test_shift_symmetry_detects_breakage(self, rng):
        from conftest import random_table

        t = random_table(3, rng)
        assert bl.shift_symmetry_deviation(t) > 1e-3

    def test_spin_projection_distribution_d3(self):
        q = bl.spin_projection_distribution(3)
        expect = [0.8293446239, 0.0595442650, 1 / 9]
        assert np.abs(q - expect).max() < 5e-11
        assert abs(q.sum() - 1.0) < 1e-12

    def test_sum_distribution_matches_spin_distribution(self):
        for d in (2, 3, 5):
            t = bl.born_table(d)
            dist = bl.mapped_spin_distribution(t, 1, 1, bl.OutcomeMapping.sum_mapping(d))
            assert np.abs(dist - bl.spin_projection_distribution(d)).max() < 1e-12

    def test_sum_distribution_matches_diagonal_slices(self):
        # all outcome pairs with the same m+n share one probability
        d = 4
        t = bl.born_table(d)
        dist = bl.mapped_spin_distribution(t, 1, 1, bl.OutcomeMapping.sum_mapping(d))
        for k in range(d):
            assert abs(dist[k] - d * t.p[0, 0, k, 0]) < 1e-13


class TestCanonicalValues:
    def test_frozen_correlations(self):
        for d, q in FROZEN_Q.items():
            assert abs(bl.canonical_correlation(d) - q) < 5e-11

    def test_frozen_bell_values(self):
        for d, v in FROZEN_I.items():
            assert abs(bl.quantum_bell_value(d) - v) < 5e-11

    def test_d2_is_tsirelson(self):
        assert abs(bl.quantum_bell_value(2) - 2 * math.sqrt(2)) < 1e-12

    def test_d3_radical_form(self):
        assert abs(bl.quantum_bell_value(3) - (12 + 8 * math.sqrt(3)) / 9) < 1e-12

    def test_bell_value_strictly_increasing(self):
        values = [bl.quantum_bell_value(d) for d in range(2, 17)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_spin_path_equals_table_path(self):
        for d in range(2, 9):
            table_value = bl.bell_expression(bl.born_table(d))
            assert abs(bl.quantum_bell_value(d) - table_value) < 1e-12

    def test_correlation_sign_pattern(self):
        for d in (2, 3, 5):
            t = bl.born_table(d)
            q = bl.canonical_correlation(d)
            assert abs(bl.correlation(t, 1, 1) - q) < 1e-12
            assert abs(bl.correlation(t, 1, 2) - q) < 1e-12
            assert abs(bl.correlation(t, 2, 1) + q) < 1e-12
            assert abs(bl.correlation(t, 2, 2) - q) < 1e-12


class TestMeasurementSettings:
    def test_canonical_values(self):
        assert bl.CANONICAL_PHASES.as_tuple() == (0.0, 0.5, 0.25, -0.25)

    def test_phases_lookup(self):
        s = bl.MeasurementSettings(0.1, 0.2, 0.3, 0.4)
        assert s.phases(1, 1) == (0.1, 0.3)
        assert s.phases(2, 1) == (0.2, 0.3)
        assert s.phases(1, 2) == (0.1, 0.4)

    def test_from_iterable_length_check(self):
        with pytest.raises(ValueError):
            bl.MeasurementSettings.from_iterable([0.1, 0.2, 0.3])

    def test_dimension_guard(self):
        with pytest.raises(DimensionError):
            bl.born_table(1)
