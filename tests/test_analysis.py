"""Noise, scan, optimizer, and cross-check tests.

The threshold sequence below was computed beforehand at 40-digit precision;
entries are rounded to 10 decimal places.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import bell_lab as bl
from bell_lab import analysis, cli, core, quantum
from conftest import conjugate_second_party, count_tables, random_table, sum_amplitude_table

FROZEN_THRESHOLDS = {
    2: 0.7071067812,
    3: 0.6961524227,
    4: 0.6905497395,
    5: 0.6871565744,
    6: 0.6848837511,
    7: 0.6832559054,
    8: 0.6820329582,
    9: 0.6810807111,
    10: 0.6803183201,
    11: 0.6796941951,
    12: 0.6791738739,
    13: 0.6787334620,
    14: 0.6783558729,
    15: 0.6780285650,
    16: 0.6777421255,
}


class TestNoise:
    def test_visibility_endpoints(self):
        for d in (2, 3):
            quantum = bl.born_table(d)
            assert np.abs(bl.noisy_table(quantum, 1.0).p - quantum.p).max() < 1e-15
            assert np.abs(bl.noisy_table(quantum, 0.0).p - 1.0 / d**2).max() < 1e-15

    def test_visibility_bounds(self):
        with pytest.raises(ValueError):
            bl.noisy_table(bl.born_table(3), 1.5)
        with pytest.raises(ValueError):
            bl.noisy_table(bl.born_table(3), -0.1)

    @pytest.mark.parametrize("visibility", ["0.5", True, np.bool_(False)])
    def test_visibility_must_be_a_number(self, visibility):
        with pytest.raises(TypeError, match="visibility must be a number"):
            bl.noisy_table(bl.born_table(3), visibility)

    def test_bell_value_linear_in_visibility(self):
        d = 3
        full = bl.bell_expression(bl.born_table(d))
        for v in (0.25, 0.5, 0.8):
            mixed = bl.bell_expression(bl.noisy_table(bl.born_table(d), v))
            assert abs(mixed - v * full) < 1e-12

    def test_frozen_thresholds(self):
        for d, p in FROZEN_THRESHOLDS.items():
            assert abs(bl.noise_threshold(d) - p) < 5e-11

    def test_threshold_identity(self):
        for d in (2, 5, 9):
            assert abs(bl.noise_threshold(d) * bl.quantum_bell_value(d) - 2.0) < 1e-12

    def test_bisection_agrees(self):
        for d in (2, 3, 4, 7):
            assert abs(bl.noise_threshold_bisect(bl.born_table(d)) - bl.noise_threshold(d)) < 1e-10

    def test_threshold_table_value_is_classical_bound(self):
        d = 4
        at = bl.bell_expression(bl.noisy_table(bl.born_table(d), bl.noise_threshold(d)))
        assert abs(at - 2.0) < 1e-9

    def test_threshold_strictly_decreasing(self):
        values = [bl.noise_threshold(d) for d in range(2, 17)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_bisection_on_random_settings(self):
        # a table at non-canonical phases has its own threshold 2 / I
        rng = np.random.default_rng(4242)
        checked = 0
        for d in (2, 3, 4, 5, 7):
            for _ in range(40):
                table = bl.born_table(d, bl.random_settings(rng))
                value = bl.bell_expression(table)
                if value <= 2.0:
                    continue
                assert abs(bl.noise_threshold_bisect(table) - 2.0 / value) < 1e-9
                checked += 1
        assert checked >= 20

    @staticmethod
    def table_bisection(table):
        # the bisection as it was: a noisy table built and evaluated per step
        def margin(v):
            return bl.bell_expression(bl.noisy_table(table, v)) - 2.0

        lo, hi = 0.0, 1.0
        assert margin(hi) >= 0
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if margin(mid) > 0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    def test_linear_bisection_matches_the_table_bisection(self):
        for d in range(2, 65):
            for table in (bl.born_table(d), sum_amplitude_table(d)):
                assert bl.noise_threshold_bisect(table) == self.table_bisection(table)

    def test_linear_bisection_matches_on_random_settings(self):
        rng = np.random.default_rng(2121)
        checked = 0
        while checked < 40:
            table = bl.born_table(int(rng.integers(2, 17)), bl.random_settings(rng))
            if bl.bell_expression(table) > 2.0:
                assert bl.noise_threshold_bisect(table) == self.table_bisection(table)
                checked += 1

    def test_bisection_rejects_a_table_that_does_not_violate(self, rng):
        uniform = bl.JointProbabilityTable.from_array(np.full((2, 2, 3, 3), 1 / 9))
        for table in (uniform, random_table(4, rng)):
            assert bl.bell_expression(table) < 2.0
            with pytest.raises(ValueError, match="no violation at full visibility"):
                bl.noise_threshold_bisect(table)


@pytest.fixture
def table_builds(monkeypatch):
    """Record the (d, phases) of every sum_distributions call made through analysis."""
    builds = []
    real = analysis.sum_distributions

    def counting(d, settings=None):
        builds.append((d, (settings or bl.CANONICAL_PHASES).as_tuple()))
        return real(d, settings)

    monkeypatch.setattr(analysis, "sum_distributions", counting)
    return builds


class TestWorkCounts:
    def test_bisection_builds_no_table(self, table_builds):
        threshold = bl.noise_threshold_bisect(bl.born_table(12))
        assert table_builds == []
        assert abs(threshold - bl.noise_threshold(12)) < 1e-10

    def test_bisection_builds_one_noisy_table(self, monkeypatch):
        calls = []
        real = analysis.noisy_table
        monkeypatch.setattr(analysis, "noisy_table", lambda t, v: calls.append(v) or real(t, v))
        bl.noise_threshold_bisect(bl.born_table(12))
        assert calls == [0.0]

    def test_optimizer_builds_each_phase_tuple_once(self, table_builds):
        start = bl.random_settings(np.random.default_rng(1))
        result = bl.optimize_phases(64, start)
        assert result.evaluations == 257
        assert len(table_builds) == len(set(table_builds))
        # moves back to an already evaluated setting are not rebuilt
        assert 0 < len(table_builds) < result.evaluations

    def test_scan_builds_one_table_per_dimension(self, table_builds, monkeypatch):
        kernel_values = []
        real = analysis.bell_expression
        monkeypatch.setattr(analysis, "bell_expression", lambda t: kernel_values.append(t) or real(t))
        bl.scan_dimensions(12)
        assert sorted(d for d, _ in table_builds) == list(range(2, 13))
        # the CGLMP column needs no kernel Bell value
        assert kernel_values == []

    def test_scan_and_optimizer_build_no_table(self, table_builds, monkeypatch):
        # both evaluate the (2, 2, d) outcome-sum distributions in O(d)
        def no_table(self, _tol):
            pytest.fail("a JointProbabilityTable was built")

        monkeypatch.setattr(core.JointProbabilityTable, "__post_init__", no_table)
        bl.scan_dimensions(12)
        bl.optimize_phases(64, bl.random_settings(np.random.default_rng(1)))
        assert len(table_builds) > 11

    def test_analyses_build_no_born_table(self, capsys, monkeypatch):
        # the Born matrix products are kept for the outputs that print last bits
        assert not hasattr(analysis, "born_table")
        calls = []
        monkeypatch.setattr(quantum, "born_table", lambda *args: calls.append(args))
        bl.scan_dimensions(12)
        bl.optimize_phases(64, bl.random_settings(np.random.default_rng(1)))
        assert cli.run(["noise", "--d", "12"]) == 0
        assert "p_threshold_bisect" in capsys.readouterr().out
        assert calls == []


class TestCglmpCrosscheck:
    def test_delta_small(self):
        for d in range(2, 9):
            result = bl.cglmp_crosscheck(bl.born_table(d))
            assert result["delta"] < 1e-12
            assert abs(result["kernel_value"] - bl.quantum_bell_value(d)) < 1e-12

    def test_delta_small_on_random_tables(self, rng):
        for d in range(2, 10):
            assert bl.cglmp_crosscheck(random_table(d, rng))["delta"] < 1e-12

    def test_keys(self):
        assert set(bl.cglmp_crosscheck(bl.born_table(2))) == {"kernel_value", "cglmp_value", "delta"}

    # from d = 8 on, summing the last axis of a strided (2, 2, d, d) gather
    # differs from the per-pair gathers in the last bits
    @pytest.mark.parametrize("d", [*range(2, 70), 127, 256, 384, 500, 1000])
    def test_class_gather_is_the_relabel_oracle_and_the_per_pair_gathers(self, d):
        rng = np.random.default_rng(d)
        m = np.arange(d)
        for t in (bl.born_table(d), bl.born_table(d, bl.random_settings(rng)), random_table(d, rng)):
            assert bl.cglmp_crosscheck(t)["cglmp_value"] == bl.cglmp_expression(conjugate_second_party(t))
            for i, j in core.SETTING_PAIRS:
                p = t.subtable(i, j)
                per_pair = p[m[None, :], (m[None, :] - m[:, None]) % d].sum(axis=1)
                assert bl.difference_distribution(t, i, j).tolist() == per_pair.tolist()
            by_sum = t.p[:, :, m, (m[:, None] - m) % d]
            assert bl.shift_symmetry_deviation(t) == float((by_sum.max(axis=-1) - by_sum.min(axis=-1)).max())

    # (PAIR_SIGNS, PAIR_ORIENT): the package's own, then two others
    CONVENTIONS = [
        ((1, 1, -1, 1), (1, -1, 1, 1)),
        ((1, -1, 1, 1), (1, 1, -1, 1)),
        ((-1, 1, 1, 1), (-1, 1, 1, -1)),
    ]

    @pytest.mark.parametrize("signs, orient", CONVENTIONS)
    def test_cglmp_values_follow_the_pair_conventions(self, signs, orient):
        # every CGLMP fold reads the conventions from core when it runs
        bl.bell_weights.cache_clear()
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(core, "PAIR_SIGNS", signs)
                patch.setattr(core, "PAIR_ORIENT", orient)
                rng = np.random.default_rng(34)
                for d in range(2, 9):
                    t = random_table(d, rng)
                    assert bl.cglmp_crosscheck(t)["cglmp_value"] == bl.cglmp_expression(conjugate_second_party(t))
                for row in bl.scan_dimensions(8).rows:
                    expect = bl.cglmp_crosscheck(sum_amplitude_table(row.d))["cglmp_value"]
                    assert abs(row.cglmp_value - expect) < 1e-12, row.d
        finally:
            bl.bell_weights.cache_clear()

    def test_exact_crosscheck_builds_no_table(self, rng, monkeypatch):
        # the sum mapping's spin assembly against the kernel dot: two exact computations
        t = core.random_rational_table(7, rng)
        built = count_tables(monkeypatch)
        result = bl.cglmp_crosscheck(t)
        assert built == []
        assert type(result["cglmp_value"]) is Fraction and result["delta"] == 0
        assert result["cglmp_value"] == bl.cglmp_expression(conjugate_second_party(t))

    def test_cglmp_command_builds_one_table(self, capsys, monkeypatch):
        built = count_tables(monkeypatch)
        assert cli.run(["cglmp", "--d", "7"]) == 0
        capsys.readouterr()
        assert built == [7]


class TestOptimizer:
    def test_canonical_start_is_already_optimal(self):
        for d in (2, 3, 4):
            result = bl.optimize_phases(d)
            assert abs(result.value - bl.quantum_bell_value(d)) < 1e-9
            assert result.start_value <= result.value + 1e-12
            assert result.evaluations > 0

    def test_random_start_reaches_maximum_d2(self):
        # seeds picked once and frozen; coordinate descent recovers the peak
        for seed in (1, 5, 11):
            start = bl.random_settings(np.random.default_rng(seed))
            result = bl.optimize_phases(2, start)
            assert result.value > 2 * math.sqrt(2) - 1e-6

    def test_random_start_reaches_maximum_d3(self):
        for seed in (7, 11):
            start = bl.random_settings(np.random.default_rng(seed))
            result = bl.optimize_phases(3, start)
            assert result.value > bl.quantum_bell_value(3) - 1e-6

    @pytest.mark.parametrize("seed", [None, 3, 8])
    def test_zero_width_halvings_are_counted_not_run(self, seed):
        def loop(start, halvings):
            # every halving runs its sweeps, also once the step has underflowed to 0
            values = {}

            def value_at(phases):
                key = tuple(phases)
                if key not in values:
                    values[key] = bl.bell_expression(sum_amplitude_table(3, bl.MeasurementSettings(*key)))
                return values[key]

            x = list(start.as_tuple())
            best, evaluations, width = value_at(x), 1, 0.05
            for _ in range(halvings):
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
                                x, best, improved = cand, v, True
                width *= 0.5
            return x, best, evaluations, width

        start = bl.CANONICAL_PHASES if seed is None else bl.random_settings(np.random.default_rng(seed))
        result = bl.optimize_phases(3, start, halvings=1200)
        x, best, evaluations, width = loop(start, 1200)
        assert width == 0.0
        assert list(result.settings.as_tuple()) == x
        assert (result.value, result.evaluations, result.final_step) == (best, evaluations, width)

    @pytest.mark.parametrize("halvings", [2.5, True, "2"])
    def test_halvings_must_be_an_integer(self, halvings):
        # 2.5 used to run 2 halvings
        with pytest.raises(TypeError, match="halvings must be an integer"):
            bl.optimize_phases(3, halvings=halvings)

    @pytest.mark.parametrize("halvings", [-1, -3, np.int64(-2)])
    def test_halvings_must_be_non_negative(self, halvings):
        # -3 used to return the start after one evaluation
        with pytest.raises(ValueError, match="halvings must be non-negative"):
            bl.optimize_phases(3, halvings=halvings)

    @pytest.mark.parametrize("step", ["0.05", True, None, 1j])
    def test_step_must_be_a_number(self, step):
        # "0.05" used to run as 0.05
        with pytest.raises(TypeError, match="step must be a number"):
            bl.optimize_phases(3, step=step)

    @pytest.mark.parametrize("step", [0, 0.0, -0.05, math.inf, -math.inf, math.nan])
    def test_step_must_be_positive_and_finite(self, step):
        with pytest.raises(ValueError, match="step must be a positive finite number"):
            bl.optimize_phases(3, step=step)

    @pytest.mark.parametrize("step", [np.float64(0.05), 1, Fraction(1, 20)])
    def test_any_real_step_runs(self, step):
        result = bl.optimize_phases(3, step=step, halvings=2)
        assert result.final_step == float(step) / 4

    def test_final_step_shrinks(self):
        result = bl.optimize_phases(2, step=0.05, halvings=10)
        assert result.final_step <= 0.05 / 2**10 + 1e-15

    def test_random_settings_bounds(self, rng):
        s = bl.random_settings(rng)
        assert all(-0.5 <= x <= 0.5 for x in s.as_tuple())


class TestScan:
    def test_rows_match_component_functions(self):
        result = bl.scan_dimensions(5)
        assert [row.d for row in result.rows] == [2, 3, 4, 5]
        for row in result.rows:
            assert abs(row.q_correlation - bl.canonical_correlation(row.d)) < 1e-12
            assert abs(row.bell_quantum - bl.quantum_bell_value(row.d)) < 1e-12
            assert abs(row.p_threshold - bl.noise_threshold(row.d)) < 1e-12
            assert row.lhv_max == 2

    def test_columns_are_the_bits_of_the_public_functions(self):
        for row in bl.scan_dimensions(400).rows:
            assert row.q_correlation == bl.canonical_correlation(row.d)
            assert row.bell_quantum == bl.quantum_bell_value(row.d)
            assert row.p_threshold == bl.noise_threshold(row.d)

    def test_one_spin_projection_distribution_per_row(self, monkeypatch):
        calls = []
        build = quantum.spin_projection_distribution
        monkeypatch.setattr(quantum, "spin_projection_distribution", lambda d: (calls.append(d), build(d))[1])
        bl.scan_dimensions(30)
        assert calls == list(range(2, 31))

    def test_cglmp_column_prints_as_the_table_path(self):
        # the O(d) fold over the sum distributions, at the 10 digits scan prints
        for row in bl.scan_dimensions(400).rows:
            table = sum_amplitude_table(row.d)
            expect = bl.cglmp_expression(conjugate_second_party(table))
            assert cli.fmt10(row.cglmp_value) == cli.fmt10(expect)

    def test_monotonicity_flags(self):
        result = bl.scan_dimensions(8)
        assert result.bell_increasing
        assert result.threshold_decreasing

    def test_lhv_skipped_beyond_limit(self, monkeypatch):
        monkeypatch.setattr(analysis, "SCAN_LHV_LIMIT", 3)
        result = bl.scan_dimensions(4)
        by_d = {row.d: row for row in result.rows}
        assert by_d[3].lhv_max == 2
        assert by_d[4].lhv_max is None

    def test_csv_deterministic(self, capsys):
        outputs = []
        for _ in range(2):
            assert cli.run(["scan", "--dmax", "5"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[1] == ",".join(cli.SCAN_COLUMNS)
