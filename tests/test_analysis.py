"""Noise, scan, optimizer, and cross-check tests.

The threshold sequence below was computed beforehand at 40-digit precision;
entries are rounded to 10 decimal places.
"""

import csv
import json
import math

import numpy as np
import pytest

import bell_lab as bl
from bell_lab import analysis

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
            assert np.abs(bl.noisy_table(d, 1.0).p - quantum.p).max() < 1e-15
            assert np.abs(bl.noisy_table(d, 0.0).p - 1.0 / d**2).max() < 1e-15

    def test_visibility_bounds(self):
        with pytest.raises(ValueError):
            bl.noisy_table(3, 1.5)
        with pytest.raises(ValueError):
            bl.noisy_table(3, -0.1)

    def test_bell_value_linear_in_visibility(self):
        d = 3
        full = bl.bell_expression(bl.born_table(d)).approx
        for v in (0.25, 0.5, 0.8):
            mixed = bl.bell_expression(bl.noisy_table(d, v)).approx
            assert abs(mixed - v * full) < 1e-12

    def test_frozen_thresholds(self):
        for d, p in FROZEN_THRESHOLDS.items():
            assert abs(bl.noise_threshold(d) - p) < 5e-11

    def test_threshold_identity(self):
        for d in (2, 5, 9):
            assert abs(bl.noise_threshold(d) * bl.quantum_bell_value(d) - 2.0) < 1e-12

    def test_bisection_agrees(self):
        for d in (2, 3, 4, 7):
            assert abs(bl.noise_threshold_bisect(d) - bl.noise_threshold(d)) < 1e-10

    def test_threshold_table_value_is_classical_bound(self):
        d = 4
        at = bl.bell_expression(bl.noisy_table(d, bl.noise_threshold(d))).approx
        assert abs(at - 2.0) < 1e-9

    def test_threshold_strictly_decreasing(self):
        values = [bl.noise_threshold(d) for d in range(2, 17)]
        assert all(b < a for a, b in zip(values, values[1:]))


@pytest.fixture
def born_builds(monkeypatch):
    """Record the (d, phases) of every born_table call made through analysis."""
    builds = []
    real = analysis.born_table

    def counting(d, settings=None):
        builds.append((d, (settings or bl.CANONICAL_PHASES).as_tuple()))
        return real(d, settings)

    monkeypatch.setattr(analysis, "born_table", counting)
    return builds


class TestWorkCounts:
    def test_bisection_builds_one_table(self, born_builds):
        threshold = bl.noise_threshold_bisect(12)
        assert born_builds == [(12, bl.CANONICAL_PHASES.as_tuple())]
        assert abs(threshold - bl.noise_threshold(12)) < 1e-10

    def test_optimizer_builds_each_phase_tuple_once(self, born_builds):
        start = bl.random_settings(np.random.default_rng(1))
        result = bl.optimize_phases(64, start)
        assert result.evaluations == 257
        assert len(born_builds) == len(set(born_builds))
        # moves back to an already evaluated setting are not rebuilt
        assert len(born_builds) < result.evaluations

    def test_scan_builds_one_table_per_dimension(self, born_builds, monkeypatch):
        kernel_values = []
        real = analysis.bell_expression
        monkeypatch.setattr(analysis, "bell_expression", lambda t: kernel_values.append(t) or real(t))
        bl.scan_dimensions(12)
        assert sorted(d for d, _ in born_builds) == list(range(2, 13))
        # the CGLMP column needs no kernel Bell value
        assert kernel_values == []


class TestCglmpCrosscheck:
    def test_delta_small(self):
        for d in range(2, 9):
            result = bl.cglmp_crosscheck(d)
            assert result["delta"] < 1e-12
            assert abs(result["kernel_value"] - bl.quantum_bell_value(d)) < 1e-12

    def test_keys(self):
        assert set(bl.cglmp_crosscheck(2)) == {"kernel_value", "cglmp_value", "delta"}


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
                    values[key] = bl.bell_expression(bl.born_table(3, bl.MeasurementSettings(*key))).approx
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

    def test_csv_shape(self):
        text = analysis.scan_to_csv(bl.scan_dimensions(4))
        lines = text.splitlines()
        assert lines[0] == "# schema_version=1"
        reader = csv.DictReader(lines[1:])
        rows = list(reader)
        assert reader.fieldnames == list(analysis.SCAN_COLUMNS)
        assert [r["d"] for r in rows] == ["2", "3", "4"]
        assert rows[1]["p_threshold"] == "0.6961524227"
        assert rows[0]["lhv_max"] == "2"

    def test_csv_blank_for_skipped_lhv(self, monkeypatch):
        monkeypatch.setattr(analysis, "SCAN_LHV_LIMIT", 2)
        text = analysis.scan_to_csv(bl.scan_dimensions(3))
        last = text.splitlines()[-1].split(",")
        assert last[-1] == ""

    def test_json_shape(self):
        obj = analysis.scan_to_json(bl.scan_dimensions(3))
        assert obj["schema_version"] == 1
        assert obj["bell_value_increasing"] is True
        assert obj["threshold_decreasing"] is True
        row = obj["rows"][1]
        assert row["d"] == 3
        assert row["lhv_max"] == "2"
        assert row["p_threshold"] == 0.6961524227
        json.dumps(obj)

    def test_csv_deterministic(self):
        a = analysis.scan_to_csv(bl.scan_dimensions(5))
        b = analysis.scan_to_csv(bl.scan_dimensions(5))
        assert a == b
