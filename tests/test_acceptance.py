"""Acceptance battery: ten end-to-end criteria, one test each.

Every test prints one PASS/FAIL line (visible with pytest -rA or on failure)
and asserts the same condition, so `pytest -v` shows exactly one verdict line
per criterion.  Numeric targets marked "frozen" were produced by independent
high-precision evaluators before the package was built.
"""

import math
import time
from fractions import Fraction

import numpy as np

import bell_lab as bl
from bell_lab import core
from bell_lab.errors import SingularAngleError

TSIRELSON = 2 * math.sqrt(2)
# frozen: 40-digit brute force; also equals (12 + 8*sqrt(3)) / 9
QUTRIT_BELL = 2.8729340512


def report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_two_outcome_chsh_recovery():
    t0 = time.perf_counter()
    born_value = bl.bell_expression(bl.born_table(2))
    spin_value = bl.quantum_bell_value(2)
    elapsed = time.perf_counter() - t0
    err_born = abs(born_value - TSIRELSON)
    err_spin = abs(spin_value - TSIRELSON)
    ok = err_born < 1e-10 and err_spin < 1e-10 and elapsed < 1.0
    report(
        1,
        ok,
        f"d=2 value 2*sqrt(2): born path off by {err_born:.2e}, "
        f"closed-form path off by {err_spin:.2e}, {elapsed:.3f}s",
    )
    assert err_born < 1e-10
    assert err_spin < 1e-10
    assert elapsed < 1.0


def test_criterion_02_exact_classical_bound_d2_to_d12():
    t0 = time.perf_counter()
    ok = True
    for d in range(2, 13):
        summary = bl.enumerate_strategies(d)
        ok = ok and summary.max_value == Fraction(2)
        ok = ok and set(summary.histogram) <= bl.lhv_value_set(d)
        if d == 2:
            ok = ok and set(summary.histogram) == {Fraction(2), Fraction(-2)}
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(2, ok, f"exhaustive max is exactly 2 for d=2..12 in {elapsed:.2f}s")
    assert ok


def test_criterion_03_born_vs_closed_form_random_settings():
    rng = np.random.default_rng(314159)
    worst = 0.0
    for d in range(2, 11):
        worst = max(worst, float(np.abs(bl.born_table(d).p - bl.closed_form_table(d).p).max()))
        accepted = 0
        while accepted < 50:
            settings = bl.random_settings(rng)
            try:
                closed = bl.closed_form_table(d, settings)
            except SingularAngleError:
                continue
            accepted += 1
            born = bl.born_table(d, settings)
            worst = max(worst, float(np.abs(born.p - closed.p).max()))
    ok = worst < 1e-12
    report(3, ok, f"canonical plus 50 random draws per d=2..10, worst entry gap {worst:.2e}")
    assert ok


def test_criterion_04_qutrit_value_both_paths():
    spin_path = bl.quantum_bell_value(3)
    born_path = bl.bell_expression(bl.born_table(3))
    gap = abs(spin_path - born_path)
    err = max(abs(spin_path - QUTRIT_BELL), abs(born_path - QUTRIT_BELL))
    ok = gap < 1e-12 and err < 1e-7
    report(4, ok, f"d=3 value {spin_path:.10f}: paths agree to {gap:.2e}, target off by {err:.2e}")
    assert gap < 1e-12
    assert err < 1e-7


def test_criterion_05_point_mass_identity_d2_to_d8():
    checked = 0
    ok = True
    for d in range(2, 9):
        for s in np.ndindex(d, d, d, d):
            s = tuple(int(x) for x in s)
            direct = bl.strategy_bell_value(s, d)
            via_table = bl.bell_expression(bl.strategy_to_table(s, d))
            if direct != via_table:
                ok = False
                break
            checked += 1
        if not ok:
            break
    report(5, ok, f"closed form equals table evaluation exactly on {checked} strategies")
    assert ok


def test_criterion_06_qutrit_complex_recombination():
    rng = np.random.default_rng(271828)
    worst = 0.0
    for _ in range(100):
        x = rng.random((2, 2, 3, 3))
        x /= x.sum(axis=(2, 3), keepdims=True)
        t = bl.JointProbabilityTable.from_array(x)
        for i, j in core.SETTING_PAIRS:
            _, recombined = bl.qutrit_complex_correlation(t, i, j)
            worst = max(worst, abs(recombined - bl.correlation(t, i, j)))
    ok = worst < 1e-12
    report(6, ok, f"complex-moment recombination vs kernel on 100 tables, worst gap {worst:.2e}")
    assert ok


def test_criterion_07_probability_difference_assembly():
    worst = 0.0
    for d in range(2, 17):
        worst = max(worst, bl.cglmp_crosscheck(bl.born_table(d))["delta"])
    ok = worst < 1e-10
    report(7, ok, f"difference-form assembly vs kernel for d=2..16, worst gap {worst:.2e}")
    assert ok


def test_criterion_08_noise_thresholds():
    thresholds = [bl.noise_threshold(d) for d in range(2, 17)]
    identity_gap = max(
        abs(p * bl.quantum_bell_value(d) - 2.0) for d, p in zip(range(2, 17), thresholds)
    )
    bisect_gap = max(
        abs(bl.noise_threshold_bisect(bl.born_table(d)) - p) for d, p in zip(range(2, 17), thresholds)
    )
    decreasing = all(b < a for a, b in zip(thresholds, thresholds[1:]))
    anchor_gap = max(abs(thresholds[0] - 0.7071068), abs(thresholds[1] - 0.6961524))
    ok = identity_gap < 1e-12 and bisect_gap < 1e-10 and decreasing and anchor_gap < 5e-8
    report(
        8,
        ok,
        f"2/I identity gap {identity_gap:.2e}, bisection gap {bisect_gap:.2e}, "
        f"monotone decreasing {decreasing}",
    )
    assert ok


def test_criterion_09_shift_symmetry():
    worst = 0.0
    for d in range(2, 11):
        p = bl.born_table(d).p
        for c in range(d):
            rolled = np.roll(p, shift=(-c, c), axis=(2, 3))
            worst = max(worst, float(np.abs(p - rolled).max()))
    ok = worst < 1e-12
    report(9, ok, f"P(m,n) = P(m+c, n-c) for all c, d=2..10, worst gap {worst:.2e}")
    assert ok


def test_criterion_10_canonical_phase_stationarity():
    worst_gain = -np.inf
    for d in range(2, 9):
        base = bl.bell_expression(bl.born_table(d))
        for coord in range(4):
            for delta in (1e-4, -1e-4):
                phases = list(bl.CANONICAL_PHASES.as_tuple())
                phases[coord] += delta
                perturbed = bl.bell_expression(
                    bl.born_table(d, bl.MeasurementSettings(*phases))
                )
                worst_gain = max(worst_gain, perturbed - base)
    ok = worst_gain <= 1e-8
    report(10, ok, f"largest gain from +-1e-4 phase perturbations d=2..8 is {worst_gain:.2e}")
    assert ok
