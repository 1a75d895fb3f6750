"""Shared helpers for the test suite."""

import os
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

# a test run leaves no bytecode in the checkout, nor do the children its
# tests start: benchmark children run from the checkout would read it
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
# pytest compiled this file before the lines above ran
shutil.rmtree(Path(__file__).with_name("__pycache__"), ignore_errors=True)

from bell_lab import _accel, lhv  # noqa: E402
from bell_lab.core import PAIR_ORIENT, PAIR_SIGNS, SETTING_PAIRS, JointProbabilityTable, OutcomeMapping  # noqa: E402
from bell_lab.core import _pair_weights  # noqa: E402
from bell_lab.core import random_rational_table, random_table  # noqa: E402, F401  (shared with the tests)
from bell_lab.quantum import CANONICAL_PHASES, measurement_basis  # noqa: E402


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)


def assert_storage_rule(t) -> None:
    """Exact numerators are int64 below the storage limit and Python ints (dtype object) above it."""
    assert type(t.denominator) is int
    if t.denominator <= 2**53 and 4 * (t.d - 1) * t.denominator < 2**63:
        assert t.numerators.dtype == np.int64
    else:
        assert t.numerators.dtype == object
        assert set(map(type, t.numerators.flat)) == {int}


def as_lists(obj):
    """``obj`` with every numpy array as its nested lists, as ``json.dumps`` takes it."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: as_lists(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_lists(value) for value in obj]
    return obj


def count_tables(monkeypatch) -> list:
    """Record the d of each ``JointProbabilityTable`` built from now on, through its constructor's check."""
    built, check = [], JointProbabilityTable.__post_init__

    def counting(self, _tol):
        built.append(self.d)
        check(self, _tol)

    monkeypatch.setattr(JointProbabilityTable, "__post_init__", counting)
    return built


def conjugate_second_party(t) -> JointProbabilityTable:
    """The table with the second party's outcomes relabelled n -> -n (mod d): the CGLMP oracle.

    Its outcome sums are distributed like the differences of ``t``, so its
    kernel values are the CGLMP values of ``t``, and the other way round.
    """
    k = np.arange(t.d)
    index = np.ix_(range(2), range(2), k, (-k) % t.d)
    if t.is_exact:
        return JointProbabilityTable(t.d, numerators=t.numerators[index])
    return JointProbabilityTable(t.d, t.p[index])


def loop_fold(diff, e) -> float:
    """The CGLMP fold of one class distribution with orientation e, as a loop over k from 0.0."""
    diff, d = diff.tolist(), len(diff)
    total = 0.0
    for k in range(d // 2):
        coeff = 1.0 - 2.0 * k / (d - 1)
        total += coeff * (diff[(k * e) % d] - diff[((-k - 1) * e) % d])
    return total


def cglmp_correlation(t, i, j):
    """CGLMP's probability-difference correlation of pair (i, j): the per-pair oracle of ``cglmp_expression``.

    Q_ij = sum_{k=0}^{floor(d/2)-1} (1 - 2k/(d-1)) *
           [P(A - B = k * e) - P(A - B = (-k - 1) * e)]   (mod d),

    e the pair's orientation in ``PAIR_ORIENT``.  On a float table each
    P(A - B = c) is summed over m in a loop over c, and ``loop_fold`` folds
    them.  On an exact table it is the pair's weights on the difference
    mapping, times its sign, over denominator * (d - 1): a ``Fraction``.
    """
    d, k = t.d, SETTING_PAIRS.index((i, j))
    if t.is_exact:
        weights = PAIR_SIGNS[k] * _pair_weights(d, k, OutcomeMapping.difference_mapping(d).table)
        return Fraction(int(np.vdot(t.numerators[i - 1, j - 1], weights)), t.denominator * (d - 1))
    p, rows = t.p[i - 1, j - 1], np.arange(d)
    diff = np.array([float(p[rows, (rows - c) % d].sum()) for c in range(d)])
    return loop_fold(diff, PAIR_ORIENT[k])


def classify_strategy(s, d) -> str:
    """The case label of a strategy: ``CASE_LABELS`` at the case code of ``_accel.strategy_values``.

    The code counts how many of a1+b1, a2+b2 and how many of a1+b2, a2+b1
    reach d; each label admits the Bell values of ``lhv.case_value_set``.
    """
    g = OutcomeMapping.sum_mapping(d)
    return lhv.CASE_LABELS[_accel.strategy_values(g, *lhv._coerce_strategy(s, g.d))[1]]


def sum_amplitude_table(d, settings=None) -> JointProbabilityTable:
    """The quantum table from one length-d FFT per setting pair: the oracle of the outcome-sum path.

    With phi = alpha_i + beta_j, the amplitude of outcomes (m, n) is entry
    (m + n) mod d of the FFT of exp(-2 pi i l phi / d) over d^1.5, and entry
    (m, n) of a pair is its squared modulus, read from a Hankel view of the
    doubled class vector.  O(d^2), and equal to ``born_table`` to roundoff
    but not bit for bit.  Its class probabilities are those of
    ``sum_distributions`` before the factor d, bit for bit.  A non-finite
    table, from a phase too large for the arithmetic, is refused by the
    ``JointProbabilityTable`` constructor.
    """
    settings = settings or CANONICAL_PHASES
    pairs = (settings.phases(i, j) for i, j in SETTING_PAIRS)
    phi = np.reshape([alpha + beta for alpha, beta in pairs], (2, 2, 1))
    l = np.arange(d)
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.abs(np.fft.fft(np.exp(-2j * np.pi * l * phi / d)) / d**1.5) ** 2
    # window m of the doubled vector is q[(m + n) mod d] over n
    doubled = np.concatenate((q, q[..., :-1]), axis=-1)
    return JointProbabilityTable.from_array(
        np.lib.stride_tricks.sliding_window_view(doubled, d, axis=-1)
    )


def sequential_born_table(d, settings=None) -> np.ndarray:
    """``born_table``'s probabilities from its four products in one thread, in order: its oracle.

    Each party's conjugated basis is built once per setting, and entry
    (m, n) of pair (i, j) is |conj(ua) @ conj(ub).T / sqrt(d)|^2.
    """
    settings = settings or CANONICAL_PHASES
    ca = [np.conj(measurement_basis(d, a)) for a in (settings.alpha1, settings.alpha2)]
    cbt = [np.conj(measurement_basis(d, b)).T for b in (settings.beta1, settings.beta2)]
    p = np.empty((2, 2, d, d))
    for i, j in SETTING_PAIRS:
        amp = ca[i - 1] @ cbt[j - 1] / np.sqrt(d)
        p[i - 1, j - 1] = np.abs(amp) ** 2
    return p
