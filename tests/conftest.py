"""Shared helpers for the test suite."""

import numpy as np
import pytest

from bell_lab.core import SETTING_PAIRS, JointProbabilityTable
from bell_lab.core import random_rational_table, random_table  # noqa: F401  (shared with the tests)
from bell_lab.quantum import CANONICAL_PHASES


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
