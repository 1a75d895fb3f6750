"""Quantum predictions: phased Fourier measurements on the maximally entangled state.

Each party measures in a basis of Fourier vectors with a per-setting phase
offset.  On the maximally entangled state of two d-level systems the joint
outcome probabilities depend only on the outcome sum m + n and the phase sum,
which makes the closed form below possible and concentrates the Bell
expression into a single spin-projection distribution.

``born_table`` builds the table by the explicit Born rule (O(d^3) matrix
products); ``quantum``, ``cglmp`` and ``check`` use it because they print the
table's last bits.  ``sum_distributions`` returns the four outcome-sum
distributions from one length-d FFT per setting pair (O(d log d)) and builds
no table; ``scan``, ``optimize`` and ``noise`` evaluate their Bell and CGLMP
values from them in O(d), and print 10 significant digits, where the two
paths agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    INTERNAL_TOL,
    JointProbabilityTable,
    SETTING_PAIRS,
    _check_probabilities,
    _outcome_classes,
    check_array_size,
    check_dimension,
)
from .errors import SingularAngleError

# sin factors smaller than this are treated as an exact zero of the closed form
SINGULAR_TOL = 1e-9


@dataclass(frozen=True)
class MeasurementSettings:
    """Phase offsets (in outcome units) for the two settings of each party."""

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.alpha1, self.alpha2, self.beta1, self.beta2)

    def phases(self, i: int, j: int) -> tuple[float, float]:
        alpha = self.alpha1 if i == 1 else self.alpha2
        beta = self.beta1 if j == 1 else self.beta2
        return alpha, beta

    @classmethod
    def from_iterable(cls, values) -> "MeasurementSettings":
        vals = [float(v) for v in values]
        if len(vals) != 4:
            raise ValueError(f"need exactly 4 phases (alpha1, alpha2, beta1, beta2), got {len(vals)}")
        return cls(*vals)


# Phases that maximize the Bell expression over this measurement family.
CANONICAL_PHASES = MeasurementSettings(0.0, 0.5, 0.25, -0.25)


def measurement_basis(d, phase: float) -> np.ndarray:
    """Orthonormal Fourier basis with phase offset; row m is the outcome-m vector.

    U[m, l] = exp(i 2 pi l (m + phase) / d) / sqrt(d).  A phase too large for
    the arithmetic gives non-finite entries without a warning; the table built
    from them is refused by the ``JointProbabilityTable`` constructor.
    """
    d = check_dimension(d)
    check_array_size(d, 16 * d**2)
    l = np.arange(d)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(2j * np.pi * np.outer(np.arange(d) + phase, l) / d) / np.sqrt(d)


def check_table_size(d: int) -> None:
    """Raise ``DimensionError`` if the (2, 2, d, d) float64 table of d exceeds the largest array."""
    check_array_size(d, 2 * 2 * 8 * d**2)


def born_table(d, settings: MeasurementSettings | None = None) -> JointProbabilityTable:
    """Joint outcome probabilities via inner products with the entangled state.

    Entry (m, n) of pair (i, j) is |<a_i^m, b_j^n | psi>|^2, computed as the
    matrix product of the two conjugated bases divided by sqrt(d).  Each
    party's conjugated basis is built once per setting and shared by the two
    pairs that use it, so a table takes four basis builds and four O(d^3)
    products.

    This is the explicit Born rule, kept wherever a table's last bits are
    printed: ``quantum`` prints every entry in shortest round-trip ``repr``,
    and ``cglmp`` and ``check`` print roundoff-level deviations.
    ``sum_distributions`` describes the same probabilities in O(d) numbers
    but rounds differently in the last bits, so those outputs would change.
    ``closed_form_table`` (a bare array, never gated), ``sum_distributions``
    and the spin-projection distribution are checked against this table.
    A d whose table exceeds the largest array is refused before the bases,
    which are half its size, are built.
    """
    d = check_dimension(d)
    check_table_size(d)
    settings = settings or CANONICAL_PHASES
    # conj(ua) for each first-party setting, conj(ub).T for each second-party one
    ca = [np.conj(measurement_basis(d, a)) for a in (settings.alpha1, settings.alpha2)]
    cbt = [np.conj(measurement_basis(d, b)).T for b in (settings.beta1, settings.beta2)]
    p = np.empty((2, 2, d, d))
    for i, j in SETTING_PAIRS:
        amp = ca[i - 1] @ cbt[j - 1] / np.sqrt(d)
        p[i - 1, j - 1] = np.abs(amp) ** 2
    return JointProbabilityTable.from_array(p)


def sum_distributions(d, settings: MeasurementSettings | None = None) -> np.ndarray:
    """The outcome-sum distributions of the quantum table, as a read-only (2, 2, d) array.

    Entry [i-1, j-1, k] is the probability that (m + n) mod d = k under
    settings (i, j).  With phi = alpha_i + beta_j, the amplitude of outcomes
    (m, n) is sum_l exp(-2 pi i l (m + n + phi) / d) / d^1.5, which depends
    on k only: it is entry k of the FFT of exp(-2 pi i l phi / d), and the
    d outcome pairs of class k give d times its squared modulus.  One
    length-d FFT per setting pair, the four taken in one call.  A d whose
    (2, 2, d, d) table exceeds the largest array is refused before anything
    is allocated.  The distributions pass the table gate (finite,
    non-negative, each pair summing to 1 within ``INTERNAL_TOL``), so a phase
    too large for the arithmetic is refused there, without a warning.
    ``scan``, ``optimize`` and ``noise`` evaluate these.
    """
    d = check_dimension(d)
    check_table_size(d)
    settings = settings or CANONICAL_PHASES
    pairs = (settings.phases(i, j) for i, j in SETTING_PAIRS)
    phi = np.reshape([alpha + beta for alpha, beta in pairs], (2, 2, 1))
    l = np.arange(d)
    with np.errstate(over="ignore", invalid="ignore"):
        amp = np.fft.fft(np.exp(-2j * np.pi * l * phi / d)) / d**1.5
    dists = d * (np.abs(amp) ** 2)
    _check_probabilities(dists, INTERNAL_TOL)
    dists.setflags(write=False)
    return dists


def closed_form_table(d, settings: MeasurementSettings | None = None) -> np.ndarray:
    """Same probabilities in closed form, as a bare (2, 2, d, d) float array.

    p_ij(m, n) = sin^2(pi (alpha_i + beta_j)) / (d^3 sin^2(pi (m + n + alpha_i + beta_j) / d)).

    At the canonical phases every numerator equals 1/2.  A vanishing
    denominator (phase sum congruent to -(m+n) mod d) has no finite closed
    form and raises ``SingularAngleError`` naming the entry.  The array is a
    comparison oracle for ``born_table``, not a table: its pair sums leave
    ``INTERNAL_TOL`` at d = 880 and at many larger d, so it is never gated.
    """
    d = check_dimension(d)
    settings = settings or CANONICAL_PHASES
    m, n = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    p = np.empty((2, 2, d, d))
    for i, j in SETTING_PAIRS:
        alpha, beta = settings.phases(i, j)
        den = np.sin(np.pi * (m + n + alpha + beta) / d)
        bad = np.abs(den) < SINGULAR_TOL
        if bad.any():
            bm, bn = np.argwhere(bad)[0]
            raise SingularAngleError(i, j, int(bm), int(bn))
        p[i - 1, j - 1] = np.sin(np.pi * (alpha + beta)) ** 2 / (d ** 3 * den ** 2)
    return p


def shift_symmetry_deviation(t: JointProbabilityTable) -> float:
    """Largest violation of p(m, n) = p(m + c, n - c) over all cyclic shifts c.

    Zero (to rounding) for any table whose entries depend only on the outcome
    sum mod d, as the entangled-state tables do.  Any two entries with the
    same outcome sum k are one shift apart, so this is the largest spread
    max - min within a class, read from the class gather of the entries
    (m, (k - m) mod d).
    """
    by_sum = _outcome_classes(t.p, 1)
    return float((by_sum.max(axis=-1) - by_sum.min(axis=-1)).max())


def spin_projection_distribution(d) -> np.ndarray:
    """Spin-projection distribution of the canonical table, indexed by k = S - S_z.

    q[k] = 1 / (2 d^2 sin^2(pi (k + 1/4) / d)); equals the outcome-sum
    distribution of any canonical setting pair and sums to 1.
    """
    d = check_dimension(d)
    check_array_size(d, 8 * d)
    k = np.arange(d)
    return 1.0 / (2 * d ** 2 * np.sin(np.pi * (k + 0.25) / d) ** 2)


def canonical_correlation(d) -> float:
    """Correlation value Q shared (up to sign) by all four canonical setting pairs."""
    d = check_dimension(d)
    s = (d - 1) / 2.0
    q = spin_projection_distribution(d)
    return float(((s - np.arange(d)) * q).sum() / s)


def quantum_bell_value(d) -> float:
    """Bell expression of the canonical table: all four pairs contribute equally."""
    return 4.0 * canonical_correlation(d)
