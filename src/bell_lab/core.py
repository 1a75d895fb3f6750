"""Correlation kernel and Bell expression for two d-outcome measurements per side.

Two parties each pick one of two settings; every measurement has outcomes in
{0, ..., d-1}.  A behaviour is a table of four d x d joint distributions, one
per setting pair (i, j).  Each setting pair gets a correlation value

    Q_ij = (1/S) * sum_{m,n} f_ij(m, n) * p_ij(m, n),    S = (d - 1) / 2,

with kernel f_ij(m, n) = S - ((o_ij * (m + n)) mod d), where the orientation
o_ij is -1 for the reversed pair (1,2) and +1 otherwise.  The kernel is the
spin weight of the outcome-sum mapping.  The Bell expression is
I = Q_11 + Q_12 - Q_21 + Q_22.

All kernel weights are rationals with denominator d - 1 (after doubling), so
correlations of exactly-represented tables can be evaluated in exact rational
arithmetic alongside the floating-point path.  A table is checked once, when
it is made; the evaluators take it as a valid behaviour.
"""

from __future__ import annotations

import json
import math
from dataclasses import KW_ONLY, InitVar, dataclass, field
from fractions import Fraction
from functools import lru_cache
from numbers import Integral, Rational
from pathlib import Path

import numpy as np

from .errors import DimensionError, MappingError, NormalizationError, SeedError, TableFormatError

SETTING_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))
PAIR_KEYS = ("11", "12", "21", "22")
# Coefficients of Q_11, Q_12, Q_21, Q_22 in the Bell expression.
PAIR_SIGNS = (1, 1, -1, 1)
# Orientation of each pair's mapped outcome: the reversed pair (1,2) reads -g.
PAIR_ORIENT = (1, -1, 1, 1)

# Tables built in memory must be normalized to near machine precision;
# tables parsed from text files get a looser gate.
INTERNAL_TOL = 1e-12
FILE_TOL = 1e-9


def check_dimension(d) -> int:
    if not isinstance(d, Integral) or isinstance(d, bool):
        raise DimensionError(f"outcome count must be an integer, got {d!r}")
    d = int(d)
    if d < 2:
        raise DimensionError(f"outcome count must be at least 2, got {d}")
    return d


def check_array_size(d: int, nbytes: int) -> None:
    """Raise ``DimensionError`` if an array of ``nbytes`` bytes for d exceeds numpy's largest array."""
    if nbytes > np.iinfo(np.intp).max:
        raise DimensionError(f"d = {d} is too large: its arrays exceed the largest array")


def seeded_rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)`` for a non-negative integer seed."""
    if not isinstance(seed, Integral) or seed < 0:
        raise SeedError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed)


def _check_setting(i) -> int:
    if i not in (1, 2):
        raise ValueError(f"setting index must be 1 or 2, got {i!r}")
    return int(i)


def spin(d) -> Fraction:
    """Effective spin S = (d - 1) / 2 of a d-outcome measurement."""
    return Fraction(check_dimension(d) - 1, 2)


def _pair_sum(values):
    """The four setting-pair values, in ``SETTING_PAIRS`` order, summed with ``PAIR_SIGNS``."""
    return sum(s * v for s, v in zip(PAIR_SIGNS, values))


def _orient(i: int, j: int) -> int:
    """Orientation of setting pair (i, j) from ``PAIR_ORIENT``: -1 for the reversed pair (1,2)."""
    return PAIR_ORIENT[2 * (i - 1) + (j - 1)]


class OutcomeMapping:
    """A map g(a, b) of outcome pairs onto {0, ..., d-1}, bijective in each argument.

    The d x d integer table ``table[a, b] = g(a, b)`` is therefore a Latin
    square.  A custom mapping is given by its table, which the constructor
    checks.  The named mappings, ``sum_mapping`` (a + b) mod d and
    ``difference_mapping`` (a - b) mod d, are Latin squares by construction:
    they are evaluated by arithmetic and build their table only when
    ``table`` is first read.
    """

    def __init__(self, d, table, name: str = "custom"):
        d = check_dimension(d)
        table = np.asarray(table, dtype=np.int64)
        if table.shape != (d, d):
            raise MappingError(f"mapping table must be {d}x{d}, got {table.shape}")
        expect = np.arange(d)
        if not (np.sort(table, axis=1) == expect).all():
            raise MappingError("mapping is not bijective in the second argument")
        if not (np.sort(table, axis=0) == expect[:, None]).all():
            raise MappingError("mapping is not bijective in the first argument")
        table.setflags(write=False)
        self.d, self.name, self._table, self._combine = d, name, table, None

    @classmethod
    def _modular(cls, d, combine, name) -> "OutcomeMapping":
        mapping = cls.__new__(cls)
        mapping.d, mapping.name, mapping._table, mapping._combine = check_dimension(d), name, None, combine
        return mapping

    @classmethod
    def sum_mapping(cls, d) -> "OutcomeMapping":
        return cls._modular(d, np.add, "sum")

    @classmethod
    def difference_mapping(cls, d) -> "OutcomeMapping":
        return cls._modular(d, np.subtract, "difference")

    def __call__(self, a, b):
        """g(a, b), elementwise over integers or integer arrays that broadcast together."""
        if self._combine is None:
            return self._table[a, b]
        return self._combine(a, b) % self.d

    @property
    def table(self) -> np.ndarray:
        """The read-only int64 d x d table; a named mapping builds it on first read."""
        if self._table is None:
            check_array_size(self.d, 8 * self.d**2)
            a = np.arange(self.d)
            table = self(a[:, None], a)
            table.setflags(write=False)
            self._table = table
        return self._table

    def __repr__(self) -> str:
        return f"OutcomeMapping(d={self.d}, name={self.name!r})"


def _spin_weights(d: int, g: np.ndarray) -> np.ndarray:
    """Doubled spin weights (d - 1) - 2k of k = (o_ij * g) mod d, as int64 (2, 2, d, d).

    Over the denominator d - 1 they are (S - k) / S, the weight of the
    synthetic spin projection S - k of the mapped outcome g(m, n).
    """
    orient = np.reshape(PAIR_ORIENT, (2, 2, 1, 1))
    return (d - 1) - 2 * ((orient * g) % d)


@lru_cache(maxsize=None)
def correlation_kernel(d) -> np.ndarray:
    """Kernel numerators 2 * f_ij(m, n) at ``[i-1, j-1, m, n]``, over the denominator d - 1.

    They are the spin weights of the sum mapping, returned as one cached
    read-only int64 (2, 2, d, d) array.
    """
    d = check_dimension(d)
    kern = _spin_weights(d, OutcomeMapping.sum_mapping(d).table)
    kern.setflags(write=False)
    return kern


@dataclass(frozen=True)
class JointProbabilityTable:
    """Joint outcome distributions for the four setting pairs.

    ``p[i-1, j-1, m, n]`` is the probability that the first party gets m and
    the second gets n when settings (i, j) are used.  The constructor, which
    every route to a table calls, is the one place a table is checked: d, the
    (2, 2, d, d) shape, finite non-negative entries and pair sums of 1 within
    ``_tol`` (set only by ``from_array``).  It stores read-only copies.  An
    exact table is made from ``numerators`` alone, Python ints whose four
    pairs sum to one ``denominator``, and its ``p`` is computed from them.
    Python ints keep correlations of point masses, uniform noise and rational
    mixtures exact even when the denominator passes 2**63.
    """

    d: int
    p: np.ndarray | None = None
    numerators: np.ndarray | None = None
    _: KW_ONLY
    _tol: InitVar[float] = INTERNAL_TOL
    denominator: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self, _tol: float):
        d = check_dimension(self.d)
        shape = (2, 2, d, d)
        if self.numerators is None:
            p = np.asarray(self.p, dtype=float)
            if p.shape != shape:
                raise TableFormatError(f"expected shape {shape}, got {p.shape}")
            if not np.isfinite(p).all():
                raise NormalizationError("table contains non-finite entries")
            if p.min() < -_tol:
                raise NormalizationError(f"table contains negative entries (min {p.min():.3e})")
            worst = np.abs(p.sum(axis=(2, 3)) - 1.0).max()
            if worst > _tol:
                raise NormalizationError(
                    f"each setting pair must sum to 1 (worst deviation {worst:.3e}, tolerance {_tol:.0e})"
                )
            p = p.copy()
        else:
            if self.p is not None:
                raise TypeError("an exact table takes numerators only: p is computed from them")
            numerators = np.array(self.numerators, dtype=object)
            if numerators.shape != shape or set(map(type, numerators.flat)) != {int}:
                raise TableFormatError(f"expected {shape} Python-int numerators, got {numerators.shape}")
            if numerators.min() < 0:
                raise NormalizationError("exact table contains negative entries")
            sums = numerators.sum(axis=(2, 3))
            denominator = sums[0, 0]
            for si, sj in np.ndindex(2, 2):
                if sums[si, sj] != denominator or denominator == 0:
                    raise NormalizationError(
                        f"setting pair ({si + 1},{sj + 1}) sums to "
                        f"{Fraction(sums[si, sj], denominator or 1)}, expected 1"
                    )
            numerators.setflags(write=False)
            p = (numerators / denominator).astype(float)
            vars(self).update(numerators=numerators, denominator=denominator)  # frozen: set via __dict__
        p.setflags(write=False)
        vars(self).update(d=d, p=p)

    @classmethod
    def from_array(cls, p, tol: float = INTERNAL_TOL) -> "JointProbabilityTable":
        p = np.asarray(p, dtype=float)
        if p.ndim != 4:
            raise TableFormatError(f"expected a 4-axis array, got {p.ndim} axes")
        return cls(p.shape[-1], p, _tol=tol)

    @classmethod
    def from_fractions(cls, tables) -> "JointProbabilityTable":
        """Build an exactly-represented table.

        ``tables`` is indexed [i-1][j-1][m][n] with rational entries (ints
        included); each setting pair must sum to exactly 1.  An integer numpy
        array is taken in one vectorised step: its entries become Python-int
        numerators over the denominator 1.  Any other input (nested
        sequences, object or bool arrays) is checked entry by entry and put
        over the lcm of its denominators.  Either way the shape is checked
        first and the pair sums are taken in Python ints, so an int64 or
        uint64 pair cannot wrap around to 1.
        """
        integer = isinstance(tables, np.ndarray) and tables.dtype.kind in "iu"
        entries = tables if integer else np.array(tables, dtype=object)
        if entries.ndim != 4 or entries.shape[:3] != (2, 2, entries.shape[3]):
            raise TableFormatError(f"expected [2][2][d][d] nested entries, got shape {entries.shape}")
        d = check_dimension(entries.shape[-1])
        if integer:
            numerators, denominator = entries.astype(object), 1
        else:
            flat = entries.ravel().tolist()
            for q in flat:
                if not isinstance(q, Rational):
                    raise TypeError(f"exact entries must be rational, got {type(q).__name__}")
            denominator = math.lcm(*(int(q.denominator) for q in flat))
            nums = [int(q.numerator) * (denominator // int(q.denominator)) for q in flat]
            numerators = np.array(nums, dtype=object).reshape(entries.shape)
        first = Fraction(numerators[0, 0].sum(), denominator)
        if first != 1:
            raise NormalizationError(f"setting pair (1,1) sums to {first}, expected 1")
        return cls(d, numerators=numerators)

    @property
    def is_exact(self) -> bool:
        return self.numerators is not None

    def subtable(self, i: int, j: int) -> np.ndarray:
        return self.p[_check_setting(i) - 1, _check_setting(j) - 1]

    def conjugate_second_party(self) -> "JointProbabilityTable":
        """Relabel the second party's outcomes n -> -n (mod d).

        This swaps the outcome-sum and outcome-difference conventions: sums of
        the relabeled table are distributed like differences of the original.
        """
        k = np.arange(self.d)
        index = np.ix_(range(2), range(2), k, (-k) % self.d)
        if self.is_exact:
            return JointProbabilityTable(self.d, numerators=self.numerators[index])
        return JointProbabilityTable(self.d, self.p[index])

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "tables": {
                key: self.p[i - 1, j - 1].tolist() for (i, j), key in zip(SETTING_PAIRS, PAIR_KEYS)
            },
        }

    @classmethod
    def from_json_dict(cls, obj) -> "JointProbabilityTable":
        """Table from a parsed JSON document, normalized to within ``FILE_TOL``.

        Each setting pair's shape is checked against ``"d"`` before the four
        pairs are stacked into the (2, 2, d, d) array.
        """
        if not isinstance(obj, dict):
            raise TableFormatError("table document must be a JSON object")
        if "d" not in obj or "tables" not in obj:
            raise TableFormatError('table document needs keys "d" and "tables"')
        d = obj["d"]
        if not isinstance(d, int) or d < 2:
            raise TableFormatError(f'"d" must be an integer >= 2, got {d!r}')
        tables = obj["tables"]
        if not isinstance(tables, dict):
            raise TableFormatError('"tables" must be an object keyed by setting pair')
        arrays = []
        for key in PAIR_KEYS:
            if key not in tables:
                raise TableFormatError(f'missing setting pair "{key}"')
            sub = tables[key]
            try:
                arr = np.asarray(sub, dtype=float)
            except (TypeError, ValueError) as exc:
                raise TableFormatError(f'setting pair "{key}" is not numeric') from exc
            if arr.shape != (d, d):
                raise TableFormatError(
                    f'setting pair "{key}" has shape {arr.shape}, expected ({d}, {d})'
                )
            arrays.append(arr)
        return cls.from_array(np.reshape(arrays, (2, 2, d, d)), tol=FILE_TOL)


def random_table(d: int, rng: np.random.Generator) -> JointProbabilityTable:
    """Random float table: each setting pair holds uniform weights in [0, 1) over their sum."""
    x = rng.random((2, 2, d, d))
    x /= x.sum(axis=(2, 3), keepdims=True)
    return JointProbabilityTable.from_array(x)


def random_rational_table(d: int, rng: np.random.Generator) -> JointProbabilityTable:
    """Random exact table: each setting pair holds integer weights 1..9 over their sum."""
    pairs = []
    for _ in range(4):
        weights = rng.integers(1, 10, size=(d, d))
        total = int(weights.sum())
        pairs.append([[Fraction(int(w), total) for w in row] for row in weights])
    return JointProbabilityTable.from_fractions([pairs[:2], pairs[2:]])


def load_table(path) -> JointProbabilityTable:
    """Read a probability table from a JSON file; each pair must sum to 1 within ``FILE_TOL``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TableFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TableFormatError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise TableFormatError(f"{path}: JSON nested too deeply to read") from exc
    return JointProbabilityTable.from_json_dict(obj)


def correlation(t: JointProbabilityTable, i: int, j: int) -> Fraction | float:
    """Kernel-weighted correlation Q_ij of one setting pair.

    A ``Fraction`` on an exact table, a float on any other.
    """
    i, j = _check_setting(i), _check_setting(j)
    num = correlation_kernel(t.d)[i - 1, j - 1]
    if t.is_exact:
        total = (t.numerators[i - 1, j - 1] * num).sum()
        return Fraction(total, t.denominator * (t.d - 1))
    return float((num * t.p[i - 1, j - 1]).sum()) / (t.d - 1)


def bell_expression(t: JointProbabilityTable) -> Fraction | float:
    """Bell expression I = Q_11 + Q_12 - Q_21 + Q_22, of the type ``correlation`` returns."""
    return _pair_sum(correlation(t, i, j) for i, j in SETTING_PAIRS)


def qutrit_complex_correlation(t: JointProbabilityTable, i: int, j: int):
    """Three-outcome correlation as a complex moment plus its real recombination.

    For d = 3 the kernel correlation can be packaged as the complex moment
    Qbar = sum_{m,n} alpha^(m+n) p(m, n) with alpha = exp(2 pi i / 3).  The
    recombination Re(Qbar) + o * Im(Qbar) / sqrt(3), with the pair's
    orientation o from ``PAIR_ORIENT``, equals the kernel value.

    Returns (complex moment, recombined real value).
    """
    if t.d != 3:
        raise DimensionError(f"complex correlation is specific to 3 outcomes, got d={t.d}")
    p = t.subtable(i, j)
    alpha = np.exp(2j * np.pi / 3)
    m, n = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
    moment = complex((alpha ** (m + n) * p).sum())
    return moment, moment.real + _orient(int(i), int(j)) * moment.imag / np.sqrt(3.0)


def mapped_spin_distribution(t: JointProbabilityTable, i: int, j: int, mapping: OutcomeMapping) -> np.ndarray:
    """Distribution of the mapped outcome value, indexed by k = S - S_z.

    Entry k is the probability that g(m, n) is congruent to k mod d, i.e.
    that the synthetic spin projection S_z = S - k is observed (spin values
    run from +S at k = 0 down to -S at k = d - 1).  With the sum mapping it
    is the outcome-sum distribution.
    """
    if mapping.d != t.d:
        raise MappingError(f"mapping is for d={mapping.d}, table has d={t.d}")
    return _mapped_distribution(t.subtable(i, j), mapping, 1)


def _mapped_distribution(p: np.ndarray, mapping: OutcomeMapping, sig: int) -> np.ndarray:
    """Distribution of (sig * g(m, n)) mod d over the pair's probabilities ``p``."""
    classes = (sig * mapping.table) % mapping.d
    return np.bincount(classes.ravel(), weights=p.ravel(), minlength=mapping.d)


def bell_from_spin_correlations(t: JointProbabilityTable, mapping: OutcomeMapping) -> Fraction | float:
    """Bell expression assembled from mapped spin correlations.

    Each pair reads its mapped outcome with the orientation in
    ``PAIR_ORIENT``, the negative convention for the reversed pair (1,2):

        I = (1/S) * [C+(1,1) + C-(1,2) - C+(2,1) + C+(2,2)].

    With the outcome-sum mapping the weights are the kernel itself, so this
    reproduces ``bell_expression`` exactly.
    """
    if mapping.d != t.d:
        raise MappingError(f"mapping is for d={mapping.d}, table has d={t.d}")
    if t.is_exact:
        signs = np.reshape(PAIR_SIGNS, (2, 2, 1, 1))
        total = (t.numerators * (signs * _spin_weights(t.d, mapping.table))).sum()
        return Fraction(total, t.denominator * (t.d - 1))
    spins = (t.d - 1) / 2.0 - np.arange(t.d)
    dists = (_mapped_distribution(p, mapping, o) for p, o in zip(t.p.reshape(4, t.d, t.d), PAIR_ORIENT))
    total = _pair_sum(float((spins * dist).sum()) for dist in dists)
    return total / ((t.d - 1) / 2.0)


def difference_distribution(t: JointProbabilityTable, i: int, j: int) -> np.ndarray:
    """Distribution of the outcome difference: entry c is P(m - n congruent to c mod d).

    One gather of the d diagonals; row c sums p[m, (m - c) mod d] over m in
    the same order as a per-c loop would.
    """
    p = t.subtable(i, j)
    rows = np.arange(t.d)
    return p[rows[None, :], (rows[None, :] - rows[:, None]) % t.d].sum(axis=1)


def difference_probability(t: JointProbabilityTable, i: int, j: int, c: int) -> float:
    """P(first outcome minus second outcome is congruent to c mod d)."""
    return float(difference_distribution(t, i, j)[c % t.d])


def cglmp_correlation(t: JointProbabilityTable, i: int, j: int) -> float:
    """Probability-difference correlation over outcome differences.

    Q_ij = sum_{k=0}^{floor(d/2)-1} (1 - 2k/(d-1)) *
           [P(A - B = k * e) - P(A - B = (-k - 1) * e)]   (mod d),

    where e is the pair's orientation from ``PAIR_ORIENT``.  This is the
    folded form of the spin correlation built on outcome differences.
    """
    diff = difference_distribution(t, i, j).tolist()  # subtable checks i and j
    d, e = t.d, _orient(int(i), int(j))
    total = 0.0
    for k in range(d // 2):
        coeff = 1.0 - 2.0 * k / (d - 1)
        total += coeff * (diff[(k * e) % d] - diff[((-k - 1) * e) % d])
    return total


def cglmp_expression(t: JointProbabilityTable) -> float:
    """Bell expression assembled from the probability-difference correlations."""
    return _pair_sum(cglmp_correlation(t, i, j) for i, j in SETTING_PAIRS)
