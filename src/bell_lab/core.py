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
arithmetic alongside the floating-point path.  An exact table keeps integer
numerators over one denominator: int64 while every exact sum taken of them
fits in int64 and their float quotients are correctly rounded, Python ints
otherwise (see ``JointProbabilityTable``).  Bell-type values weigh a table
by the integer weights of one rule, ``_pair_weights``: ``bell_weights(d)``
on the sum mapping, CGLMP's on the difference mapping.  ``_value`` evaluates
them: one integer dot product on an exact table, ``_weighted_value``'s float
sum per pair on any other.  A table is checked once, when it is made; the
evaluators take it as a valid behaviour.
"""

from __future__ import annotations

import json
import math
import operator
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

# Bounds of the int64 storage of exact numerators (see JointProbabilityTable).
_FLOAT_EXACT_LIMIT = 2**53
_INT64_LIMIT = 2**63


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
    """``np.random.default_rng(seed)`` for a non-negative integer seed; a bool is not one."""
    if not isinstance(seed, Integral) or isinstance(seed, bool) or seed < 0:
        raise SeedError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed)


def _check_setting(i) -> int:
    """i as an int, if it is a Python int or a numpy integer equal to 1 or 2; a bool or a float is neither."""
    if (type(i) is not int and not isinstance(i, np.integer)) or i not in (1, 2):
        raise ValueError(f"setting index must be 1 or 2, got {i!r}")
    return int(i)


def spin(d) -> Fraction:
    """Effective spin S = (d - 1) / 2 of a d-outcome measurement."""
    return Fraction(check_dimension(d) - 1, 2)


def _pair_sum(values):
    """The four setting-pair values, in ``SETTING_PAIRS`` order, summed with ``PAIR_SIGNS``."""
    return sum(s * v for s, v in zip(PAIR_SIGNS, values))


class OutcomeMapping:
    """A map g(a, b) of outcome pairs onto {0, ..., d-1}, bijective in each argument.

    The d x d integer table ``table[a, b] = g(a, b)`` is therefore a Latin
    square.  A custom mapping is given by its table, which the constructor
    checks: an integer array, or nested Python ints and numpy integers (a
    bool, a float or a string is none).  The named mappings, ``sum_mapping``
    (a + b) mod d and ``difference_mapping`` (a - b) mod d, are Latin squares
    by construction: they are evaluated by arithmetic and build their table
    only when ``table`` is first read.  That arithmetic is Python's ``+`` and
    ``-``, so on Python ints of any size it is exact, and on arrays numpy's.
    """

    def __init__(self, d, table, name: str = "custom"):
        d = check_dimension(d)
        if not (isinstance(table, np.ndarray) and table.dtype.kind in "iu"):
            table = np.array(table, dtype=object)
            if not all((type(x) is int or isinstance(x, np.integer)) and 0 <= x < d for x in table.flat):
                raise MappingError(f"mapping entries must be integers in 0..{d - 1}")
        table = np.array(table, dtype=np.int64)  # a copy: the caller's array stays writeable
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
        return cls._modular(d, operator.add, "sum")

    @classmethod
    def difference_mapping(cls, d) -> "OutcomeMapping":
        return cls._modular(d, operator.sub, "difference")

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


def _pair_weights(d, k: int, g):
    """The one Bell weight rule: pair k = 2(i - 1) + (j - 1) weighs g by ``PAIR_SIGNS[k]`` * ((d - 1) - 2m).

    Over d - 1 this is the spin weight (S - m) / S of m = (o_ij * g) mod d, o_ij in ``PAIR_ORIENT``.
    Elementwise on g in 0..d - 1, so a reversed m is (d - g) * [g != 0] and no division runs.
    """
    if PAIR_ORIENT[k] < 0:
        g = (d - g) * (g != 0)
    w = (d - 1) - 2 * g
    return -w if PAIR_SIGNS[k] < 0 else w


def _signed_weights(d: int, g: np.ndarray) -> np.ndarray:
    """The four pairs' ``_pair_weights`` at the cells ``g``: pairs on the first two axes, cells on the rest."""
    return np.stack([_pair_weights(d, k, g) for k in range(4)]).reshape(2, 2, *g.shape)


@lru_cache(maxsize=8)
def bell_weights(d) -> np.ndarray:
    """The weight rule on the sum mapping's table: Bell numerators over the denominator d - 1.

    Each pair times its sign is its kernel 2 * f_ij(m, n), which ``correlation``
    reads; the whole gives I = sum(bell_weights(d) * p) / (d - 1).  A read-only
    int64 (2, 2, d, d) array, cached for the eight dimensions used last.  Each
    row of each pair is a permutation of the weights +-((d - 1) - 2k), so each
    pair sums to zero.
    """
    d = check_dimension(d)
    weights = _signed_weights(d, OutcomeMapping.sum_mapping(d).table)
    weights.setflags(write=False)
    return weights


def _check_probabilities(p: np.ndarray, tol: float) -> None:
    """The gate of float probabilities: finite, none below -tol, pair sums within tol of 1.

    ``p`` has the setting pairs on its first two axes and a pair's
    probabilities on the rest: a (2, 2, d, d) table or the (2, 2, d)
    outcome-sum distributions of ``quantum.sum_distributions``.
    """
    if not np.isfinite(p).all():
        raise NormalizationError("table contains non-finite entries")
    if p.min() < -tol:
        raise NormalizationError(f"table contains negative entries (min {p.min():.3e})")
    with np.errstate(over="ignore"):  # a sum past the float range is inf, and fails below
        worst = np.abs(p.sum(axis=tuple(range(2, p.ndim))) - 1.0).max()
    if worst > tol:
        raise NormalizationError(
            f"each setting pair must sum to 1 (worst deviation {worst:.3e}, tolerance {tol:.0e})"
        )


@dataclass(frozen=True, eq=False)
class JointProbabilityTable:
    """Joint outcome distributions for the four setting pairs.

    ``p[i-1, j-1, m, n]`` is the probability that the first party gets m and
    the second gets n when settings (i, j) are used.  The constructor, which
    every route to a table calls, is the one place a table is checked: d, the
    (2, 2, d, d) shape, finite non-negative entries and pair sums of 1 within
    ``_tol`` (set only by ``from_array``).  It stores read-only copies.  An
    exact table is made from ``numerators`` alone, integers whose four pairs
    sum to one ``denominator``, and its ``p`` is computed from them.  They
    are stored as int64 when the denominator is at most 2**53 and
    4(d - 1) * denominator < 2**63, and as Python ints (dtype object)
    otherwise.  The first bound makes every numerator and the denominator
    exact in float64, so ``p`` holds the correctly rounded quotients, the
    bits Python-int division gives.  The second bounds the kernel sums the
    evaluators take: a pair's weights lie within +-(d - 1) and its
    numerators sum to the denominator, so no sum over the four pairs wraps.
    Python ints keep correlations of rational mixtures exact when the
    denominator passes those bounds.  The input may be an integer array of
    any dtype or nested sequences of Python ints; it is read as Python ints,
    so one check raises the same error whatever the input's dtype and no
    pair sum wraps around, and the storage rule alone picks the dtype.
    Tables compare and hash by identity: their arrays have no single truth
    value to compare by.
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
            _check_probabilities(p, _tol)
            p = p.copy()
        else:
            if self.p is not None:
                raise TypeError("an exact table takes numerators only: p is computed from them")
            numerators = np.array(self.numerators, dtype=object)  # Python ints: no sum wraps
            if numerators.shape != shape or set(map(type, numerators.flat)) != {int}:
                raise TableFormatError(f"expected {shape} Python-int numerators, got {numerators.shape}")
            if numerators.min() < 0:
                raise NormalizationError("exact table contains negative entries")
            sums = numerators.sum(axis=(2, 3)).ravel().tolist()
            denominator = sums[0]
            for (i, j), total in zip(SETTING_PAIRS, sums):
                if total != denominator or denominator == 0:
                    raise NormalizationError(
                        f"setting pair ({i},{j}) sums to {Fraction(total, denominator or 1)}, expected 1"
                    )
            small = denominator <= _FLOAT_EXACT_LIMIT and 4 * (d - 1) * denominator < _INT64_LIMIT
            numerators = numerators.astype(np.int64 if small else object)
            numerators.setflags(write=False)
            p = (numerators / denominator).astype(float, copy=False)
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
        included); each setting pair must sum to exactly 1.  The shape is
        checked first, then each entry, and the entries are put over the lcm
        of their denominators.  The pair sums are taken in Python ints, so an
        int64 or uint64 pair cannot wrap around to 1.
        """
        entries = np.array(tables, dtype=object)
        if entries.ndim != 4 or entries.shape[:3] != (2, 2, entries.shape[3]):
            raise TableFormatError(f"expected [2][2][d][d] nested entries, got shape {entries.shape}")
        d = check_dimension(entries.shape[-1])
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

        Each setting pair's shape is checked against ``"d"``, and each of its
        entries must be an int or a float, before it is copied into its place
        in the (2, 2, d, d) array.
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
        p = None
        for (i, j), key in zip(SETTING_PAIRS, PAIR_KEYS):
            if key not in tables:
                raise TableFormatError(f'missing setting pair "{key}"')
            sub = tables[key]
            try:
                arr = np.asarray(sub, dtype=float)
            except (TypeError, ValueError) as exc:
                raise TableFormatError(f'setting pair "{key}" is not numeric') from exc
            except OverflowError as exc:  # an integer literal beyond the float range
                raise TableFormatError(f'setting pair "{key}" has an entry too large for a float') from exc
            if arr.shape != (d, d):
                raise TableFormatError(
                    f'setting pair "{key}" has shape {arr.shape}, expected ({d}, {d})'
                )
            # the float conversion above also reads "0.25", true and null
            if not all(set(map(type, row)) <= {int, float} for row in sub):
                raise TableFormatError(f'setting pair "{key}" has an entry that is not a JSON number')
            if p is None:  # only now: a huge "d" over small pairs fails the shape check, not here
                p = np.empty((2, 2, d, d))
            p[i - 1, j - 1] = arr
        return cls.from_array(p, tol=FILE_TOL)


def random_table(d: int, rng: np.random.Generator) -> JointProbabilityTable:
    """Random float table: each setting pair holds uniform weights in [0, 1) over their sum."""
    x = rng.random((2, 2, d, d))
    x /= x.sum(axis=(2, 3), keepdims=True)
    return JointProbabilityTable.from_array(x)


def random_rational_table(d: int, rng: np.random.Generator) -> JointProbabilityTable:
    """Random exact table: each setting pair holds integer weights 1..9 over their sum.

    It is the table ``from_fractions`` makes of the entries Fraction(w, T),
    T the pair's total, built without them: with G = gcd(T, the pair's
    weights) and L the lcm of the four T // G, entry w is
    (w // G) * (L // (T // G)) over L, in Python ints; the constructor picks their storage.
    """
    weights = np.stack([rng.integers(1, 10, size=(d, d)) for _ in range(4)])
    totals = weights.sum(axis=(1, 2)).tolist()
    gcds = [math.gcd(total, int(np.gcd.reduce(w, axis=None))) for total, w in zip(totals, weights)]
    denominator = math.lcm(*(total // g for total, g in zip(totals, gcds)))
    nums = [(w // g).astype(object) * (denominator // (t // g)) for w, t, g in zip(weights, totals, gcds)]
    return JointProbabilityTable(d, numerators=np.reshape(nums, (2, 2, d, d)))


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
    del text  # the parsed lists and the table's array are all the read holds
    return JointProbabilityTable.from_json_dict(obj)


def _value(t: JointProbabilityTable, weights: np.ndarray, pair=np.s_[:, :]) -> Fraction | float:
    """The pairs ``pair`` of the table weighed by ``weights`` over d - 1, of the table's type.

    An exact table takes one integer dot product, kept from wrapping by its storage rule.
    """
    if t.is_exact:
        return Fraction(int(np.vdot(t.numerators[pair], weights)), t.denominator * (t.d - 1))
    return _weighted_value(weights, t.p[pair])


def _weighted_value(weights: np.ndarray, p: np.ndarray) -> float:
    """Each pair's float((w * q).sum()) / (d - 1), summed in ``SETTING_PAIRS`` order.

    The pairs lie on the first two axes, of a table or of ``sum_distributions``.
    """
    d, cells = p.shape[-1], p.shape[2:]
    pairs = zip(weights.reshape(-1, *cells), p.reshape(-1, *cells))
    return sum(float((w * q).sum()) / (d - 1) for w, q in pairs)


def correlation(t: JointProbabilityTable, i: int, j: int) -> Fraction | float:
    """Kernel-weighted correlation Q_ij of a setting pair: a ``Fraction`` on an exact table, else a float.

    The pair's ``bell_weights`` times its sign, in integers: a float negation would give -0.0.
    """
    i, j = _check_setting(i), _check_setting(j)
    pair = np.s_[i - 1 : i, j - 1 : j]
    return _value(t, PAIR_SIGNS[SETTING_PAIRS.index((i, j))] * bell_weights(t.d)[pair], pair)


def bell_expression(t: JointProbabilityTable) -> Fraction | float:
    """Bell expression I = Q_11 + Q_12 - Q_21 + Q_22, of the type ``correlation`` returns."""
    return _value(t, bell_weights(t.d))


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
    return moment, moment.real + PAIR_ORIENT[SETTING_PAIRS.index((i, j))] * moment.imag / np.sqrt(3.0)


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
    """Sums of ``p`` over the classes (sig * g(m, n)) mod d in flat order: bincount's bits, or exact ints."""
    sums = np.zeros(mapping.d, dtype=p.dtype)
    np.add.at(sums, ((sig * mapping.table) % mapping.d).ravel(), p.ravel())
    return sums


def bell_from_spin_correlations(t: JointProbabilityTable, mapping: OutcomeMapping) -> Fraction | float:
    """Bell expression assembled from mapped spin correlations.

    Each pair reads its mapped outcome with the orientation in
    ``PAIR_ORIENT``, the negative convention for the reversed pair (1,2):

        I = (1/S) * [C+(1,1) + C-(1,2) - C+(2,1) + C+(2,2)].

    C(i,j) weighs the class sums N_k of k = (o_ij * g(m, n)) mod d by the spin
    S - k; on an exact table I = sum(sign * sum_k ((d - 1) - 2k) * N_k) over
    denominator * (d - 1).  No Bell weight is read: with the sum mapping this
    checks ``bell_expression``.
    """
    if mapping.d != t.d:
        raise MappingError(f"mapping is for d={mapping.d}, table has d={t.d}")
    d = t.d
    cells = (t.numerators if t.is_exact else t.p).reshape(4, d, d)
    sums = [_mapped_distribution(q, mapping, o) for q, o in zip(cells, PAIR_ORIENT)]
    if t.is_exact:
        doubled = (d - 1) - 2 * np.arange(d).astype(cells.dtype)
        return Fraction(int(_pair_sum((doubled * n).sum() for n in sums)), t.denominator * (d - 1))
    spins = (d - 1) / 2.0 - np.arange(d)
    return _pair_sum(float((spins * n).sum()) for n in sums) / ((d - 1) / 2.0)


def _outcome_classes(p: np.ndarray, sig: int) -> np.ndarray:
    """Class gather: [..., c, m] is p[..., m, (sig * (c - m)) mod d], sum class c at sig 1, difference at -1.

    C-contiguous, as numpy's (2, 2, d, d) gather is not, so a class of the whole table, which
    ``cglmp_expression`` reads, sums over m to the bits of that class of one pair.
    """
    m = np.arange(p.shape[-1])
    return np.ascontiguousarray(p[..., m, (sig * (m[:, None] - m)) % len(m)])


def difference_distribution(t: JointProbabilityTable, i: int, j: int) -> np.ndarray:
    """Distribution of the outcome difference: entry c is P(m - n congruent to c mod d), summed over m."""
    return _outcome_classes(t.subtable(i, j), -1).sum(axis=-1)


def difference_probability(t: JointProbabilityTable, i: int, j: int, c: int) -> float:
    """P(first outcome minus second outcome is congruent to c mod d)."""
    return float(difference_distribution(t, i, j)[c % t.d])


def _cglmp_value(dists: np.ndarray) -> float:
    """The CGLMP value of (2, 2, d) class distributions: each pair's fold with its ``PAIR_ORIENT``, signed.

    Pair (i, j) with orientation e folds its distribution q as

        sum_{k=0}^{floor(d/2)-1} (1 - 2k/(d-1)) * [q((k * e) mod d) - q((-k - 1) * e mod d)],

    the probability-difference correlation of Collins et al. when q is the
    outcome-difference distribution.  One accumulate adds each fold's terms
    to 0.0 in k order: the float operations of a loop over k.
    """
    d = dists.shape[-1]
    q, e, k = dists.reshape(4, d), np.reshape(PAIR_ORIENT, (4, 1)), np.arange(d // 2)
    rows = np.arange(4)[:, None]
    terms = np.zeros((4, len(k) + 1))
    terms[:, 1:] = (1.0 - 2.0 * k / (d - 1)) * (q[rows, k * e % d] - q[rows, (-k - 1) * e % d])
    return _pair_sum(np.add.accumulate(terms, axis=1)[:, -1].tolist())


def cglmp_expression(t: JointProbabilityTable) -> Fraction | float:
    """Bell expression of the probability-difference correlations of Collins et al.

    On an exact table it is one exact dot with the difference mapping's
    weights; on a float table ``_cglmp_value`` of the four difference
    distributions, read by one class gather of the table.
    """
    if t.is_exact:
        return _value(t, _signed_weights(t.d, OutcomeMapping.difference_mapping(t.d).table))
    return _cglmp_value(_outcome_classes(t.p, -1).sum(axis=-1))


def _sum_class_bell(dists: np.ndarray) -> float:
    """``bell_expression`` of a table whose entries depend only on the outcome sum, in O(d).

    ``dists[i-1, j-1, k]`` is the probability that (m + n) mod d = k, as
    ``quantum.sum_distributions`` returns it; the weight rule on the classes
    k, row m = 0 of ``bell_weights``, weights it.
    """
    d = dists.shape[-1]
    return _weighted_value(_signed_weights(d, np.arange(d)), dists)
