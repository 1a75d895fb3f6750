"""Exact counting of deterministic local strategies.

A strategy (a1, a2, b1, b2) has Bell numerator (d-1)*I/2: half the weights
``core._pair_weights`` gives its four cells, a part in b1 (pairs (1,1) and
(2,1)) plus a part in b2 (pairs (1,2) and (2,2)), each in -(d-1)..d-1.  Its
case code splits the same way, into a class of b1 and a class of b2, which
together index ``CLASS_CASE``.  ``strategy_values`` is the one
per-strategy formula: ``lhv.strategy_bell_value`` runs it on Python ints,
``lhv.sample_strategies`` on each drawn chunk, and the
``lhv-cross-identity`` row of ``check`` on its strategy columns.
``count_strategies`` uses the separation to summarise all d**4 strategies
from per-pair histograms, built for a block of a1 at a time, in O(d**2)
memory.  Its time is O(d**4): the products of the value histograms,
(2d-1) x d**2 by d**2 x (2d-1) in all, about 4 d**4 multiply-adds, taken in
float64 so that BLAS runs them.  They run on one OpenBLAS thread (the default
``import bell_lab`` sets): each is small, 0.2 ms at d = 64, where waking an
idle OpenBLAS worker for it took 12-16 ms (2 vCPUs).  Their float64 sum is
exact: every partial sum is a non-negative integer no larger than the d**4
strategies, and d**4 < 2**53 at every d counted.
``fill_strategy_arrays`` writes every strategy out in O(d**4) memory and is
kept as the reference the tests compare the count against.
"""

from __future__ import annotations

import numpy as np

from .core import OutcomeMapping, _pair_weights

# numba is no longer used; the flags stay for tools that still report them
HAS_NUMBA = False
USING_NUMBA = False

# case_code[n1, n2] where n1 counts how many of the sums a1+b1, a2+b2 reach d
# and n2 does the same for a1+b2, a2+b1; -1 marks infeasible combinations.
CASE_CODE = np.array(
    [
        [0, 1, -1],
        [2, 3, 4],
        [-1, 6, 5],
    ],
    dtype=np.int8,
)

# case code at 4*(class of b1) + (class of b2), where the class of b is
# 2*[a1+b >= d] + [a2+b >= d]: a1+b1 and a2+b2 count towards n1, a2+b1 and a1+b2 towards n2
_HIGH, _LOW = np.divmod(np.arange(4), 2)
CLASS_CASE = CASE_CODE[np.add.outer(_HIGH, _LOW), np.add.outer(_LOW, _HIGH)].ravel()

# int8 factor of the class bits, so that classes and the CLASS_CASE index stay int8
_TWO = np.int8(2)

# outcome cells (pairs (a1, a2) times outcomes b) per block of count_strategies
_BLOCK = 1 << 15


def row_dtype(d):
    """Integer dtype of (a1, a2, b1, b2) outcome rows: int16 while it holds 0..d-1."""
    return np.int16 if d <= 1 << 15 else np.int64


def _part(g, j, a1, a2, b):
    """Half the weights of pairs (1, j+1) and (2, j+1) at b, and the class of b: b1 at j = 0, b2 at j = 1."""
    d = g.d
    half = (_pair_weights(d, j, g(a1, b)) + _pair_weights(d, 2 + j, g(a2, b))) >> 1
    return half, _TWO * (a1 + b >= d) + (a2 + b >= d)


def strategy_values(g, a1, a2, b1, b2):
    """Bell numerators (d-1)*I/2 and case codes of strategies.

    The four outcome arguments are integer arrays that broadcast together,
    or Python ints; ``g`` is the ``OutcomeMapping``.
    """
    x, u = _part(g, 0, a1, a2, b1)
    y, v = _part(g, 1, a1, a2, b2)
    return x + y, CLASS_CASE[4 * u + v]


def fill_strategy_arrays(d, g, out_num, out_case, a1_lo, a1_hi):
    """Fill Bell numerators and case codes for strategies with a1 in [a1_lo, a1_hi).

    ``out_num[s]`` receives (d-1)*I(s)/2 for the strategy with lexicographic
    index s = ((a1*d + a2)*d + b1)*d + b2; ``out_case[s]`` receives the case
    code of the sum structure (see CASE_CODE).  ``g`` is the d x d mapping
    table, read by gathers.
    """
    g = OutcomeMapping(d, g)
    a = np.arange(d)
    num, case = strategy_values(g, a[a1_lo:a1_hi, None, None, None], a[:, None, None], a[:, None], a)
    block = d * d * d
    out_num[a1_lo * block : a1_hi * block] = num.reshape(-1)
    out_case[a1_lo * block : a1_hi * block] = case.reshape(-1)


def count_strategies(g):
    """Counts over all d**4 strategies of an ``OutcomeMapping``.

    Takes O(d**2) memory beside one block of a1 (``_BLOCK`` outcome cells)
    and O(d**4) time, exact as the module docstring says.

    Returns ``(values, cases, argmax_rows)``: ``values[k]`` counts the
    strategies with Bell numerator k - 2(d-1), ``cases[c]`` those with case
    code c, and ``argmax_rows()`` decodes the maximizing strategies as
    (a1, a2, b1, b2) rows of ``row_dtype(d)`` in lexicographic order, a block
    of maximizing pairs at a time, into the array it returns.
    """
    d = g.d
    a = np.arange(d)
    step = max(1, _BLOCK // (d * d))
    # both halves lie in -(d-1)..d-1; shifted by d-1, each indexes 2d-1 bins
    width = 2 * d - 1
    joint, by_class, top = np.zeros((width, width)), np.zeros((4, 4), np.int64), np.empty((d, d), np.int64)

    def per_pair(keys, width):
        # histogram of keys in 0..width-1 for each pair (a1, a2) of the block, shape (pairs, width)
        pair = np.arange(keys.shape[0] * d).reshape(-1, d, 1) * width
        return np.bincount((pair + keys).ravel(), minlength=pair.size * width).reshape(-1, width)

    for lo in range(0, d, step):
        # axes (a1, a2, b) for the a1 of the block: b is b1 for x and u, b2 for y and v
        x, u = _part(g, 0, a[lo : lo + step, None, None], a[:, None], a)
        y, v = _part(g, 1, a[lo : lo + step, None, None], a[:, None], a)
        hx, hy = (per_pair(h + (d - 1), width).astype(np.float64) for h in (x, y))
        joint += hx.T @ hy
        by_class += per_pair(u, 4).T @ per_pair(v, 4)
        top[lo : lo + step] = x.max(axis=2) + y.max(axis=2)
    # joint[i, j] has numerator i + j - 2(d-1): sum its anti-diagonals
    i = np.arange(width)
    values = np.bincount(np.add.outer(i, i).ravel(), joint.ravel()).astype(np.int64)

    feasible = CLASS_CASE >= 0
    cases = np.zeros(int(CASE_CODE.max()) + 1, dtype=np.int64)
    np.add.at(cases, CLASS_CASE[feasible], by_class.ravel()[feasible])

    a1s, a2s = np.nonzero(top == top.max())

    def argmax_rows():
        # one row per strategy at the largest numerator
        rows = np.empty((values[np.flatnonzero(values)[-1]], 4), dtype=row_dtype(d))
        start = 0
        for lo in range(0, len(a1s), step):
            p1, p2 = a1s[lo : lo + step, None], a2s[lo : lo + step, None]
            x, y = _part(g, 0, p1, p2, a)[0], _part(g, 1, p1, p2, a)[0]
            # a pair at the maximum attains it where x and y both reach their own maxima
            x_ties, y_ties = x == x.max(axis=1, keepdims=True), y == y.max(axis=1, keepdims=True)
            k, b1, b2 = np.nonzero(x_ties[:, :, None] & y_ties[:, None, :])
            rows[start : start + len(k)] = np.stack((p1[k, 0], p2[k, 0], b1, b2), axis=1)
            start += len(k)
        return rows

    return values, cases, argmax_rows
