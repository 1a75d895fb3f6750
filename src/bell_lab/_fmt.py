"""The text of ``float.__repr__`` for a block of float64 values, computed in numpy.

``join_rows(block, sep, row_sep)`` returns
``row_sep.join(sep.join(map(float.__repr__, row)) for row in block)``, byte for
byte.  Table entries need 14 to 17 significant digits, where CPython's dtoa
takes its slow bignum path (about 1.5 us a float); here they cost a few
numpy passes over the block.

repr prints the shortest decimal that reads back as x and, among those of
that length, the one nearest x.  The values that read back as a normal
double x form the interval of half an ulp around it, symmetric unless x is a
power of two.  In a symmetric interval the nearest n-digit decimal is inside
whenever any n-digit decimal is, so repr's digits are the nearest n-digit
decimal for the least n whose nearest decimal is inside.  The fast path
finds it from V = x * 10**(16 - e), e = floor(log10 x), in [1e16, 1e17):

- V is the exact product of a Dekker split and a (hi, lo) pair of doubles for
  the power of ten (from ``Fraction``), so its integer part N17 is exact and
  its fraction is off by less than 1e-14; the half ulp is about 0.55 to 11 in
  units of V.
- The nearest 13- to 16-digit decimals follow from the last four digits of
  N17 and the fraction, which a float64 holds exactly enough.  The nearest
  17-digit decimal is always inside.
- An entry goes to ``float.__repr__`` instead when a decision is within
  ``_TOL`` of a rounding tie or of an end of the interval, when 13 digits or
  fewer suffice, when its mantissa is a power of two (the interval is not
  symmetric), or when it is not in [1e-99, 1): zero, negative, subnormal,
  not finite, below 1e-99 (a three-digit exponent), or 1 and above (repr
  puts the decimal point among the digits).  Such entries get a stand-in
  value before any arithmetic, so no numpy warning is raised.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

import numpy as np

_E_MIN = -99  # the least decimal exponent of the fast path
_N_MIN = 14  # the fewest significant digits of the fast path
_COUNTS = range(_N_MIN, 18)  # the digit counts of the fast path
_TOL = 1e-6  # decisions this close to a tie or an interval end (units of V) go to repr
_SPLIT = float(2**27 + 1)  # Dekker's splitter for 53-bit mantissas
_MANTISSA = np.uint64(2**52 - 1)

# Every fast entry is written into the same columns, and a mask of the
# columns its layout keeps compacts it:
#   0-4   "0.000", the fixed-point prefix: "0." and one zero per place of
#         -decpt (repr prints 1e-4 <= x < 1 in fixed point)
#   5     first digit, 6 "." of exponent notation, 7 never kept
#   8-23  the other 16 digits, 24-27 "e-" and the exponent's two digits
#   28-   the separator (not after the last entry of a row), then padding
# Columns 8-27 are four-byte words, written as uint32.
_HEAD = b"0.000#.?################e-##"
_WORD = 4


@cache
def _powers() -> np.ndarray:
    """(4, 99) float64: hi, its Dekker halves and lo of 10**(16 - e), column -1 - e."""
    hi, lo = [], []
    for k in range(17, 17 - _E_MIN):
        exact = Fraction(10) ** k
        h = float(exact)
        hi.append(h)
        lo.append(float(exact - Fraction(h)))
    hi = np.array(hi)
    c = hi * _SPLIT
    hh = c - (c - hi)
    return np.stack([hi, hh, hi - hh, np.array(lo)])


@cache
def _words(prefix: str, count: int) -> np.ndarray:
    """uint32 words holding the ASCII of prefix + i zero-padded to four bytes, i < count."""
    width = _WORD - len(prefix)
    text = "".join(f"{prefix}{i:0{width}d}" for i in range(count)).encode()
    return np.frombuffer(text, dtype=np.uint32)


@cache
def _layouts(sep_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Keep masks (40, width) and their kept lengths, by layout code.

    code = (layout * 4 + n - 14) * 2 + row_end, where layout 0-3 is fixed
    point with that many zeros after "0." and 4 is exponent notation.
    """
    width = -(-(len(_HEAD) + sep_len) // _WORD) * _WORD
    keep = np.zeros((5, len(_COUNTS), 2, width), dtype=bool)
    for layout in range(5):
        for n in _COUNTS:
            mask = keep[layout, n - _N_MIN]
            if layout < 4:
                mask[:, : 2 + layout] = True
            else:
                mask[:, 6] = True
                mask[:, 24:28] = True
            mask[:, 5] = True
            mask[:, 8 : 8 + n - 1] = True
            mask[0, len(_HEAD) : len(_HEAD) + sep_len] = True
    keep = keep.reshape(-1, width)
    return keep, keep.sum(axis=1)


def _shortest(x: np.ndarray):
    """(fast, e, n, digits) of a 1-D float64 array, one value per entry.

    Where ``fast`` is set, ``e`` is the decimal exponent of x, ``n`` the
    number of significant digits repr prints and ``digits`` those n digits
    followed by zeros, as a 17-digit int64; elsewhere they are meaningless.
    """
    fast = (x >= 10.0**_E_MIN) & (x < 1.0)
    fast &= (x.view(np.uint64) & _MANTISSA) != 0  # not a power of two
    xs = np.where(fast, x, 0.75)
    e = np.clip(np.floor(np.log10(xs)), _E_MIN, -1).astype(np.int64)
    hi, hh, hl, lo = np.take(_powers(), -1 - e, axis=1)
    p = xs * hi
    c = xs * _SPLIT
    xh = c - (c - xs)
    xl = xs - xh
    # V = p + tail: the rounding error of x * hi (exact) plus x * lo
    tail = (((xh * hh - p) + xh * hl + xl * hh) + xl * hl) + xs * lo
    # log10 may be one off next to a power of ten: V then misses [1e16, 1e17)
    fast &= (p >= 1e16) & (p < 1e17 - 64) & (np.abs(tail) < 64)
    floor = np.floor(np.where(fast, tail, 0.0))
    n17 = np.where(fast, p, 1e16).astype(np.int64) + floor.astype(np.int64)
    frac = tail - floor
    # half an ulp is the power of two 53 binary places below x's leading bit
    half_ulp = (((xs.view(np.uint64) >> 52) - 53) << 52).view(np.float64) * hi

    fast &= n17 >= 10**16  # p may round up to 1e16
    # the last four digits of N17 and the fraction, exact enough in a float64
    top = n17 // 10**4
    last = n17 - top * 10**4
    low = last + frac
    fast &= np.abs(frac - 0.5) >= _TOL
    n = np.full(x.size, 17)
    nearest = last + (frac > 0.5)
    # a shorter decimal inside the interval is a longer one inside it too, so
    # the levels inside are those from n on
    for count in range(16, _N_MIN - 2, -1):
        step = 10.0 ** (17 - count)
        below = np.floor(low / step) * step
        rem = low - below  # V mod step, in [0, step)
        off = np.abs(rem - step / 2)
        margin = (step / 2 - off) - half_ulp  # < 0: the nearest decimal is inside
        fast &= (off >= _TOL) & (np.abs(margin) >= _TOL)
        inside = margin < 0
        n -= inside
        nearest = np.where(inside, below + step * (rem > step / 2), nearest)
    digits = top * 10**4 + nearest.astype(np.int64)
    fast &= (n >= _N_MIN) & (digits < 10**17)  # fewer digits, or 10**(e + 1): repr
    return fast, e, n, digits


def join_rows(block: np.ndarray, sep: str, row_sep: str) -> str:
    """``row_sep.join(sep.join(map(float.__repr__, row)) for row in block)`` of a 2-D float64 block."""
    rows, cols = block.shape
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    fast, e, n, digits = _shortest(x)
    sep_b = sep.encode()
    keep_table, kept = _layouts(len(sep_b))
    width = keep_table.shape[1]

    out = np.empty((x.size, width), dtype=np.uint8)
    out[:] = np.frombuffer(_HEAD + sep_b.ljust(width - len(_HEAD)), dtype=np.uint8)
    words = out.view(np.uint32)
    lead = digits // 10**16
    out[:, 5] = 48 + lead
    rest = digits - lead * 10**16
    for w in range(4):
        scale = 10 ** (12 - 4 * w)
        top = rest // scale
        rest -= top * scale
        words[:, 2 + w] = _words("", 10**4)[top]
    words[:, 6] = _words("e-", 100)[-e]

    row_end = np.zeros(x.size, dtype=bool)
    row_end[cols - 1 :: cols] = True
    layout = np.minimum(-1 - e, 4)
    code = (layout * len(_COUNTS) + n - _N_MIN) * 2 + row_end
    keep = np.take(keep_table, code, axis=0, mode="clip")
    length = np.take(kept, code, mode="clip")

    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = [
            float.__repr__(v).encode() + (b"" if end else sep_b)
            for v, end in zip(x[slow].tolist(), row_end[slow].tolist())
        ]
        out[slow] = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
        length[slow] = list(map(len, texts))
        keep[slow] = np.arange(width) < length[slow, None]

    text = out[keep].tobytes().decode("ascii")
    ends = np.cumsum(length.reshape(rows, cols).sum(axis=1)).tolist()
    return row_sep.join(text[start:end] for start, end in zip([0] + ends, ends))
