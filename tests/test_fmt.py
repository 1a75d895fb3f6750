"""The numpy float formatter writes the bytes of float.__repr__."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bell_lab import _fmt, quantum
from bell_lab.analysis import random_settings

SEP = ",\n    "
ROW_SEP = "\n  ],\n  [\n    "


def reference(block: np.ndarray, sep: str = SEP, row_sep: str = ROW_SEP) -> str:
    return row_sep.join(sep.join(map(float.__repr__, row)) for row in block.tolist())


def assert_repr_bytes(block: np.ndarray) -> None:
    # "raise" also turns the underflow numpy ignores by default into an error
    with np.errstate(all="raise"):
        got = _fmt.join_rows(block, SEP, ROW_SEP)
    assert got == reference(block)


def fallback_share(x: np.ndarray) -> float:
    fast = _fmt._shortest(np.ascontiguousarray(x, dtype=np.float64).ravel())[0]
    return 1.0 - fast.mean()


special_floats = st.sampled_from(
    [
        0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
        0.5, 0.25, 2.0**-60, 2.0**-300, 1.0, 0.9999999999999999, 0.99999999999999989,
        1.0000000000000002, 1e16, 1.2345678901234567e16, 1e17, 9007199254740993.0,
        1e-99, 9.999999999999999e-100, 1e-100, 1e-5, 9.999999999999999e-06, 1e-4,
        0.00010000000000000002, 0.1, 0.30000000000000004, 1.7976931348623157e308,
        float("nan"), float("inf"), float("-inf"),
    ]
)
bit_patterns = st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))
# values of the fast path's range, [1e-99, 1), log-uniform
fast_range = st.floats(-99.0, -1e-12).map(lambda t: 10.0**t)
any_float = bit_patterns | special_floats | fast_range


class TestJoinRows:
    @given(st.lists(any_float, min_size=1, max_size=60), st.integers(1, 7))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bit_patterns(self, values, cols):
        values += [0.5] * (-len(values) % cols)
        assert_repr_bytes(np.array(values).reshape(-1, cols))

    def test_near_powers_of_ten_and_one(self):
        # log10 rounds to the wrong side of some of these, and some round to 1
        base = 10.0 ** np.arange(-110, 2)
        parts, up, down = [base], base, base
        for _ in range(30):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, 0)
            parts += [up, down]
        assert_repr_bytes(np.concatenate(parts).reshape(-1, 112))

    def test_log_uniform_doubles_across_the_exponent_range(self):
        rng = np.random.default_rng(1)
        x = np.exp(rng.uniform(np.log(5e-324), np.log(1.7e308), 10**6))
        x *= rng.choice([-1.0, 1.0], size=x.size, p=[0.1, 0.9])
        assert_repr_bytes(x.reshape(1000, 1000))

    def test_log_uniform_doubles_of_the_fast_path(self):
        rng = np.random.default_rng(2)
        x = 10.0 ** rng.uniform(-99, 0, 200_000)
        assert_repr_bytes(x.reshape(400, 500))
        assert fallback_share(x) < 0.01

    @pytest.mark.parametrize("d", range(2, 65))
    def test_born_tables(self, d):
        rng = np.random.default_rng(100 + d)
        for s in (quantum.CANONICAL_PHASES, random_settings(rng)):
            p = quantum.born_table(d, s).p
            for i in range(2):
                for j in range(2):
                    assert_repr_bytes(p[i, j])

    @pytest.mark.parametrize("d", [384, 880])
    def test_large_born_tables(self, d):
        p = quantum.born_table(d).p
        for i in range(2):
            for j in range(2):
                assert_repr_bytes(p[i, j])

    def test_fast_path_takes_almost_every_table_entry(self):
        # a fast path that quietly sent everything to repr would still be exact
        assert fallback_share(quantum.born_table(384).p) < 0.05

    def test_long_rows_and_single_entries(self):
        rng = np.random.default_rng(3)
        assert_repr_bytes(rng.random((1, 5000)))
        assert_repr_bytes(rng.random((5000, 1)))
        assert_repr_bytes(np.array([[1e-7]]))
