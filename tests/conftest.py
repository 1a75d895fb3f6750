"""Shared helpers for the test suite."""

import numpy as np
import pytest

from bell_lab.core import random_rational_table, random_table  # noqa: F401  (shared with the tests)


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
