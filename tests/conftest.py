"""Shared helpers for the test suite."""

import numpy as np
import pytest

from bell_lab.core import random_rational_table, random_table  # noqa: F401  (shared with the tests)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)


def as_lists(obj):
    """``obj`` with every numpy array as its nested lists, as ``json.dumps`` takes it."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: as_lists(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_lists(value) for value in obj]
    return obj
