"""Shared helpers for the test suite."""

import numpy as np
import pytest

from bell_lab import JointProbabilityTable
from bell_lab.core import random_rational_table  # noqa: F401  (shared with the tests)


def random_table(d: int, rng: np.random.Generator) -> JointProbabilityTable:
    """Random normalized float probability table."""
    x = rng.random((2, 2, d, d))
    x /= x.sum(axis=(2, 3), keepdims=True)
    return JointProbabilityTable.from_array(x)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)
