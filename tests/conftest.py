"""Shared helpers for the test suite."""

import numpy as np
import pytest

from bell_lab.core import random_rational_table, random_table  # noqa: F401  (shared with the tests)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)
