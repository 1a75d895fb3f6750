"""Exception types shared across the package."""


class BellLabError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(BellLabError, ValueError):
    """Outcome count is not an integer >= 2, or is too large for the requested mode."""


class NormalizationError(BellLabError, ValueError):
    """A probability table has negative entries or a setting pair that does not sum to 1."""


class TableFormatError(BellLabError, ValueError):
    """A serialized probability table does not match the documented JSON layout."""


class MappingError(BellLabError, ValueError):
    """An outcome mapping is not bijective in each argument."""


class SingularAngleError(BellLabError, ValueError):
    """The closed-form probability has a vanishing denominator for some entry."""

    def __init__(self, i: int, j: int, m: int, n: int):
        self.entry = (i, j, m, n)
        super().__init__(
            f"singular angle: sin term vanishes for settings ({i},{j}) "
            f"at outcomes (m={m}, n={n}); use the inner-product table instead"
        )


class EnumerationSizeError(BellLabError, ValueError):
    """A strategy enumeration or sample was requested at an unsupported size."""


class SeedError(BellLabError, ValueError):
    """A random seed is not a non-negative integer."""
