"""Bell correlation toolkit for bipartite systems with d outcomes per side.

The package evaluates a four-setting Bell expression built from modular
outcome weights, enumerates deterministic local strategies to certify the
classical bound under the sum and difference mappings, constructs the quantum
probability table for the maximally entangled state, and provides noise, scan,
and optimization analyses plus a command line front end.
"""

import os

# Set before the submodules import numpy: OpenBLAS reads its thread count when
# it loads.  With one thread it starts no worker, so no idle worker spins for
# CPU after a product and no later product waits 12-16 ms to wake one (the
# products here take 0.2 ms at lhv's d = 64).  born_table splits its own four
# products over two threads; a value the caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .analysis import (
    OptimizationResult,
    ScanResult,
    ScanRow,
    cglmp_crosscheck,
    noise_threshold,
    noise_threshold_bisect,
    noisy_table,
    optimize_phases,
    random_settings,
    scan_dimensions,
)
from .core import (
    JointProbabilityTable,
    OutcomeMapping,
    bell_expression,
    bell_from_spin_correlations,
    bell_weights,
    cglmp_correlation,
    cglmp_expression,
    check_dimension,
    correlation,
    difference_distribution,
    difference_probability,
    load_table,
    mapped_spin_distribution,
    qutrit_complex_correlation,
    spin,
)
from .errors import (
    BellLabError,
    DimensionError,
    EnumerationSizeError,
    MappingError,
    NormalizationError,
    SeedError,
    SingularAngleError,
    TableFormatError,
)
from .lhv import (
    EnumerationSummary,
    case_value_set,
    classify_strategy,
    enumerate_strategies,
    lhv_value_set,
    sample_strategies,
    strategy_bell_value,
    strategy_to_table,
)
from .quantum import (
    CANONICAL_PHASES,
    MeasurementSettings,
    born_table,
    canonical_correlation,
    closed_form_table,
    measurement_basis,
    quantum_bell_value,
    shift_symmetry_deviation,
    spin_projection_distribution,
    sum_distributions,
)

__version__ = "0.1.0"

__all__ = [
    "BellLabError",
    "CANONICAL_PHASES",
    "DimensionError",
    "EnumerationSizeError",
    "EnumerationSummary",
    "JointProbabilityTable",
    "MappingError",
    "MeasurementSettings",
    "NormalizationError",
    "OptimizationResult",
    "OutcomeMapping",
    "ScanResult",
    "ScanRow",
    "SeedError",
    "SingularAngleError",
    "TableFormatError",
    "bell_expression",
    "bell_from_spin_correlations",
    "bell_weights",
    "born_table",
    "canonical_correlation",
    "case_value_set",
    "cglmp_correlation",
    "cglmp_crosscheck",
    "cglmp_expression",
    "check_dimension",
    "classify_strategy",
    "closed_form_table",
    "correlation",
    "difference_distribution",
    "difference_probability",
    "enumerate_strategies",
    "lhv_value_set",
    "load_table",
    "mapped_spin_distribution",
    "measurement_basis",
    "noise_threshold",
    "noise_threshold_bisect",
    "noisy_table",
    "optimize_phases",
    "quantum_bell_value",
    "qutrit_complex_correlation",
    "random_settings",
    "sample_strategies",
    "scan_dimensions",
    "shift_symmetry_deviation",
    "spin",
    "spin_projection_distribution",
    "strategy_bell_value",
    "strategy_to_table",
    "sum_distributions",
]
