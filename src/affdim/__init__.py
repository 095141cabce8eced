"""Dimensions of affine multiplicative subshifts.

Sequences over {0, ..., m-1} subject to A(x[p*k+a], x[q*k+b]) = 1 for all
applicable k: this package computes their Minkowski and Hausdorff
dimensions, the underlying chain decompositions and densities, the
entropy-optimal measures, and independent enumeration oracles that verify
every closed form.

Only the array code (the vectorized chain walks, the sampler and the
entropy optimizer) imports numpy, when it runs, so importing the package
loads neither numpy nor mpmath.
"""

__version__ = "0.1.0"

from .core import (
    AffineSystem,
    CaseTag,
    DimensionReport,
    InvalidSystemError,
    NumericalError,
    TransitionMatrix,
    is_irreducible,
    is_primitive,
    load_system,
    matrix_power_sum,
    system_from_json_dict,
    validate_system,
)
from .lattice import (
    Census,
    Chain,
    ChainDecomposition,
    chain_density,
    decompose,
    empirical_census,
    pair_density,
    predecessor,
    singleton_density,
    successor,
    window_counts,
    window_length_density,
)
from . import hausdorff, higher_order, measures, minkowski, oracle

__all__ = [
    "AffineSystem",
    "CaseTag",
    "Census",
    "Chain",
    "ChainDecomposition",
    "DimensionReport",
    "InvalidSystemError",
    "NumericalError",
    "TransitionMatrix",
    "__version__",
    "chain_density",
    "decompose",
    "empirical_census",
    "hausdorff",
    "higher_order",
    "is_irreducible",
    "is_primitive",
    "load_system",
    "matrix_power_sum",
    "measures",
    "minkowski",
    "oracle",
    "pair_density",
    "predecessor",
    "singleton_density",
    "successor",
    "system_from_json_dict",
    "validate_system",
    "window_counts",
    "window_length_density",
]
