"""Numerical laboratory for weighted exponential functionals of the
bi-Laplacian on the unit ball in R^4: sharp-threshold experiments, extremal
sequences, rearrangement/comparison oracles, and radial-vs-translated-bump
scaling sweeps.
"""

from .quadrature import (
    DEFAULT_SPEC,
    IntegralResult,
    QuadratureSpec,
    integrate,
    integrate_halfline,
)
from .profiles import (
    OMEGA_3,
    BoundaryKind,
    FunctionalParams,
    RadialProfile,
    corpus_names,
    corpus_profile,
    laplacian_l2_sq,
    unit_energy,
    weighted_functional,
)

__all__ = [
    "DEFAULT_SPEC",
    "IntegralResult",
    "QuadratureSpec",
    "integrate",
    "integrate_halfline",
    "OMEGA_3",
    "BoundaryKind",
    "FunctionalParams",
    "RadialProfile",
    "corpus_names",
    "corpus_profile",
    "laplacian_l2_sq",
    "unit_energy",
    "weighted_functional",
]
