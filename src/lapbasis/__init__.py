"""Laplacian spectral basis functions on triangle meshes.

Assembles discrete Laplace-Beltrami operators, computes harmonic /
Hamiltonian / eigen / filtered-spectral / diffusion / Green-kernel basis
functions by truncated eigen-expansion or by the spectrum-free rational
(Pade-Chebyshev) method, and compares them through area, conformal, and
kernel metrics.
"""

from .basis import (
    ChebyshevKernel,
    eigen_basis,
    eigen_fields,
    filter_kernel,
    green_basis,
    hamiltonian_basis,
    harmonic_basis,
    reconstruct,
    spectral_coefficients,
    spectral_set,
    truncated_spectral,
)
from .errors import LapBasisError
from .fields import BasisSet, ScalarField, field_values
from .filters import (
    FilterSpec,
    PartialFraction,
    evaluate,
    exp_chebyshev_coefficients,
    parse_filter,
    partial_fractions,
    rational_partial_fractions,
)
from .laplacian import LaplacianOperator, apply, assemble
from .mesh import TriangleMesh, load_mesh, save_off, save_ply, validate, vertex_distances
from .metrics import (
    ComparisonMatrix,
    area_metric,
    comparison_matrix,
    conformal_metric,
    kernel_metric,
)
from .numerics import EigenSystem, smallest_eigenpairs
from .seeds import (
    CoverageResult,
    SeedSet,
    coverage_curve,
    coverage_loop,
    curvature_field,
    farthest_point_sampling,
    support,
)
from .shapes import bumpy_sphere, grid, icosphere, torus, unit_square

__version__ = "0.1.0"

__all__ = [
    "BasisSet",
    "ChebyshevKernel",
    "ComparisonMatrix",
    "CoverageResult",
    "EigenSystem",
    "FilterSpec",
    "LapBasisError",
    "LaplacianOperator",
    "PartialFraction",
    "ScalarField",
    "SeedSet",
    "TriangleMesh",
    "apply",
    "area_metric",
    "assemble",
    "bumpy_sphere",
    "comparison_matrix",
    "conformal_metric",
    "coverage_curve",
    "coverage_loop",
    "curvature_field",
    "eigen_basis",
    "eigen_fields",
    "evaluate",
    "exp_chebyshev_coefficients",
    "farthest_point_sampling",
    "field_values",
    "filter_kernel",
    "grid",
    "green_basis",
    "hamiltonian_basis",
    "harmonic_basis",
    "icosphere",
    "kernel_metric",
    "load_mesh",
    "parse_filter",
    "partial_fractions",
    "rational_partial_fractions",
    "reconstruct",
    "save_off",
    "save_ply",
    "smallest_eigenpairs",
    "spectral_coefficients",
    "spectral_set",
    "support",
    "torus",
    "truncated_spectral",
    "unit_square",
    "validate",
    "vertex_distances",
]
