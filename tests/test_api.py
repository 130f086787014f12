"""The public names of the package, pinned so that removing one is a
deliberate, visible change."""

import lapbasis as lb

PUBLIC = [
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
    "green_basis",
    "grid",
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


def test_all_is_pinned():
    assert sorted(lb.__all__) == PUBLIC


def test_every_public_name_resolves():
    missing = [name for name in lb.__all__ if not hasattr(lb, name)]
    assert missing == []
