"""Exception types shared across the library."""


class LapBasisError(Exception):
    """Base class for all library errors."""


# mesh ingestion


class ParseError(LapBasisError):
    """Mesh file is malformed for its declared format."""


class UnsupportedFeature(LapBasisError):
    """Input uses a feature outside the supported surface (e.g. pentagons)."""


class DisconnectedMesh(LapBasisError):
    """The operation needs one connected component and the mesh has more
    (green_basis).  vertex_distances only warns on a disconnected mesh."""


# operator assembly


class AllDegenerate(LapBasisError):
    """Every triangle is below the degeneracy threshold."""


class SchemeNotSymmetric(LapBasisError):
    """Operation requires a symmetric stiffness matrix."""


# linear algebra


class SolverFailure(LapBasisError):
    """Common parent of every way a linear solve can go wrong."""


class NotConverged(SolverFailure):
    """Iterative solver hit its iteration cap before the tolerance."""


class SingularSystem(SolverFailure):
    """System matrix is singular (or numerically so) for the given data."""


class NearSingularShift(SolverFailure):
    """Shifted system B + beta*L is too ill-conditioned to solve reliably."""


class FactorizationFailed(SolverFailure):
    """SuperLU failed on a sparse LU: numerics.factor, which every solve,
    the eigensolver's shift LU and the inertia certificate go through."""


# filters


class SingularEvaluation(LapBasisError):
    """Filter with a pole at s=0 evaluated at s=0."""


class UnsupportedDegree(LapBasisError):
    """No precomputed rational table for the requested degree."""


class DegreeMismatch(LapBasisError):
    """Rational filter numerator degree exceeds denominator degree."""


class InaccurateDecomposition(LapBasisError):
    """Partial fractions of a rational filter do not reproduce it."""


# bases and seeds


class DuplicateSeeds(LapBasisError):
    """Seed list contains repeated vertex indices."""


class NotAdjoint(LapBasisError):
    """Kernel operator failed the stochastic B-adjointness probe."""


class ZeroField(LapBasisError):
    """Support of the all-zero field is undefined."""


class NoProgress(LapBasisError):
    """Coverage generator produced a field not covering its own seed."""
