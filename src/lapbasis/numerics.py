"""Shifted sparse solves and the certified shift-invert eigensolver.

The spectral routes reduce to two primitives: shifted (complex-)symmetric
solves with B + beta L, and the smallest generalized eigenpairs of a
stiffness/mass pencil, from scipy's eigsh (or dense eigh) and certified
complete by an inertia count.  Solves with L itself (harmonic, Hamiltonian
and Green columns) eliminate fixed vertices and factorise once in
basis._constrained_solve; B^{-1} is laplacian._mass_solve.  Matrices are
plain scipy sparse matrices.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import eigh
from scipy.sparse import csgraph

from .errors import (
    FactorizationFailed,
    NearSingularShift,
    NotConverged,
    SingularSystem,
)


@dataclass
class EigenSystem:
    """The k smallest generalized eigenpairs of (L, B), B-orthonormal.

    values are sorted ascending; vectors[:, i] belongs to values[i] and the
    set satisfies X^T B X = I.
    """

    values: np.ndarray
    vectors: np.ndarray
    L: object = field(repr=False, default=None)
    B: object = field(repr=False, default=None)

    @property
    def k(self):
        return len(self.values)


def check_mass(B):
    """Raise SingularSystem, naming the vertex, if a diagonal entry of the
    mass matrix B is not positive: a vertex in no non-degenerate triangle
    has no mass, and B is then singular."""
    empty = np.flatnonzero(B.diagonal() <= 0.0)
    if empty.size:
        raise SingularSystem(f"mass matrix is singular: vertex {empty[0]} "
                             "lies in no non-degenerate triangle")


def component_nullspace(L, B):
    """B-orthonormal kernel basis of L built from connected components.

    Candidate vectors are the indicator functions of the components of L's
    sparsity graph; only candidates that L actually annihilates are kept
    (a screened operator has the same sparsity but no kernel).  Returns an
    (n, q) array, possibly with q = 0.  B must have a positive diagonal.
    """
    check_mass(B)
    Lm = L.tocsr()
    n = Lm.shape[0]
    ncomp, labels = csgraph.connected_components(Lm, directed=False)
    scale = np.abs(Lm).sum(axis=1).max()
    vecs = []
    for c in range(ncomp):
        v = (labels == c).astype(float)
        if np.linalg.norm(Lm @ v) <= 1e-10 * scale * np.linalg.norm(v):
            vecs.append(v / np.sqrt(v @ (B @ v)))
    if not vecs:
        return np.zeros((n, 0))
    return np.column_stack(vecs)


# ---------------------------------------------------------------------------
# shifted solves


def shifted_factor(B, L, beta):
    """Factorise (B + beta L) once; returns a solver closure rhs -> g.

    Complex shifts give complex symmetric (non-Hermitian) systems; these are
    solved by sparse LU with iterative refinement.  Raises NearSingularShift
    when the factorisation looks numerically singular (estimated condition
    above 1e14); the closure raises NotConverged when refinement stalls.
    B must have a positive diagonal (check_mass).
    """
    check_mass(B)
    tol = 1e-10  # relative residual each solve must reach
    dtype = complex if np.iscomplexobj(np.asarray(beta)) else float
    M = (B + beta * L).astype(dtype).tocsc()
    try:
        lu = spla.splu(M)
    except RuntimeError as exc:
        raise FactorizationFailed(f"shifted factorisation failed: {exc}") from exc

    u = np.abs(lu.U.diagonal())
    if u.min() == 0.0 or u.max() / u.min() > 1e14:
        raise NearSingularShift(
            f"estimated condition {u.max() / max(u.min(), 1e-300):.1e} "
            "for shift beta=" + repr(beta)
        )

    def solve(rhs):
        b = np.asarray(rhs).astype(dtype)
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros_like(b, dtype=dtype)
        x = lu.solve(b)
        for _ in range(3):
            r = b - M @ x
            if np.linalg.norm(r) <= tol * bnorm:
                break
            x = x + lu.solve(r)
        else:
            rel = np.linalg.norm(b - M @ x) / bnorm
            if rel > tol:
                raise NotConverged(f"shifted solve residual {rel:.2e}")
        return x

    return solve


# ---------------------------------------------------------------------------
# eigensolver

SIGMA = -1e-8  # shift of the shift-invert solves, just below the kernel of L
EIGSH_TOL = 1e-10  # relative accuracy asked of eigsh
CLUSTER_RTOL = 1e-7  # values this close to lambda_k, relative, are its cluster
CERTIFY_RETRIES = 3  # eigsh calls after the first to fill in missed pairs


def smallest_eigenpairs(L, B, k, seed=0):
    """The k algebraically smallest generalized eigenpairs of L x = lam B x.

    The kernel of L (constants per component) is analytic; dense eigh gives
    the other pairs when 2k + 1 > n, else scipy's eigsh (ARPACK) in
    shift-invert mode at SIGMA, with all pairs found so far projected out of
    each solve.  seed fixes eigsh's v0.

    Certificate: no eigenvalue below s is missed.  s lies CLUSTER_RTOL *
    max(lambda_k, 1) below the lowest value of lambda_k's cluster, or halfway
    to the next lower value if closer; an inertia count (Sylvester's law)
    finds the eigenvalues below s.  Missing pairs cost a further eigsh call
    (at most CERTIFY_RETRIES); spurious ones raise NotConverged.  If k splits
    a degenerate cluster, the result holds some basis of its share of it.
    """
    Lm, Bm = L.tocsr(), B.tocsr()
    n = Lm.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")

    kernel = component_nullspace(Lm, Bm)
    q = kernel.shape[1]
    if k <= q:
        return EigenSystem(np.zeros(k), kernel[:, :k], L, B)
    if 2 * k + 1 > n:
        vals, X = eigh(Lm.toarray(), Bm.toarray(), subset_by_index=[q, k - 1])
        return EigenSystem(np.r_[np.zeros(q), vals], np.c_[kernel, X], L, B)

    try:
        lu = spla.splu((Lm - SIGMA * Bm).tocsc())
    except RuntimeError as exc:
        raise FactorizationFailed(f"shift factorisation failed: {exc}") from exc

    rng = np.random.default_rng(seed)
    vals, X = np.zeros(q), kernel
    missing = k - q
    for _ in range(1 + CERTIFY_RETRIES):
        BX = Bm @ X

        def opinv(r, X=X, BX=BX):
            r = r - BX @ (X.T @ r)
            y = lu.solve(r)
            return y - X @ (BX.T @ y)

        v0 = rng.standard_normal(n)
        OP = spla.LinearOperator((n, n), matvec=opinv, dtype=float)
        try:
            found, Xf = spla.eigsh(Lm, missing, M=Bm, sigma=SIGMA, OPinv=OP,
                                   v0=v0 - X @ (BX.T @ v0), tol=EIGSH_TOL)
        except (spla.ArpackNoConvergence, spla.ArpackError) as exc:
            raise NotConverged(f"eigsh failed: {exc}") from exc
        order = np.argsort(np.r_[vals, found], kind="stable")
        vals, X = np.r_[vals, found][order], np.c_[X, Xf][:, order]

        margin = CLUSTER_RTOL * max(vals[k - 1], 1.0)
        i = np.searchsorted(vals, vals[k - 1] - margin)
        s = max(vals[i] - margin, 0.5 * (vals[i - 1] + vals[i]) if i else -np.inf)
        # with no off-diagonal pivot, P (L - sB) P^T = LU is an LDL^T with
        # D = diag(U), whose negatives count the eigenvalues below s
        try:
            C = spla.splu((Lm - s * Bm).tocsc(), permc_spec="COLAMD",
                          diag_pivot_thresh=0, options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise FactorizationFailed(f"inertia factorisation failed: {exc}") from exc
        if not np.array_equal(C.perm_r, C.perm_c):
            raise NotConverged("inertia count unavailable: off-diagonal pivoting")
        missing = np.count_nonzero(C.U.diagonal() < 0) - np.count_nonzero(vals < s)
        if missing == 0:
            return EigenSystem(vals[:k], X[:, :k], L, B)
        if missing < 0:
            raise NotConverged(f"computed values below {s:.6g} are spurious")
    raise NotConverged(f"{missing} eigenvalue(s) below {s:.6g} still missing")
