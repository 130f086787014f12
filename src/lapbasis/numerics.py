"""Sparse solves, the Lanczos exponential and the certified shift-invert
eigensolver.

The spectral routes reduce to three primitives.  Every solve with a sparse
matrix goes through one sparse LU (factor), and each of its columns meets
the relative residual SHIFTED_RTOL: the shifted (complex-)symmetric
B + beta L (shifted_factor, any scheme and mass), the constrained blocks
of the harmonic, Hamiltonian and Green columns (basis._constrained_solve)
and B^{-1} for consistent mass (laplacian._mass_solve).  For a symmetric L
with lumped B, the heat kernel exp(-t B^{-1} L) f comes straight from the
tridiagonal of the Lanczos recurrence (lanczos, on scaled_operator), with
a step count fixed in advance by an a-priori error bound (lanczos_exp,
pencil_bound) and checked by Saad's a-posteriori estimate from the same
eigendecomposition of the tridiagonal.  The smallest generalized
eigenpairs of a stiffness/mass pencil come from scipy's eigsh (or dense
eigh), certified complete by an inertia count.  Matrices are plain scipy
sparse matrices.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh
from scipy.linalg.blas import daxpy
from scipy.linalg.lapack import dstevd
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
# sparse solves

SHIFTED_RTOL = 1e-10  # relative residual every sparse solve must reach


def factor(M):
    """One sparse LU of M (FactorizationFailed if SuperLU fails); returns
    (lu, solve).  solve takes a vector or an (n, m) block; each column is
    refined, x <- x + lu.solve(b - M x) up to 3 times, until its residual
    meets SHIFTED_RTOL |b|, else NotConverged.  A zero column gives zeros."""
    M = M.tocsc()
    try:
        lu = spla.splu(M)
    except RuntimeError as exc:
        raise FactorizationFailed(f"sparse factorisation failed: {exc}") from exc

    def solve(rhs):
        b = np.asarray(rhs).astype(M.dtype)
        x = lu.solve(b)
        for col in np.ndindex(b.shape[1:]):  # one empty index for a vector
            c = (slice(None), *col)
            bnorm = np.linalg.norm(b[c])
            for step in range(4):
                r = b[c] - M @ x[c]
                if np.linalg.norm(r) <= SHIFTED_RTOL * bnorm:
                    break
                if step == 3:
                    rel = np.linalg.norm(r) / bnorm
                    raise NotConverged(f"sparse solve residual {rel:.2e}")
                x[c] += lu.solve(r)
            if bnorm == 0.0:
                x[c] = 0.0
        return x

    return lu, solve


def shifted_factor(B, L, beta):
    """The solve of factor(B + beta L), complex symmetric for a complex
    beta.  NearSingularShift, naming beta, when the pivot ratio exceeds
    1e14: only a shift lands on -1/lambda.  B must pass check_mass."""
    check_mass(B)
    dtype = complex if np.iscomplexobj(np.asarray(beta)) else float
    lu, solve = factor((B + beta * L).astype(dtype))
    u = np.abs(lu.U.diagonal())
    if u.min() == 0.0 or u.max() / u.min() > 1e14:
        raise NearSingularShift(
            f"estimated condition {u.max() / max(u.min(), 1e-300):.1e} "
            "for shift beta=" + repr(beta)
        )
    return solve


LANCZOS_MIN_STEPS = 5  # smallest a-priori step count of lanczos_exp
LANCZOS_BREAKDOWN = 1e-12  # next-vector norm, relative to lambda-hat, that
# ends the Lanczos space as invariant


def pencil_bound(L, B):
    """lambda-hat = max_i sum_j |L_ij| / B_ii, Gershgorin's bound on the
    eigenvalues of the pencil (L, B) for a diagonal (lumped) B.  B must
    have a positive diagonal (check_mass)."""
    check_mass(B)
    return float((np.asarray(abs(L).sum(axis=1)).ravel() / B.diagonal()).max())


def scaled_operator(L, B):
    """(A, root): A = B^{-1/2} L B^{-1/2} as CSR and root = sqrt(diag B),
    the symmetric matrix whose exponential lanczos_exp takes for a
    symmetric L and a diagonal (lumped) B; y = root * g maps a field g to
    A's variable.  B must have a positive diagonal."""
    check_mass(B)
    root = np.sqrt(B.diagonal())
    return (sp.diags(1.0 / root) @ L @ sp.diags(1.0 / root)).tocsr(), root


def lanczos(A, y0, Q, alpha, beta, breakdown):
    """The three-term Lanczos recurrence on the symmetric A from y0, with
    no reorthogonalisation; returns the step count j.  alpha[:j] and
    beta[:j - 1] are the diagonal and off-diagonal of the tridiagonal
    T_j = Q_j^T A Q_j, and beta[j - 1] is the norm b of the next residual
    vector, so A Q_j = Q_j T_j + b q e_j^T.  The basis goes into the rows
    of Q (Q[0] = y0 / |y0|, y0 nonzero); alpha and beta have len(Q)
    entries.  The run ends when Q is full or when b <= breakdown (an
    invariant space).
    """
    Q[0] = y0 / np.linalg.norm(y0)
    for j in range(len(Q)):
        w = A @ Q[j]
        alpha[j] = Q[j] @ w
        # BLAS axpy updates w in place, with no temporary per term
        w = daxpy(Q[j], w, a=-alpha[j])
        if j:
            w = daxpy(Q[j - 1], w, a=-beta[j - 1])
        beta[j] = math.sqrt(w @ w)
        if beta[j] <= breakdown or j + 1 == len(Q):
            return j + 1
        np.divide(w, beta[j], out=Q[j + 1])


EXP_RTOL = 1e-12  # error asked of a Lanczos exponential, relative to |y_0|


def exp_error_bound(rho_tau, m):
    """Hochbruck & Lubich (1997, Thm 2): the error of m Lanczos steps for
    exp(-tau A) v, |v| = 1, A symmetric with spectrum in [0, 4 rho], with
    rho_tau = rho tau.  It is 10 exp(-m^2 / (5 rho tau)) for
    sqrt(4 rho tau) <= m <= 2 rho tau and (10 / rho tau) exp(-rho tau)
    (e rho tau / m)^m for m >= 2 rho tau; below sqrt(4 rho tau) only the
    trivial bound 2 holds (both exponentials have norm at most 1)."""
    if m >= 2.0 * rho_tau:
        log = (math.log(10.0 / rho_tau) - rho_tau
               + m * (1.0 + math.log(rho_tau / m)))
    elif m * m >= 4.0 * rho_tau:
        log = math.log(10.0) - m * m / (5.0 * rho_tau)
    else:
        return 2.0
    return min(2.0, math.exp(log))


def lanczos_exp(B, L, t):
    """exp(-t B^{-1} L) f from the Lanczos tridiagonal, with no rational
    approximation and no factorisation; returns (m, closure), the closure
    f -> (g, steps).

    For a symmetric L and a diagonal B, exp(-t B^{-1} L) f =
    B^{-1/2} exp(-t A) B^{1/2} f with A = B^{-1/2} L B^{-1/2}
    (scaled_operator), and m Lanczos steps on A from y_0 = B^{1/2} f give
    exp(-t A) y_0 ~ |y_0| Q V exp(-t theta) V^T e_1 (Saad 1992), T =
    V diag(theta) V^T.  The step count m is fixed before the run: the
    smallest count, at least LANCZOS_MIN_STEPS, whose exp_error_bound
    with rho tau = t lambda-hat / 4 (pencil_bound) meets
    tol = EXP_RTOL sqrt(min B / max B), so that the pointwise error is at
    most EXP_RTOL |y_0| / sqrt(max B), or EXP_RTOL for a unit column e_s;
    the search stops at m = n, since n steps span the whole space.
    So m depends on the mesh and t alone, Q is allocated once as (m, n),
    and reruns are byte-identical.  An invariant space (b below
    LANCZOS_BREAKDOWN lambda-hat) ends a run early, exactly.  Otherwise
    the guard is Saad's (1992) error estimate t b |e_m^T phi_1(-t T) e_1|,
    phi_1(z) = (e^z - 1) / z, with b the next residual norm; it comes
    from the one tridiagonal eigendecomposition per column that the
    result needs.  NotConverged is raised unless the result is finite and
    the estimate meets tol (a huge t overflows e^(-t theta) on a Ritz
    value rounded below 0).
    """
    A, root = scaled_operator(L, B)
    d = B.diagonal()
    lam = pencil_bound(L, B)
    rho_tau = 0.25 * t * lam
    tol = EXP_RTOL * math.sqrt(d.min() / d.max())
    m = LANCZOS_MIN_STEPS
    while m < A.shape[0] and exp_error_bound(rho_tau, m) > tol:
        m += 1
    breakdown = LANCZOS_BREAKDOWN * lam
    Q = np.empty((m, A.shape[0]))
    alpha, beta = np.empty(m), np.empty(m)

    def solve(f):
        y = root * f
        scale = np.linalg.norm(y)
        if scale == 0.0:
            return np.zeros_like(f), 0
        steps = lanczos(A, y, Q, alpha, beta, breakdown)
        # dstevd (eigh_tridiagonal's driver) wants an off-diagonal of
        # length at least 1; for a 1 x 1 T it reads none of it
        theta, V, info = dstevd(alpha[:steps], beta[:max(steps - 1, 1)])
        if info:
            raise NotConverged(f"tridiagonal eigensolver failed (info {info})")
        b, estimate = beta[steps - 1], 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            c = V @ (np.exp(-t * theta) * V[0])
            if b > breakdown:
                z = -t * theta
                phi = np.divide(np.expm1(z), z, out=np.ones(steps),
                                where=z != 0.0)
                estimate = t * b * abs(V[-1] @ (phi * V[0]))
        if not (np.isfinite(c).all() and estimate <= tol):
            raise NotConverged(
                f"Lanczos exponential error estimate {estimate:.2e} after "
                f"{m} steps exceeds {tol:.2e} (t lambda-hat {t * lam:.3g}, "
                f"finite result {np.isfinite(c).all()})")
        return (scale * (c @ Q[:steps])) / root, steps

    return m, solve


# ---------------------------------------------------------------------------
# eigensolver

SIGMA = -1e-8  # shift-invert shift, in units of pencil_bound: just below ker L
EIGSH_TOL = 1e-10  # relative accuracy asked of eigsh
CLUSTER_RTOL = 1e-7  # values this close to lambda_k, relative, are its cluster
CERTIFY_RETRIES = 3  # eigsh calls after the first to fill in missed pairs


def smallest_eigenpairs(L, B, k, seed=0):
    """The k algebraically smallest generalized eigenpairs of L x = lam B x.

    The kernel of L (constants per component) is analytic; dense eigh gives
    the other pairs when 2k + 1 > n, else scipy's eigsh (ARPACK) in
    shift-invert mode at sigma = SIGMA lambda-hat (pencil_bound, the
    pencil's scale; a bound only for lumped B), with all pairs found so far
    projected out of each solve.  seed fixes eigsh's v0.

    Certificate: no eigenvalue below s is missed.  s lies CLUSTER_RTOL *
    lambda_k (> 0, as k > q) below the lowest value of lambda_k's cluster,
    or halfway to the next lower value if closer; an inertia count
    (Sylvester's law) finds the eigenvalues below s.  Missing pairs cost a
    further eigsh call (at most CERTIFY_RETRIES); spurious ones raise
    NotConverged.  If k splits a degenerate cluster, the result holds some
    basis of its share of it.
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

    # raw splu: ARPACK's solves must not be refined; sigma sits next to ker L
    sigma = SIGMA * pencil_bound(Lm, Bm)
    try:
        lu = spla.splu((Lm - sigma * Bm).tocsc())
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
            found, Xf = spla.eigsh(Lm, missing, M=Bm, sigma=sigma, OPinv=OP,
                                   v0=v0 - X @ (BX.T @ v0), tol=EIGSH_TOL)
        except (spla.ArpackNoConvergence, spla.ArpackError) as exc:
            raise NotConverged(f"eigsh failed: {exc}") from exc
        order = np.argsort(np.r_[vals, found], kind="stable")
        vals, X = np.r_[vals, found][order], np.c_[X, Xf][:, order]

        margin = CLUSTER_RTOL * vals[k - 1]
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
