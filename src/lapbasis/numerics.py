"""Sparse solves, the Chebyshev heat expansion and the certified
shift-invert eigensolver.

The spectral routes reduce to three primitives.  Every sparse LU is one
call of factor, and each column of its refined solve meets the relative
residual SHIFTED_RTOL: the shifted (complex-)symmetric B + beta L
(shifted_factor, any scheme and mass), the constrained blocks of the
harmonic, Hamiltonian and Green columns (basis._constrained_solve) and
B^{-1} for consistent mass (laplacian._mass_solve).  For a symmetric L
with lumped B, the heat kernel exp(-t B^{-1} L) f is a Chebyshev
expansion in B^{-1/2} L B^{-1/2} on [0, lambda-hat] (cheb_exp,
scaled_operator, pencil_bound): Bessel coefficients from Miller's
recurrence (bessel_coefficients), a degree fixed in advance by their
tail, one SpMV per degree for a vector or a chunk of columns, run by
scipy's private _sparsetools kernels into buffers the recurrence owns
(nothing is allocated per degree, and every bit is A2 @ T_k's), and a
B-norm contraction check on each column of the result.  The smallest
generalized eigenpairs of a stiffness/mass pencil come from scipy's
eigsh in shift-invert mode (or dense eigh), certified complete by an
inertia count (count_below).  eigsh sees the pencil in units of
lambda-hat, so its operator's eigenvalues are O(1) at any mesh size; a
lumped B runs in standard form on B^{-1/2} L B^{-1/2}, with no mass
product inside eigsh, and a consistent B in generalized form.  The
shift LU and the certificate's LUs are factor's with diagonal pivots, all
in one nested-dissection ordering of the shift matrix's pattern
(nested_dissection, computed once per eigensolve), and the shift LU is
freed before the certificate factors.  Every other LU orders by COLAMD.
Matrices are plain scipy sparse matrices.
"""

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh
from scipy.sparse import _sparsetools, csgraph

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
    set satisfies X^T B X = I.  stats is how smallest_eigenpairs found
    them (see there).
    """

    values: np.ndarray
    vectors: np.ndarray
    L: object = field(repr=False, default=None)
    B: object = field(repr=False, default=None)
    stats: dict = field(repr=False, default_factory=dict)

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


def factor(M, perm=None, diagonal=False):
    """One sparse LU of M (FactorizationFailed if SuperLU fails); returns
    (lu, solve).  solve takes a vector or an (n, m) block; each column is
    refined, x <- x + lu.solve(b - M x) up to 3 times, until its residual
    meets SHIFTED_RTOL |b|, else NotConverged.  A zero column gives zeros.

    perm, a fill-reducing ordering of M's pattern as SuperLU's perm_c
    (nested_dissection makes one), pre-permutes M for an LU in natural
    order (solve maps back); None orders by COLAMD.  diagonal=True takes
    every pivot from the diagonal: P M P^T = LDL^T with D = diag(U) for a
    symmetric M, and NotConverged if SuperLU pivots off it.  False keeps
    its threshold pivoting.

    The factor lives as long as anything pins it: lu itself, solve
    (which also holds the CSC copy of M), and every view of lu's arrays
    (lu.perm_c and lu.perm_r have lu as their base; a copy owns its
    data).  Reading lu.L or lu.U builds CSC copies of both factors, which
    lu keeps until it is freed.  A caller that needs one of the two
    results takes it alone, so the other is freed on return."""
    spec = "COLAMD"
    if perm is not None:  # entry (i, j) moves to (perm[i], perm[j])
        M = M.tocoo()
        M = sp.csc_matrix((M.data, (perm[M.row], perm[M.col])), M.shape)
        spec = "NATURAL"
    M = M.tocsc()
    pivots = (dict(diag_pivot_thresh=0, options=dict(SymmetricMode=True))
              if diagonal else {})
    try:
        lu = spla.splu(M, permc_spec=spec, **pivots)
    except RuntimeError as exc:
        raise FactorizationFailed(f"sparse factorisation failed: {exc}") from exc
    if diagonal and not np.array_equal(lu.perm_r, lu.perm_c):
        raise NotConverged("sparse factorisation took an off-diagonal pivot")

    def solve(rhs):
        b = np.asarray(rhs).astype(M.dtype)
        if perm is not None:
            b = b[np.argsort(perm)]
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
        return x if perm is None else x[perm]

    return lu, solve


def _bfs_levels(G, a):
    """(d, reached): the hop distance from vertex a in the graph G (-1
    where a does not reach) and the vertices a reaches, in BFS order.
    The distances come from breadth_first_order's predecessors by pointer
    doubling: each round adds the distance to the ancestor a vertex
    points at and moves the pointer to that ancestor's, so it takes about
    log2 of the depth rounds."""
    reached, pred = csgraph.breadth_first_order(G, a,
                                                return_predecessors=True)
    pred[a] = a
    where = np.empty(G.shape[0], dtype=np.intp)
    where[reached] = np.arange(len(reached))
    up = where[pred[reached]]  # each parent's place in reached; a's is 0
    depth = np.ones(len(reached), dtype=np.intp)
    depth[0] = 0
    while up.any():
        depth += depth[up]
        up = up[up]
    d = np.full(G.shape[0], -1, dtype=np.intp)
    d[reached] = depth
    return d, reached


def nested_dissection(A):
    """A fill-reducing symmetric ordering of the sparsity pattern of A,
    as the perm that factor takes: vertex i of the graph of A + A^T goes
    to place perm[i].  It reads the pattern alone, with no coordinates.

    Nested dissection (George 1973) on coordinates that the graph gives.
    In each connected component of more than 64 vertices, six BFS hop
    distance fields come from landmarks a, b, ..., f.  a is farthest from
    the component's first vertex, and each later landmark is farthest from
    the landmarks before it (ties go to the farthest from the last one,
    then to the least degree), so a, b lie near opposite ends and so do
    c, d and e, f: (d_a - d_b, d_c - d_d, d_e - d_f) places the vertices
    on three near orthogonal axes.  Each part is cut at the median of its
    widest coordinate, keeping a level set whole where the median allows;
    the separator is the set of left vertices with an edge into the
    right, and the part is ordered left, right, separator, each half in
    turn by the same rule.  A part of at most 64 vertices keeps natural
    order.  All parts of one depth are cut at once, in array operations:
    seven BFS and a dozen passes over the vertices and edges per depth,
    about 4.5 ms at n = 2562 on one core.  The ordering is deterministic.
    """
    A = sp.csr_matrix(A)
    n = A.shape[0]
    P = sp.csr_matrix((np.ones(A.nnz, dtype=bool), A.indices, A.indptr),
                      shape=A.shape)
    G = (P + P.T).tocsr()  # a self loop changes no BFS and no cut
    _, labels = csgraph.connected_components(G, connection="strong")
    sizes = np.bincount(labels)
    X = np.zeros((3, n), dtype=np.intp)
    degree = np.diff(G.indptr) - G.diagonal()
    for comp in np.flatnonzero(sizes > 64):
        d, reached = _bfs_levels(G, int(np.argmax(labels == comp)))
        near = last = d  # from the component's first vertex, no landmark
        D = []
        for _ in range(6):
            far = reached[near[reached] == near.max()]
            far = far[last[far] == last[far].max()]
            last = _bfs_levels(G, far[np.argmin(degree[far])])[0]
            near = np.minimum(near, last) if D else last
            D.append(last)
        for j in range(3):
            X[j, reached] = D[2 * j][reached] - D[2 * j + 1][reached]

    # every vertex lands in one block, a small part or a separator, whose
    # places run from its start in natural order: block[v] is that start
    block = np.empty(n, dtype=np.intp)
    order = np.argsort(labels, kind="stable")  # the live vertices by part
    cnt = sizes  # each part's size, in order
    first = np.cumsum(cnt) - cnt  # each part's first place
    u = np.repeat(np.arange(n), np.diff(G.indptr))
    inner = u < G.indices
    u, w = u[inner], G.indices[inner]  # each edge inside a live part, once
    side = np.zeros(n, dtype=np.int8)  # 1 left, 2 right, 0 off the parts
    while order.size:
        g = np.repeat(np.arange(len(cnt)), cnt)  # each live vertex's part
        small = cnt <= 64
        if small.any():
            done = small[g]
            block[order[done]] = first[g[done]]
            side[order[done]] = 0
            order, cnt, first = order[~done], cnt[~small], first[~small]
            g = np.repeat(np.arange(len(cnt)), cnt)
        if not order.size:
            break
        heads = np.cumsum(cnt) - cnt  # each part's first place in order
        Y = X[:, order]
        axis = np.argmax(np.maximum.reduceat(Y, heads, axis=1)
                         - np.minimum.reduceat(Y, heads, axis=1), axis=0)
        key = Y[axis[g], np.arange(len(order))]
        o = np.argsort(g * (np.ptp(key) + 1) + key - key.min())  # part, key
        order, key = order[o], key[o]
        med = key[heads + cnt // 2]
        below = np.bincount(g, key < med[g], minlength=len(cnt))
        upto = np.bincount(g, key <= med[g], minlength=len(cnt))
        nleft = np.where(below > 0, below,
                         np.where(upto < cnt, upto, cnt // 2)).astype(np.intp)
        right = np.arange(len(order)) - heads[g] >= nleft[g]
        side[order] = 1 + right
        su, sw = side[u], side[w]
        cross = su != sw  # an edge inside a part, cut
        sep = np.zeros(n, dtype=bool)
        sep[np.where(su[cross] == 1, u[cross], w[cross])] = True
        s = sep[order]
        nsep = np.bincount(g[s], minlength=len(cnt))
        block[order[s]] = (first + cnt - nsep)[g[s]]
        side[order[s]] = 0
        su, sw = side[u], side[w]
        inner = (su == sw) & (su > 0)
        u, w = u[inner], w[inner]
        nl = np.bincount(g[~(s | right)], minlength=len(cnt))
        order = order[~s]  # still by part, each left half before its right
        cnt = np.column_stack([nl, cnt - nsep - nl]).ravel()
        first = np.column_stack([first, first + nl]).ravel()
        cnt, first = cnt[cnt > 0], first[cnt > 0]
    perm = np.empty(n, dtype=np.intp)
    perm[np.argsort(block, kind="stable")] = np.arange(n)
    return perm


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


MAX_DEGREE = 100_000  # largest degree of the heat expansion (one SpMV per
# degree and column): cheb_exp refuses t lambda-hat above about 2.8e8
# cheb_exp runs a block in np.array_split chunks of at most APPLY_BLOCK
# columns.  On bumpy_sphere(4), t = 0.04 (one core of a 2-core Xeon), a
# column took 1.04 ms in 16-wide chunks, 1.01 ms in 32-wide and 1.11 ms
# in 64-wide ones against 1.97 ms alone: the five 64-wide buffers of a
# recurrence outgrow the 4 MiB L2.  Narrower than MIN_BLOCK, a chunk goes
# column by column: a 2-wide chunk cost 1.24-1.40 times two single
# columns, a 3-wide one 0.84-0.95 times three.
APPLY_BLOCK = 16
MIN_BLOCK = 3


def pencil_bound(L, B):
    """lambda-hat = max_i sum_j |L_ij| / B_ii, Gershgorin's bound on the
    eigenvalues of the pencil (L, B) for a diagonal (lumped) B.  B must
    have a positive diagonal (check_mass)."""
    check_mass(B)
    return float((np.asarray(abs(L).sum(axis=1)).ravel() / B.diagonal()).max())


def scaled_operator(L, B):
    """(A, root): A = B^{-1/2} L B^{-1/2} as CSR and root = sqrt(diag B),
    the symmetric matrix whose exponential cheb_exp takes for a symmetric
    L and a diagonal (lumped) B; y = root * g maps a field g to A's
    variable.  B must have a positive diagonal."""
    check_mass(B)
    root = np.sqrt(B.diagonal())
    return (sp.diags(1.0 / root) @ L @ sp.diags(1.0 / root)).tocsr(), root


def _bessel_decay(k, z):
    """-log(I_k(z) / I_0(z)) to leading order: Debye's exponent
    k asinh(k / z) - sqrt(k^2 + z^2) + z, written without cancellation."""
    return k * math.asinh(k / z) - k * k / (math.hypot(k, z) + z)


def bessel_coefficients(z, tol):
    """(c, tail): the Chebyshev coefficients c_0..c_K of
    exp(-z (1 + x)) = sum_k c_k T_k(x) on [-1, 1], c_k = (2 - delta_k0)
    (-1)^k e^{-z} I_k(z), with K the smallest degree whose tail
    sum_{k > K} |c_k| is at most tol, and that tail.

    Miller's backward recurrence in ratio form, so nothing overflows:
    rho_k = I_k / I_{k-1} = 1 / (2k / z + rho_{k+1}) from rho_{N+1} = 0,
    with N the first power of 2 where Debye's estimate of I_N / I_0 is
    below tol^2.  The running products are the I_k / I_0, normalised by
    e^{-z} (I_0 + 2 sum_k I_k) = 1.  NotConverged, before any loop over
    the degree, when the estimate puts K above MAX_DEGREE.
    """
    if z == 0.0:  # t lambda-hat underflowed: exp(-z (1 + x)) = 1
        return np.ones(1), 0.0
    decay = -math.log(tol)
    if _bessel_decay(MAX_DEGREE, z) < decay:
        raise NotConverged(f"Chebyshev degree above MAX_DEGREE = "
                           f"{MAX_DEGREE} needed (z = {z:.3g})")
    top = 1
    while _bessel_decay(top, z) < 2.0 * decay:
        top *= 2
    rho = np.empty(top + 1)
    rho[0] = r = 1.0
    for k in range(top, 0, -1):
        r = 1.0 / (2.0 * k / z + r)
        rho[k] = r
    c = np.cumprod(rho)  # I_k / I_0
    c *= 2.0 / (2.0 * c.sum() - 1.0)
    c[0] *= 0.5
    c[1::2] *= -1.0
    tails = np.cumsum(np.abs(c[::-1]))[::-1]  # tails[k] = sum_{j >= k} |c_j|
    K = int(np.argmax(tails <= tol)) - 1
    if K < 0:
        raise NotConverged(f"Bessel coefficient tail above {tol:.2e} at "
                           f"degree {top} (z = {z:.3g})")
    return c[:K + 1], float(tails[K + 1])


def _chebyshev_sum(A2, c, v):
    """sum_k c_k T_k(A2 / 2) v for a C-contiguous float vector or (n, w)
    chunk v, whose buffer it reuses: cheb_exp's recurrence, T_{k+1} = A2
    T_k - T_{k-1}.

    It allocates nothing per degree: three buffers of v's size rotate
    beside acc, holding T_{k-1} (v's buffer at first), T_k and nothing.
    T_{k+1} goes into the free one, zeroed, as Y += A2 T_k by scipy's
    csr_matvec (csr_matvecs for a chunk of two or more columns), the
    kernel and the start that A2 @ T_k runs, so every bit is kept; c_k
    T_{k+1} then goes into the buffer T_{k-1} leaves free.  The kernels
    take the buffers flat, so v must be C-contiguous for its flat view to
    share its buffer."""
    assert v.flags.c_contiguous and v.dtype == A2.dtype, "v: C float64"
    n, w = A2.shape[0], v.size // A2.shape[0]
    x = v.reshape(-1)
    args = (A2.indptr, A2.indices, A2.data)
    # product(x, y) is y += A2 x; as in scipy, an (n, 1) block is a vector
    product = (partial(_sparsetools.csr_matvec, n, n, *args) if w == 1 else
               partial(_sparsetools.csr_matvecs, n, n, w, *args))
    acc = c[0] * x
    if len(c) > 1:
        prev, cur, nxt = x, np.zeros_like(x), np.empty_like(x)
        product(prev, cur)
        cur *= 0.5
        acc += np.multiply(cur, c[1], out=nxt)
        for ck in c[2:]:
            nxt.fill(0.0)
            product(cur, nxt)
            nxt -= prev
            acc += np.multiply(nxt, ck, out=prev)  # prev is free here
            prev, cur, nxt = cur, nxt, prev
    return acc.reshape(v.shape)


def cheb_exp(B, L, t):
    """exp(-t B^{-1} L) f by a Chebyshev expansion, with no rational
    approximation, no factorisation and no stored basis; returns
    (degree, bound, closure f -> g).  f is an (n,) vector or an (n, m)
    block of any width m.

    For a symmetric L and a diagonal B, exp(-t B^{-1} L) f =
    B^{-1/2} exp(-t A) B^{1/2} f with A = B^{-1/2} L B^{-1/2}
    (scaled_operator), whose spectrum lies in [0, lambda-hat]
    (pencil_bound).  With x = 2 lambda / lambda-hat - 1 and
    z = t lambda-hat / 2, exp(-t lambda) = sum_k c_k T_k(x)
    (bessel_coefficients; Tal-Ezer & Kosloff 1984).  T_{k+1} =
    A_2 T_k - T_{k-1} on A_2 = (4 / lambda-hat) A - 2I, built once, costs
    one SpMV, one subtraction and one axpy per degree (_chebyshev_sum).
    A block runs in the np.array_split chunks of at most APPLY_BLOCK
    columns: one product A_2 T_k (scipy's csr_matvecs) serves a chunk,
    and sums each row in csr_matvec's order, so a column has the bits of
    a one-column apply.  A chunk narrower than MIN_BLOCK runs column by
    column.  The recurrence allocates nothing per degree: it rotates
    three buffers of the chunk's size beside the sum, the scaled input
    among them, so an apply holds four n-vectors per column besides f
    and g.  The degree K is
    the smallest whose tail, bound = sum_{k > K} |c_k|, is at most
    eps sqrt(min B / max B): a B-norm error bound per unit |f|_B, so a
    unit column e_s has a pointwise truncation error of at most eps.  K
    depends on the mesh and t alone, so reruns are byte-identical.

    Guard: NotConverged, naming the first failing column of a block by
    its index in the block, unless each column of the result is finite
    and, as exp(-t A) is, a B-norm contraction to rounding, |g|_B <=
    (1 + bound + K^2 eps) |f|_B; T_k grows exponentially on a spectrum
    outside [0, lambda-hat].  The recurrence rounds like K^2 eps, not
    K eps (a constant's error was 0.002 K^2 eps at K = 1840 and 3187).
    """
    lam = pencil_bound(L, B)
    d = B.diagonal()
    eps = np.finfo(float).eps
    try:
        c, bound = bessel_coefficients(0.5 * t * lam,
                                       eps * math.sqrt(d.min() / d.max()))
    except NotConverged as exc:
        raise NotConverged(f"heat kernel at t={t:g}: {exc}") from None
    degree = len(c) - 1
    A, root = scaled_operator(L, B)
    A2 = (4.0 / lam) * A - 2.0 * sp.identity(A.shape[0], format="csr")
    slack = 1.0 + bound + degree * degree * eps

    def run(f, first):  # first: f's first column in the block, or None
        chunk = f.ndim == 2
        axis = 0 if chunk else None  # None keeps a vector's norm one dot
        r = root[:, None] if chunk else root
        v = np.multiply(r, f, order="C")  # so A2 @ v copies nothing
        scale = np.linalg.norm(v, axis=axis)  # |f|_B of each column
        acc = _chebyshev_sum(A2, c, v)
        grow = np.linalg.norm(acc, axis=axis)  # |g|_B, not finite with acc
        ok = grow <= slack * scale
        if not ok.all():
            j = np.argmin(ok)  # the first failing column
            raise NotConverged(
                f"heat kernel at t={t:g}, degree {degree}: "
                + ("" if first is None else f"column {first + j}: ")
                + f"|g|_B = {np.ravel(grow)[j]:.3e} exceeds "
                f"(1 + {slack - 1.0:.2e}) |f|_B = {np.ravel(scale)[j]:.3e}"
                " (spectrum outside [0, lambda-hat]?)")
        acc /= r
        return acc

    def solve(f):
        if f.ndim == 1:
            return run(f, None)
        m = f.shape[1]
        k = -(-m // APPLY_BLOCK)  # chunks of near-equal width
        if k == 1 and m >= MIN_BLOCK:
            return run(f, 0)
        g = np.empty(f.shape)
        b = 0
        for i in range(k):
            a, b = b, b + m // k + (i < m % k)  # np.array_split's widths
            if b - a >= MIN_BLOCK:
                g[:, a:b] = run(f[:, a:b], a)
            else:
                for j in range(a, b):
                    g[:, j] = run(f[:, j], j)
        return g

    return degree, bound, solve


# ---------------------------------------------------------------------------
# eigensolver

SIGMA = -1e-8  # shift-invert shift, in units of pencil_bound: just below ker L
EIGSH_TOL = 1e-10  # relative accuracy asked of eigsh
CLUSTER_RTOL = 1e-7  # values this close to lambda_k, relative, are its cluster
CERTIFY_RETRIES = 3  # eigsh calls after the first to fill in missed pairs


def count_below(L, B, s, perm=None):
    """The number of eigenvalues of the symmetric pencil (L, B), B positive
    definite, below s: by Sylvester's law of inertia, the negative pivots
    D = diag(U) of factor(L - sB, perm, diagonal=True).  perm is as in
    factor; the eigensolver passes the nested_dissection ordering of its
    shift matrix, which has the same pattern.  Only the raw LU is kept,
    and reading its U copies L and U; all of it is freed when the count
    returns."""
    return _inertia(L, B, s, perm)[0]


def _inertia(L, B, s, perm):
    """(count_below(L, B, s, perm), the nnz of its LU): lu.nnz is a
    count SuperLU keeps, so reading it copies nothing."""
    lu = factor(L - s * B, perm, diagonal=True)[0]
    return int(np.count_nonzero(lu.U.diagonal() < 0)), lu.nnz


def smallest_eigenpairs(L, B, k, seed=0):
    """The k algebraically smallest generalized eigenpairs of L x = lam B x.

    The kernel of L (constants per component) is analytic; dense eigh gives
    the other pairs when 2k + 1 > n, else scipy's eigsh (ARPACK) in
    shift-invert mode, with all pairs found so far projected out of each
    solve.  seed fixes eigsh's v0.

    eigsh sees the pencil in units of lambda-hat (pencil_bound, the
    pencil's scale; a bound only for lumped B), so the eigenvalues of its
    operator are O(1) at any mesh size and its shift is SIGMA.  A lumped
    (diagonal) B runs in standard form on A = B^{-1/2} L B^{-1/2} /
    lambda-hat, with no mass product inside eigsh: OP = lambda-hat root
    (L - sigma B)^{-1} root with root = sqrt(diag B) and sigma = SIGMA
    lambda-hat.  Any other B runs in generalized form on (L / (lambda-hat
    b), B / b), b the mean of diag B: the same OP with the scalar root =
    sqrt(b).  Either way eigsh's variable is root x, and one sparse LU of
    L - sigma B (factor, diagonal pivots) serves every solve of an eigsh
    call.  Its ordering is nested_dissection's of the pattern of L - sigma
    B, computed once per call: every shift LU, retries included, and
    every certificate LU (L - sB has the same pattern) factor in it.
    eigsh's operands, v0 and M stay in vertex order; only the LU solve
    inside OP maps into the ordering and back.

    Certificate: no eigenvalue below s is missed.  s lies CLUSTER_RTOL *
    lambda_k (> 0, as k > q) below the lowest value of lambda_k's cluster,
    or halfway to the next lower value if closer; count_below, on the
    same ordering, finds the eigenvalues below s.  Missing pairs
    cost a further eigsh call (at most CERTIFY_RETRIES); spurious ones
    raise NotConverged.  If k splits a degenerate cluster, the result
    holds some basis of its share of it.

    One sparse factor is alive at a time.  The shift LU is pinned only
    by the raw lu and by the opinv and OP that eigsh calls, never by
    factor's refined solve, and the ordering is an array of its own.
    All three go when eigsh returns, so the certificate factors L - sB
    into the memory the shift LU held, and its own LU is freed when the
    count returns.  A retry factors the shift matrix again by the same
    call, with the same bits: one LU more per retry, which only exactly
    symmetric meshes need.

    stats records the form ("standard", "generalized", or "dense" and
    "kernel" where eigsh does not run), the eigsh calls and OP applies,
    the inertia count at s, and the entries SuperLU stores for the shift
    LU (lu_nnz) and for the last certificate LU (certificate_lu_nnz):
    each LU's nnz, as reading L and U would copy them; 0 where eigsh
    does not run.
    """
    Lm, Bm = L.tocsr(), B.tocsr()
    n = Lm.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")

    kernel = component_nullspace(Lm, Bm)
    q = kernel.shape[1]
    if k <= q:
        return EigenSystem(np.zeros(k), kernel[:, :k], L, B,
                           _stats("kernel"))
    if 2 * k + 1 > n:
        vals, X = eigh(Lm.toarray(), Bm.toarray(), subset_by_index=[q, k - 1])
        return EigenSystem(np.r_[np.zeros(q), vals], np.c_[kernel, X], L, B,
                           _stats("dense"))

    lam = pencil_bound(Lm, Bm)
    d = Bm.diagonal()
    lumped = not (Bm - sp.diags(d)).count_nonzero()  # nothing off diag B
    b = d if lumped else d.mean(keepdims=True)
    root, M = np.sqrt(b), None if lumped else Bm / b[0]
    stats = _stats("standard" if lumped else "generalized")

    rng = np.random.default_rng(seed)
    vals, X = np.zeros(q), kernel
    missing = k - q
    shift = Lm - SIGMA * lam * Bm
    perm = nested_dissection(shift)  # owned: it pins no LU
    vertex = np.argsort(perm)  # the vertex at each place of the ordering
    for _ in range(1 + CERTIFY_RETRIES):
        # the raw LU alone, not factor's refined solve: ARPACK's solves
        # must not be refined.  sigma sits next to ker L, so L - sigma B
        # is positive definite and takes diagonal pivots
        lu = factor(shift, perm, diagonal=True)[0]
        stats["lu_nnz"] = lu.nnz
        BX = Bm @ X

        def opinv(r, X=X, BX=BX, lu=lu):
            stats["op_applies"] += 1
            w = root * r
            w -= BX @ (X.T @ w)
            y = lu.solve(w[vertex])[perm]
            y -= X @ (BX.T @ y)
            y *= root
            y *= lam
            return y

        v0 = rng.standard_normal(n)
        OP = spla.LinearOperator((n, n), matvec=opinv, dtype=float)
        stats["eigsh_calls"] += 1
        try:  # mode 3 reads only the shape and dtype of its first argument
            found, Xf = spla.eigsh(OP, missing, M=M, sigma=SIGMA, OPinv=OP,
                                   v0=root * (v0 - X @ (BX.T @ v0)),
                                   tol=EIGSH_TOL)
        except (spla.ArpackNoConvergence, spla.ArpackError) as exc:
            raise NotConverged(f"eigsh failed: {exc}") from exc
        del lu, opinv, OP  # the shift LU's last solve: free it for _inertia
        found *= lam
        Xf /= root[:, None]  # in place: no second (n, k) array
        order = np.argsort(np.r_[vals, found], kind="stable")
        vals, X = np.r_[vals, found][order], np.c_[X, Xf][:, order]
        del Xf

        margin = CLUSTER_RTOL * vals[k - 1]
        i = np.searchsorted(vals, vals[k - 1] - margin)
        s = max(vals[i] - margin, 0.5 * (vals[i - 1] + vals[i]) if i else -np.inf)
        below, stats["certificate_lu_nnz"] = _inertia(Lm, Bm, s, perm)
        stats.update(inertia_shift=float(s), inertia_count=below)
        missing = below - np.count_nonzero(vals < s)
        if missing == 0:
            return EigenSystem(vals[:k], X[:, :k], L, B, stats)
        if missing < 0:
            raise NotConverged(f"computed values below {s:.6g} are spurious")
    raise NotConverged(f"{missing} eigenvalue(s) below {s:.6g} still missing")


def _stats(form):
    """The EigenSystem.stats of a solve in form, before eigsh runs."""
    return {"form": form, "eigsh_calls": 0, "op_applies": 0,
            "inertia_shift": None, "inertia_count": None, "lu_nnz": 0,
            "certificate_lu_nnz": 0}
