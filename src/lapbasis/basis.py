"""Basis families: harmonic, Hamiltonian, eigenbasis, filtered-spectral
(truncated and spectrum-free; diffusion is the exponential filter), and
harmonic Green-kernel columns.

K_phi has one class per evaluation route, and filter_kernel picks one.
TruncatedKernel expands over k computed eigenpairs.  The spectrum-free
kernels need no eigendecomposition: HeatKernel sums the heat kernel
exp(-t B^{-1} L) as a Chebyshev expansion of degree K on a symmetric
scheme with lumped mass, one SpMV per degree for a chunk of at most
numerics.APPLY_BLOCK columns; ChebyshevKernel replaces phi by a rational
partial fraction and evaluates K_phi f as alpha0 f plus a few shifted
sparse solves (B + beta_j L) g_j = B f, one column at a time.  Each
apply takes a block of any width.
"""

import math
import warnings

import numpy as np
import scipy.sparse as sp

from . import numerics
from .errors import (
    DisconnectedMesh,
    DuplicateSeeds,
    SchemeNotSymmetric,
    SingularSystem,
)
from .fields import BasisSet, ScalarField, field_values
from .filters import evaluate, partial_fractions
from .mesh import vertex_indices

# vertex held at 0 by the harmonic Green solve, before the B-mean is removed
GREEN_PIN = 0


def _seed_indices(seeds, n):
    seeds = list(seeds)
    if not seeds or np.ndim(seeds) != 1:
        raise ValueError("seed set must be a nonempty 1-D index list")
    idx = vertex_indices(seeds, n, "seed index")
    if len(np.unique(idx)) != len(idx):
        raise DuplicateSeeds("seed indices must be distinct")
    return idx


def _constrained_solve(M, fixed, values, rhs=None):
    """Solve M G = rhs for an (n, m) block G fixed to values on rows fixed.

    Elimination form: the fixed rows of M are dropped and the free block
    M_ff G_f = rhs_f - M_fs values is factorised once (numerics.factor),
    every column solved in one call (rhs None is zero).  Works for
    non-symmetric M too (general sparse LU).
    """
    n = M.shape[0]
    free = np.ones(n, dtype=bool)
    free[fixed] = False
    Mf = M.tocsc()[free]
    R = -(Mf[:, fixed] @ values)
    if rhs is not None:
        R += rhs[free]
    _, solve = numerics.factor(Mf[:, free])
    G = np.zeros((n, values.shape[1]))
    G[fixed] = values
    if len(R):
        G[free] = solve(R)
    return G


def _seed_fields(G, idx, tag):
    """One field per column of G, each owning a contiguous copy; tag is a
    format string for the seed."""
    return [ScalarField(G[:, j].copy(), tag=tag.format(s))
            for j, s in enumerate(idx)]


def _interpolants(op, M, seeds, family, params):
    """Columns of M^{-1} with every seed row replaced by a unit row:
    g_i = delta_ij at the seeds, M g_i = 0 elsewhere.  M is singular on a
    component that it annihilates and no seed touches: SingularSystem."""
    idx = _seed_indices(seeds, op.n)
    bare = [np.flatnonzero(v)[0] for v in
            numerics.component_nullspace(M, op.B).T if not v[idx].any()]
    if bare:
        raise SingularSystem(f"{family} system is singular: no seed on the "
                             "component of vertex " + ", ".join(map(str, bare)))
    G = _constrained_solve(M, idx, np.eye(len(idx)))
    return BasisSet(_seed_fields(G, idx, family + "[seed={}]"), family,
                    seeds=idx.tolist(), params=params)


def harmonic_basis(op, seeds):
    """Harmonic interpolants: Delta psi_i = 0 away from the seeds with
    Lagrange values psi_i(p_j) = delta_ij at every seed.

    All seed rows are constrained simultaneously, so the returned set is an
    exact partition of unity on a connected mesh.
    """
    return _interpolants(op, op.L, seeds, "harmonic", {"scheme": op.scheme})


def hamiltonian_basis(op, V, mu, seeds):
    """Basis of the screened operator H = L + mu * B diag(V).

    Same constrained solves as harmonic_basis with H in place of L; mu = 0
    reduces to the harmonic basis.  A potential that makes H indefinite
    (mu * min V < 0) is allowed but reported as a warning.
    """
    v = field_values(V)
    if len(v) != op.n:
        raise ValueError("potential length does not match the operator")
    if mu * v.min() < 0:
        warnings.warn(
            "mu*min(V) < 0: the screened operator may be indefinite",
            stacklevel=2,
        )
    H = (op.L + mu * (op.B @ sp.diags(v))).tocsc()
    return _interpolants(op, H, seeds, "hamiltonian",
                         {"scheme": op.scheme, "mu": mu})


def eigen_basis(op, k):
    """The k smallest B-orthonormal eigenpairs of L x = lambda B x."""
    if not op.is_symmetric:
        raise SchemeNotSymmetric(
            f"scheme {op.scheme!r} is not symmetric; no eigenbasis"
        )
    return numerics.smallest_eigenpairs(op.L, op.B, k)


def eigen_fields(eig):
    """Wrap an EigenSystem's eigenvectors as a BasisSet."""
    fields = [
        ScalarField(eig.vectors[:, i], tag=f"eigen[{i}] lam={eig.values[i]:.6g}")
        for i in range(eig.k)
    ]
    return BasisSet(fields, "eigen", params={"k": eig.k})


def spectral_coefficients(eig, f):
    """Expansion coefficients alpha_i = x_i^T B f."""
    return eig.vectors.T @ (eig.B @ field_values(f))


def reconstruct(eig, alpha, k_use, f=None):
    """Partial sum f_k = sum_{i<=k_use} alpha_i x_i with a residual report.

    The report compares the measured B-norm residual against the bound
    (f^T L f) / lambda_{k_use+1}; when f is omitted the full stored
    expansion stands in for it (exact when the spectrum is complete).
    """
    alpha = np.asarray(alpha, dtype=float)
    if not 1 <= k_use <= eig.k or len(alpha) > eig.k:
        raise ValueError("k_use must lie in 1..k of the stored eigenpairs")
    fk = eig.vectors[:, :k_use] @ alpha[:k_use]
    fv = field_values(f) if f is not None else eig.vectors @ alpha
    r = fv - fk
    resid_sq = float(r @ (eig.B @ r))
    energy = float(fv @ (eig.L @ fv))
    lam_next = float(eig.values[k_use]) if k_use < eig.k else math.inf
    bound = energy / lam_next if lam_next > 0 else math.inf
    report = {
        "k_use": int(k_use),
        "residual_sq": resid_sq,
        "energy": energy,
        "bound": bound,
        "satisfied": bool(resid_sq <= bound * (1 + 1e-9) + 1e-12),
    }
    return ScalarField(fk, tag=f"reconstruct[k={k_use}]"), report


def _truncated_terms(eig, filt):
    """(X, BX, phi, tag) of the filtered expansion over eig: the kept
    eigenvectors X, B X, phi at their values and the provenance tag.

    Filters singular at zero drop the kernel modes, the pairs of value
    exactly 0 (smallest_eigenpairs builds them from component_nullspace);
    the deflation is recorded in the tag.
    """
    lam = np.maximum(eig.values, 0.0)  # clamp rounding noise at the kernel
    tag = f"truncated[{filt.describe()},k={eig.k}]"
    X = eig.vectors
    if filt.singular_at_zero and not (lam > 0.0).all():
        X, lam = X[:, lam > 0.0], lam[lam > 0.0]
        tag += " deflated"
    return X, eig.B @ X, evaluate(filt, lam), tag


def truncated_spectral(eig, filt, f, terms=None):
    """Filtered expansion sum_j phi(lambda_j) (x_j^T B f) x_j, with the
    kernel modes dropped for a filter singular at zero (the tag says
    "deflated").  terms is _truncated_terms(eig, filt), built here when
    not given: a TruncatedKernel builds it once for all its columns.
    """
    X, BX, phi, tag = _truncated_terms(eig, filt) if terms is None else terms
    return ScalarField(X @ (phi * (BX.T @ field_values(f))), tag=tag)


def _by_column(apply_vector, fv):
    """apply_vector(fv) for a vector fv, else the (n, m) block of
    apply_vector on each column of fv."""
    if fv.ndim == 1:
        return apply_vector(fv)
    return np.column_stack([apply_vector(col) for col in fv.T])


def _unit_columns(n, block):
    """The (n, len(block)) unit columns e_s of the seeds s in block."""
    E = np.zeros((n, len(block)))
    E[block, np.arange(len(block))] = 1.0
    return E


def _symmetric_lumped(op):
    """Whether B^{-1} L is similar to the symmetric B^{-1/2} L B^{-1/2},
    which the Chebyshev heat expansion needs."""
    return op.is_symmetric and op.mass_mode == "lumped"


class ChebyshevKernel:
    """K_phi through the rational partial fraction pf, on any scheme and
    mass (route "lu"): K_phi f ~ alpha0 f + sum Re(w_j g_j) over the
    poles beta and weights w_j of pf.poles, with (B + beta L) g_j =
    B g_{j-1} and g_0 = f: one chain per pole.  Each pole is factorised
    once, here (numerics.shifted_factor); every solve meets the residual
    numerics.SHIFTED_RTOL.  apply(f) takes a vector or an (n, m) block,
    solved column by column: a SuperLU block solve rounded a column
    differently with different neighbours.  error_bound and stats are
    None; path is "chebyshev <form> lu", form naming where pf came from.
    """

    route = "lu"
    error_bound = stats = None

    def __init__(self, op, pf, form="rational"):
        self.path = f"chebyshev {form} {self.route}"
        factors = [numerics.shifted_factor(op.B, op.L, beta)
                   for beta, _ in pf.poles]

        def rational(fv):
            acc = pf.alpha0 * fv
            for solve, (_, weights) in zip(factors, pf.poles):
                g = fv
                for w in weights:
                    g = solve(op.B @ g)
                    acc += (w * g).real
            return acc

        self._solve = lambda fv: _by_column(rational, fv)

    def apply(self, f):
        """K_phi f for a vector f, or for each column of an (n, m) block
        f; a column's bits do not depend on its block."""
        return self._solve(field_values(f))


class HeatKernel(ChebyshevKernel):
    """exp(-t B^{-1} L) as a Chebyshev expansion of degree K in
    B^{-1/2} L B^{-1/2} (numerics.cheb_exp; route "cheb-exp"): K SpMVs per
    vector or chunk of at most numerics.APPLY_BLOCK columns, no
    factorisation.  Needs a symmetric scheme and lumped mass, or raises
    ValueError.  degree is K, error_bound the coefficient tail (a B-norm
    bound per unit |f|_B), path "chebyshev deg=<K> cheb-exp".  It
    inherits apply, so every spectrum-free apply runs through
    ChebyshevKernel.apply."""

    route = "cheb-exp"

    def __init__(self, op, t):
        if not _symmetric_lumped(op):
            raise ValueError("the Chebyshev exponential needs a symmetric"
                             " scheme with lumped mass")
        self.degree, self.error_bound, self._solve = numerics.cheb_exp(
            op.B, op.L, t)
        self.path = f"chebyshev deg={self.degree} {self.route}"


class TruncatedKernel:
    """K_phi over the eigenpairs of eig; filter_kernel builds one.  It
    states no error_bound yet; stats is eig.stats.  The kept
    eigenvectors X, B X and phi are built once, here; apply(f) takes a
    vector or an (n, m) block, which it filters column by column (one
    truncated_spectral each, two matrix-vector products), so a column's
    bits do not depend on its block."""

    error_bound = None

    def __init__(self, eig, filt):
        self.eig, self.filt = eig, filt
        self.path = f"truncated k={eig.k}"
        self.stats = eig.stats
        self._terms = _truncated_terms(eig, filt)

    def apply(self, f):
        """K_phi f for a vector f, or column by column for an (n, m)
        block f."""
        return _by_column(lambda fv: field_values(truncated_spectral(
            self.eig, self.filt, fv, terms=self._terms)), field_values(f))


def filter_kernel(op, filt, method="chebyshev", r=None, k=100, eig=None):
    """The evaluator of K_phi: the one place its route is chosen.

    With method "chebyshev" and a filter of rational form: a rational
    filter takes its exact partial fractions (ChebyshevKernel,
    "exact-rational"); exp on a symmetric scheme with lumped mass is a
    HeatKernel; exp on any other operator takes the degree-r table
    (ChebyshevKernel, "table r=<r>", r = 5 when None).  Else a
    TruncatedKernel over eig, or over k eigenpairs computed here, which
    warns for k < n.  r is read only by the table and k only by the
    truncated route.
    """
    if method not in ("chebyshev", "truncated"):
        raise ValueError(f"unknown spectral method {method!r}")
    if method == "chebyshev" and filt.has_rational_form:
        if filt.kind == "rational":
            return ChebyshevKernel(op, partial_fractions(filt),
                                   "exact-rational")
        if _symmetric_lumped(op):
            return HeatKernel(op, filt.t)
        pf = partial_fractions(filt, 5 if r is None else r)
        return ChebyshevKernel(op, pf, f"table r={pf.degree}")
    if eig is None:
        if k < 1:
            raise ValueError(f"k={k} out of range for n={op.n}")
        if k < op.n:
            warnings.warn("truncated route with k < n: approximation quality"
                          " cannot be estimated without the whole spectrum",
                          stacklevel=2)
        eig = eigen_basis(op, min(k, op.n))
    return TruncatedKernel(eig, filt)


def spectral_set(op, filt, seeds, method="chebyshev", r=None, k=100,
                 eig=None):
    """Filtered columns K_phi e_s for each seed s, as one BasisSet: one
    filter_kernel(op, filt, method, r, k, eig) applied to the e_s, its
    path recorded in params["path"] and each field's tag, its error_bound
    in params["error_bound"] and its eigensolver's stats (None off the
    truncated route) in params["solver"]; that path names r or k where
    the kernel read one.  Diffusion is FilterSpec.exponential(t); other
    fields go to filter_kernel(...).apply.

    A column's bits do not depend on the seeds it is applied with.
    """
    idx = _seed_indices(seeds, op.n)
    kernel = filter_kernel(op, filt, method, r, k, eig)
    tag = f"spectral[{filt.describe()},seed={{}},{kernel.path}]"
    fields = []
    # for memory, not speed: pieces of at most APPLY_BLOCK seeds, each
    # piece's fields copied out before the next apply, hold no (n, m) result
    for block in np.array_split(idx, -(-len(idx) // numerics.APPLY_BLOCK)):
        fields += _seed_fields(kernel.apply(_unit_columns(op.n, block)),
                               block, tag)
    return BasisSet(fields, "spectral", seeds=idx.tolist(),
                    params={"filter": filt.describe(), "path": kernel.path,
                            "error_bound": kernel.error_bound,
                            "solver": kernel.stats})


def green_basis(op, seeds):
    """Columns of the harmonic Green kernel, the deflated inverse of L.

    Solves L g = B(e_seed - constant projection) with <g, 1>_B = 0 for
    every seed at once; requires a symmetric scheme and a connected mesh.
    """
    idx = _seed_indices(seeds, op.n)
    if not op.is_symmetric:
        raise SchemeNotSymmetric(
            f"scheme {op.scheme!r} is not symmetric; no harmonic Green kernel"
        )
    kernel = numerics.component_nullspace(op.L, op.B)
    if kernel.shape[1] != 1:
        raise DisconnectedMesh(
            "harmonic Green kernel needs one connected component, found "
            f"{kernel.shape[1]}"
        )
    w = op.B @ np.ones(op.n)  # <g, 1>_B = w @ g
    area = w.sum()
    F = _unit_columns(op.n, idx) - w[idx] / area
    # pinning one vertex leaves an invertible block of L; B f sums to
    # zero, so the dropped row holds as well
    G = _constrained_solve(op.L, [GREEN_PIN], np.zeros((1, len(idx))),
                           op.B @ F)
    fields = _seed_fields(G, idx, "green[harmonic,seed={}]")
    for f in fields:  # per column, so no column depends on the others
        f.values -= (w @ f.values) / area
    return BasisSet(fields, "green", seeds=idx.tolist())

