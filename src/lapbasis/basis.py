"""Basis families: harmonic, Hamiltonian, eigenbasis, filtered-spectral
(truncated and spectrum-free; diffusion is the exponential filter), and
harmonic Green-kernel columns.

Two evaluation routes exist for a spectral operator K_phi.  The truncated
route expands over k computed eigenpairs; the spectrum-free route replaces
phi by a rational partial fraction and evaluates K_phi f as alpha0 f plus a
few shifted sparse solves (B + beta_j L) g_j = B f, no eigendecomposition.
"""

import math
import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import numerics
from .errors import (
    DisconnectedMesh,
    DuplicateSeeds,
    SchemeNotSymmetric,
    SingularSystem,
)
from .fields import BasisSet, ScalarField, field_values
from .filters import evaluate, partial_fractions

# eigenvalues at or below this (relative) size count as the kernel of L
KERNEL_REL_TOL = 1e-8
# vertex held at 0 by the harmonic Green solve, before the B-mean is removed
GREEN_PIN = 0


def _seed_indices(seeds, n):
    idx = np.asarray(list(seeds), dtype=int)
    if idx.ndim != 1 or len(idx) == 0:
        raise ValueError("seed set must be a nonempty 1-D index list")
    if np.any(idx < 0) or np.any(idx >= n):
        raise IndexError("seed index out of range")
    if len(np.unique(idx)) != len(idx):
        raise DuplicateSeeds("seed indices must be distinct")
    return idx


def _constrained_solve(M, fixed, values, rhs=None):
    """Solve M G = rhs for an (n, m) block G fixed to values on rows fixed.

    Elimination form: the fixed rows of M are dropped and the free block
    M_ff G_f = rhs_f - M_fs values is factorised once with splu, every
    column solved in one call (rhs None is zero).  Works for non-symmetric
    M too (general sparse LU).
    """
    n = M.shape[0]
    free = np.ones(n, dtype=bool)
    free[fixed] = False
    Mf = M.tocsc()[free]
    R = -(Mf[:, fixed] @ values)
    if rhs is not None:
        R += rhs[free]
    try:
        lu = spla.splu(Mf[:, free].tocsc())
    except RuntimeError as exc:
        raise SingularSystem(
            "constrained system is singular; is the mesh connected?"
        ) from exc
    G = np.zeros((n, values.shape[1]))
    G[fixed] = values
    if len(R):
        G[free] = lu.solve(R)
    return G


def _seed_fields(G, idx, tag):
    """One field per column of G, each owning a contiguous copy; tag is a
    format string for the seed."""
    return [ScalarField(G[:, j].copy(), tag=tag.format(s))
            for j, s in enumerate(idx)]


def _interpolants(M, seeds, family, params):
    """Columns of M^{-1} with every seed row replaced by a unit row:
    g_i = delta_ij at the seeds, M g_i = 0 elsewhere."""
    idx = _seed_indices(seeds, M.shape[0])
    G = _constrained_solve(M, idx, np.eye(len(idx)))
    return BasisSet(_seed_fields(G, idx, family + "[seed={}]"), family,
                    seeds=idx.tolist(), params=params)


def harmonic_basis(op, seeds):
    """Harmonic interpolants: Delta psi_i = 0 away from the seeds with
    Lagrange values psi_i(p_j) = delta_ij at every seed.

    All seed rows are constrained simultaneously, so the returned set is an
    exact partition of unity on a connected mesh.
    """
    return _interpolants(op.L, seeds, "harmonic", {"scheme": op.scheme})


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
    return _interpolants(H, seeds, "hamiltonian", {"scheme": op.scheme, "mu": mu})


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


def _deflated(values, filt):
    """Mode mask after deflating the kernel for singular filters."""
    lam = np.maximum(values, 0.0)  # clamp rounding noise at the kernel
    keep = np.ones(len(lam), dtype=bool)
    if filt.singular_at_zero:
        keep = lam > KERNEL_REL_TOL * max(1.0, lam.max(initial=0.0))
    return lam, keep


def truncated_spectral(eig, filt, f):
    """Filtered expansion sum_j phi(lambda_j) (x_j^T B f) x_j.

    Filters singular at zero drop the kernel modes (constant on a closed
    connected mesh); the deflation is recorded in the provenance tag.
    """
    fv = field_values(f)
    lam, keep = _deflated(eig.values, filt)
    phi = evaluate(filt, lam[keep])
    alpha = eig.vectors[:, keep].T @ (eig.B @ fv)
    out = eig.vectors[:, keep] @ (phi * alpha)
    tag = f"truncated[{filt.describe()},k={eig.k}]"
    if not keep.all():
        tag += " deflated"
    return ScalarField(out, tag=tag)


# the Lanczos route runs when kappa-hat <= n / LANCZOS_C (see ChebyshevKernel)
LANCZOS_C = 256


class ChebyshevKernel:
    """Spectrum-free evaluator of K_phi via a rational partial fraction.

    K_phi f ~ alpha0 f + sum Re(w_j g_j) over the poles beta and weights
    w_j of pf.poles, with (B + beta L) g_j = B g_{j-1} and g_0 = f: one
    chain per pole.  Two routes solve the chains, chosen once, here:

    - "lanczos": one Lanczos space on B^{-1/2} L B^{-1/2} serves every
      pole and order of a column (numerics.shifted_lanczos), with no
      factorisation.  Taken for a symmetric scheme with lumped mass when
      kappa, the largest condition bound of the shifted systems over
      [0, lambda-hat] (numerics.shift_condition, pencil_bound), is at most
      n / LANCZOS_C: its steps grow like sqrt(kappa), while a column of
      LU solves costs about the same at any kappa.
    - "lu": each shift factorised once (numerics.shifted_factor) and
      reused by every apply; every other case.

    Both meet the residual numerics.SHIFTED_RTOL on every solve.  route,
    kappa (inf where no bound applies: consistent mass, a non-symmetric
    scheme) and max_lanczos_steps (the largest step count of an apply so
    far) record what ran; path is "chebyshev <form> <route>".
    filter_kernel builds one from a filter and names its form.
    """

    def __init__(self, op, pf, form="rational"):
        self.op = op
        self.pf = pf
        self.kappa = math.inf
        if op.is_symmetric and op.mass_mode == "lumped":
            lam = numerics.pencil_bound(op.L, op.B)
            self.kappa = max((numerics.shift_condition(beta, lam)
                              for beta, _ in pf.poles), default=1.0)
        self.route = "lanczos" if self.kappa <= op.n / LANCZOS_C else "lu"
        self.path = f"chebyshev {form} {self.route}"
        self.max_lanczos_steps = 0
        if self.route == "lanczos":
            self._lanczos = numerics.shifted_lanczos(
                op.B, op.L, [(beta, len(w)) for beta, w in pf.poles],
                self.kappa)
        else:
            self._factors = [numerics.shifted_factor(op.B, op.L, beta)
                             for beta, _ in pf.poles]

    def _lu_chains(self, fv):
        Bf = self.op.B @ fv
        chains = []
        for solve, (_, weights) in zip(self._factors, self.pf.poles):
            chain = []
            for _ in weights:
                chain.append(solve(Bf if not chain else self.op.B @ chain[-1]))
            chains.append(chain)
        return chains

    def apply(self, f):
        fv = field_values(f)
        if self.route == "lanczos":
            chains, steps = self._lanczos(fv)
            self.max_lanczos_steps = max(self.max_lanczos_steps, steps)
        else:
            chains = self._lu_chains(fv)
        acc = self.pf.alpha0 * fv
        for (_, weights), chain in zip(self.pf.poles, chains):
            for w, g in zip(weights, chain):
                acc += (w * g).real
        return acc


class TruncatedKernel:
    """K_phi over the eigenpairs of eig; filter_kernel builds one."""

    def __init__(self, eig, filt):
        self.eig, self.filt = eig, filt
        self.path = f"truncated k={eig.k}"

    def apply(self, f):
        return field_values(truncated_spectral(self.eig, self.filt, f))


def filter_kernel(op, filt, method="chebyshev", r=5, k=100, eig=None):
    """The evaluator of K_phi: the one place its route is chosen.

    A ChebyshevKernel when method is "chebyshev" and the filter has a
    rational form (the degree-r table for exp, exact partial fractions for
    a rational filter); else a TruncatedKernel over eig, or over k
    eigenpairs computed here, which warns for k < n.  Both have apply(f)
    and path: "chebyshev table r=5 lu", "chebyshev exact-rational
    lanczos", "truncated k=100", ...
    """
    if method not in ("chebyshev", "truncated"):
        raise ValueError(f"unknown spectral method {method!r}")
    if method == "chebyshev" and filt.has_rational_form:
        form = "exact-rational" if filt.kind == "rational" else f"table r={r}"
        return ChebyshevKernel(op, partial_fractions(filt, r), form)
    if eig is None:
        if k < op.n:
            warnings.warn("truncated route with k < n: approximation quality"
                          " cannot be estimated without the whole spectrum",
                          stacklevel=2)
        eig = eigen_basis(op, min(k, op.n))
    return TruncatedKernel(eig, filt)


def spectral_set(op, filt, seeds, method="chebyshev", r=5, k=100, eig=None):
    """Filtered columns K_phi e_s for each seed s, as one BasisSet: one
    filter_kernel(op, filt, method, r, k, eig) applied to every e_s, its
    path recorded in params["path"] and each field's tag.  Diffusion is
    FilterSpec.exponential(t); other fields go to filter_kernel(...).apply.
    """
    idx = _seed_indices(seeds, op.n)
    kernel = filter_kernel(op, filt, method, r, k, eig)
    fields = [
        ScalarField(kernel.apply(np.eye(1, op.n, s)[0]),
                    tag=f"spectral[{filt.describe()},seed={s},{kernel.path}]")
        for s in idx
    ]
    return BasisSet(fields, "spectral", seeds=idx.tolist(),
                    params={"filter": filt.describe(), "path": kernel.path})


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
    F = np.zeros((op.n, len(idx)))
    F[idx, np.arange(len(idx))] = 1.0
    F -= w[idx] / area
    # pinning one vertex leaves an invertible block of L; B f sums to
    # zero, so the dropped row holds as well
    G = _constrained_solve(op.L, [GREEN_PIN], np.zeros((1, len(idx))),
                           op.B @ F)
    fields = _seed_fields(G, idx, "green[harmonic,seed={}]")
    for f in fields:  # per column, so no column depends on the others
        f.values -= (w @ f.values) / area
    return BasisSet(fields, "green", seeds=idx.tolist())

