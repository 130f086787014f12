"""Inner products between scalar fields and pairwise comparison matrices.

The area metric f^T B g measures value overlap, the conformal metric
f^T L g measures gradient alignment, and kernel metrics f^T B K g weigh the
overlap through a filtered operator K.  One routine, _gram, forms all three.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotAdjoint, SchemeNotSymmetric
from .fields import field_values
from .ioutil import atomic_write_text, fmt

ADJOINT_PROBES = 2  # random (u, v) pairs of the B-adjointness probe
ADJOINT_RTOL = 1e-8


def _check_adjoint(op, kernel_apply, n):
    """Stochastic B-adjointness probe: <u, Kv>_B must equal <Ku, v>_B."""
    rng = np.random.default_rng(0)
    for _ in range(ADJOINT_PROBES):
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        Ku = field_values(kernel_apply(u))
        Kv = field_values(kernel_apply(v))
        left = u @ (op.B @ Kv)
        right = Ku @ (op.B @ v)
        scale = abs(left) + abs(right) + np.linalg.norm(Ku) * np.linalg.norm(v)
        if abs(left - right) > ADJOINT_RTOL * max(scale, 1e-30):
            raise NotAdjoint(
                f"kernel fails the B-adjointness probe: |{left:.6g} - "
                f"{right:.6g}| relative to {scale:.3g}"
            )


def _gram(op, metric, F, G, kernel_apply=None):
    """F^T M G with M = B (area), L (conformal) or B K (kernel).

    F and G are vertex vectors or (n, m) column stacks.  The conformal
    metric needs a symmetric scheme; the kernel, applied column by column,
    must be B-adjoint, which is probed on every call.
    """
    if metric == "area":
        MG = op.B @ G
    elif metric == "conformal":
        if not op.is_symmetric:
            raise SchemeNotSymmetric(
                f"conformal metric undefined for scheme {op.scheme!r}"
            )
        MG = op.L @ G
    elif metric == "kernel":
        if kernel_apply is None:
            raise ValueError("kernel metric needs kernel_apply")
        _check_adjoint(op, kernel_apply, G.shape[0])
        # each column of G, or G itself when it is one vector
        KG = np.column_stack([field_values(kernel_apply(g))
                              for g in np.atleast_2d(G.T)])
        MG = op.B @ KG.reshape(G.shape)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return F.T @ MG


def area_metric(op, f, g):
    """Value-overlap inner product f^T B g (total area for f = g = 1)."""
    return float(_gram(op, "area", field_values(f), field_values(g)))


def conformal_metric(op, f, g):
    """Gradient-alignment inner product f^T L g (Dirichlet energy form).

    Needs a symmetric scheme; the mean-value operator is rejected.
    """
    return float(_gram(op, "conformal", field_values(f), field_values(g)))


def kernel_metric(op, kernel_apply, f, g):
    """Kernel-weighted inner product f^T B (K g).

    kernel_apply maps a vertex vector to K applied to it and must be
    B-adjoint; every call probes this at 2 * ADJOINT_PROBES applies, so
    many pairs belong in one comparison_matrix call, which costs
    m + 2 * ADJOINT_PROBES applies for m fields.
    """
    return float(_gram(op, "kernel", field_values(f), field_values(g),
                       kernel_apply))


@dataclass
class ComparisonMatrix:
    """All pairwise metric values of a basis set, plus provenance."""

    values: np.ndarray
    metric: str
    normalized: bool = False

    @property
    def m(self):
        return self.values.shape[0]


def _normalize(F):
    """Affine per-column rescale onto [0, 1]; constants pass unchanged."""
    F = F.copy()
    lo = F.min(axis=0)
    span = F.max(axis=0) - lo
    ok = span > 0
    F[:, ok] = (F[:, ok] - lo[ok]) / span[ok]
    return F


def comparison_matrix(op, fields, metric="area", kernel_apply=None,
                      normalize=False):
    """Pairwise metric matrix of a basis set.

    Costs m operator applications plus m^2 dot products (never m^2
    solves); a kernel metric adds the 2 * ADJOINT_PROBES applies of its
    probe.  normalize=True rescales each field to [0, 1] first; the flag
    is recorded on the result.
    """
    columns = [field_values(f) for f in fields]
    if not columns:
        raise ValueError("comparison needs at least one field")
    F = np.column_stack(columns)
    if normalize:
        F = _normalize(F)
    M = _gram(op, metric, F, F, kernel_apply)
    if not np.all(np.isfinite(M)):
        raise ValueError("comparison matrix has non-finite entries")
    return ComparisonMatrix(M, metric, normalized=normalize)


def save_comparison_csv(cm, path):
    """Raw matrix as CSV, one row per line, shortest round-trip floats."""
    lines = [",".join(fmt(v) for v in row) for row in cm.values]
    atomic_write_text(path, "\n".join(lines) + "\n")


def save_comparison_pgm(cm, path):
    """8-bit grayscale image of the matrix (PGM P2, affine [min,max] map)."""
    v = cm.values
    lo, hi = float(v.min()), float(v.max())
    if hi > lo:
        pix = np.rint((v - lo) / (hi - lo) * 255).astype(int)
    else:
        pix = np.zeros_like(v, dtype=int)
    lines = [
        "P2",
        f"# {cm.metric} comparison, affine map [{fmt(lo)}, {fmt(hi)}] -> [0, 255]",
        f"{v.shape[1]} {v.shape[0]}",
        "255",
    ]
    lines += [" ".join(str(p) for p in row) for row in pix]
    atomic_write_text(path, "\n".join(lines) + "\n")
