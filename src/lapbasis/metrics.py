"""Inner products between scalar fields and pairwise comparison matrices.

The area metric f^T B g measures value overlap, the conformal metric
f^T L g measures gradient alignment, and kernel metrics f^T B K g weigh the
overlap through a filtered operator K.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotAdjoint, SchemeNotSymmetric
from .fields import field_values
from .ioutil import atomic_write_text, fmt


def area_metric(op, f, g):
    """Value-overlap inner product f^T B g (total area for f = g = 1)."""
    fv = field_values(f)
    gv = field_values(g)
    return float(fv @ (op.B @ gv))


def conformal_metric(op, f, g):
    """Gradient-alignment inner product f^T L g (Dirichlet energy form).

    Needs a symmetric scheme; the mean-value operator is rejected.
    """
    if not op.is_symmetric:
        raise SchemeNotSymmetric(
            f"conformal metric undefined for scheme {op.scheme!r}"
        )
    fv = field_values(f)
    gv = field_values(g)
    return float(fv @ (op.L @ gv))


ADJOINT_PROBES = 2  # random (u, v) pairs of the B-adjointness probe
ADJOINT_RTOL = 1e-8


def _check_adjoint(op, kernel_apply, n):
    """Stochastic B-adjointness probe: <u, Kv>_B must equal <Ku, v>_B."""
    rng = np.random.default_rng(0)
    for _ in range(ADJOINT_PROBES):
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        Ku = np.asarray(field_values(kernel_apply(u)))
        Kv = np.asarray(field_values(kernel_apply(v)))
        left = u @ (op.B @ Kv)
        right = Ku @ (op.B @ v)
        scale = abs(left) + abs(right) + np.linalg.norm(Ku) * np.linalg.norm(v)
        if abs(left - right) > ADJOINT_RTOL * max(scale, 1e-30):
            raise NotAdjoint(
                f"kernel fails the B-adjointness probe: |{left:.6g} - "
                f"{right:.6g}| relative to {scale:.3g}"
            )


def kernel_metric(op, kernel_apply, f, g):
    """Kernel-weighted inner product f^T B (K g).

    kernel_apply maps a vertex vector to K applied to it and must be
    B-adjoint; this is asserted on random probes, as in comparison_matrix.
    """
    fv = field_values(f)
    gv = field_values(g)
    _check_adjoint(op, kernel_apply, len(gv))
    Kg = np.asarray(field_values(kernel_apply(gv)))
    return float(fv @ (op.B @ Kg))


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
    solves).  normalize=True rescales each field to [0, 1] first; the flag
    is recorded on the result.
    """
    F = fields.matrix() if hasattr(fields, "matrix") else np.column_stack(
        [field_values(f) for f in fields]
    )
    if F.shape[1] < 1:
        raise ValueError("comparison needs at least one field")
    if normalize:
        F = _normalize(F)
    if metric == "area":
        M = F.T @ (op.B @ F)
    elif metric == "conformal":
        if not op.is_symmetric:
            raise SchemeNotSymmetric(
                f"conformal metric undefined for scheme {op.scheme!r}"
            )
        M = F.T @ (op.L @ F)
    elif metric == "kernel":
        if kernel_apply is None:
            raise ValueError("kernel metric needs kernel_apply")
        _check_adjoint(op, kernel_apply, F.shape[0])
        KF = np.column_stack(
            [np.asarray(field_values(kernel_apply(F[:, j])))
             for j in range(F.shape[1])]
        )
        M = F.T @ (op.B @ KF)
    else:
        raise ValueError(f"unknown metric {metric!r}")
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
