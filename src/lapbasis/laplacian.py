"""Stiffness/mass assembly for triangle meshes and the operator action.

The discrete Laplace-Beltrami operator is the pair (L, B) acting as B^{-1}L:
L holds the cotangent (FEM) or mean-value weights, B the vertex masses.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import numerics
from .errors import AllDegenerate
from .fields import ScalarField, field_values
from .mesh import DEGENERATE_AREA_FACTOR

SCHEMES = ("linear_fem", "voronoi_cotangent", "mean_value")
MASS_MODES = ("lumped", "consistent")


@dataclass(frozen=True)
class LaplacianOperator:
    """Assembled stiffness L and mass B, plain scipy CSR matrices.

    L is symmetric PSD for the FEM schemes; the mean-value scheme stores a
    row-normalised non-symmetric matrix which participates only in
    harmonic-type and spectrum-free solves.  Edge weights with the "wrong"
    sign (obtuse cotangents) are kept, not corrected.
    """

    L: sp.csr_matrix
    B: sp.csr_matrix
    scheme: str
    mass_mode: str

    @property
    def n(self):
        return self.L.shape[0]

    @property
    def is_symmetric(self):
        return self.scheme != "mean_value"


def _triangle_geometry(mesh):
    """Areas and corner data of the non-degenerate triangles."""
    tris = mesh.triangles
    areas = mesh.triangle_areas()
    keep = areas >= DEGENERATE_AREA_FACTOR * mesh.bbox_diagonal() ** 2
    if not np.any(keep):
        raise AllDegenerate("every triangle is degenerate")
    return tris[keep], mesh.vertices[tris[keep]], areas[keep]


def _fem_stiffness(n, tris, p, areas):
    """Cotangent stiffness: off-diagonal -(cot a + cot b)/2, diag = -rowsum."""
    rows, cols, vals = [], [], []
    for corner in range(3):
        i = tris[:, (corner + 1) % 3]
        j = tris[:, (corner + 2) % 3]
        u = p[:, (corner + 1) % 3] - p[:, corner]
        v = p[:, (corner + 2) % 3] - p[:, corner]
        # cot of the angle at `corner`, opposite to edge (i, j)
        cot = np.einsum("ij,ij->i", u, v) / (2.0 * areas)
        w = -0.5 * cot
        rows.extend([i, j])
        cols.extend([j, i])
        vals.extend([w, w])
    L = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    L = L - sp.diags(np.asarray(L.sum(axis=1)).ravel())
    return L.tocsr()


def _mass(n, tris, areas, lumped):
    if lumped:
        d = np.zeros(n)
        np.add.at(d, tris.ravel(), np.repeat(areas / 3.0, 3))
        return sp.diags(d).tocsr()
    rows, cols, vals = [tris.ravel()], [tris.ravel()], [np.repeat(areas / 6.0, 3)]
    for a, b in ((0, 1), (1, 2), (2, 0)):
        rows.extend([tris[:, a], tris[:, b]])
        cols.extend([tris[:, b], tris[:, a]])
        vals.extend([areas / 12.0, areas / 12.0])
    M = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return M.tocsr()


def _mean_value_stiffness(n, tris, p):
    """Row-normalised mean-value weights: L = I - W, W row-stochastic.

    The weight of directed edge (i, j) is tan(angle/2)/|pi - pj| summed over
    the angles at p_i in the triangles containing the edge.
    """
    rows, cols, vals = [], [], []
    for corner in range(3):
        a = tris[:, corner]
        b = tris[:, (corner + 1) % 3]
        c = tris[:, (corner + 2) % 3]
        u = p[:, (corner + 1) % 3] - p[:, corner]
        v = p[:, (corner + 2) % 3] - p[:, corner]
        lu = np.linalg.norm(u, axis=1)
        lv = np.linalg.norm(v, axis=1)
        # tan(angle/2) from unit vectors, finite where the angle rounds to pi
        uh, vh = u / lu[:, None], v / lv[:, None]
        tan_half = (np.linalg.norm(uh - vh, axis=1)
                    / np.linalg.norm(uh + vh, axis=1))
        rows.extend([a, a])
        cols.extend([b, c])
        vals.extend([tan_half / lu, tan_half / lv])
    W = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    rowsum = np.asarray(W.sum(axis=1)).ravel()
    rowsum[rowsum == 0.0] = 1.0  # isolated vertices keep an identity row
    W = sp.diags(1.0 / rowsum) @ W
    return (sp.eye(n) - W).tocsr()


def assemble(mesh, scheme="linear_fem", mass_mode="lumped"):
    """Assemble the (L, B) pair for a mesh under the chosen weight scheme.

    linear_fem: cotangent stiffness with consistent or lumped FEM mass.
    voronoi_cotangent: the same stiffness with the mass necessarily lumped.
    mean_value: positive row-normalised weights, non-symmetric, for
    harmonic-type solves only; mass necessarily lumped, as in lumped FEM.

    Degenerate triangles (area below 1e-12 x squared bbox diagonal)
    contribute nothing.  Boundaries are natural: sums simply run over the
    existing triangles.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if mass_mode not in MASS_MODES:
        raise ValueError(f"unknown mass mode {mass_mode!r}")
    if scheme != "linear_fem" and mass_mode == "consistent":
        raise ValueError(f"{scheme} is defined with lumped mass only")

    tris, p, areas = _triangle_geometry(mesh)
    n = mesh.n_vertices
    if scheme == "mean_value":
        L = _mean_value_stiffness(n, tris, p)
    else:
        L = _fem_stiffness(n, tris, p, areas)
    B = _mass(n, tris, areas, lumped=mass_mode == "lumped")
    return LaplacianOperator(L, B, scheme, mass_mode)


def _mass_solve(op, rhs):
    """B^{-1} rhs for a vector or an (n, m) block: a diagonal divide for
    lumped mass, numerics.factor(B) for consistent mass.  A vertex in no
    non-degenerate triangle has no mass and makes B singular."""
    numerics.check_mass(op.B)
    if op.mass_mode == "lumped":
        d = op.B.diagonal()
        return rhs / (d[:, None] if rhs.ndim == 2 else d)
    return numerics.factor(op.B)[1](rhs)


def apply(op, f):
    """Action of the operator: B^{-1} (L f)."""
    values = field_values(f)
    if len(values) != op.n:
        raise ValueError("field length does not match operator dimension")
    return ScalarField(_mass_solve(op, op.L @ values), tag="laplacian")

