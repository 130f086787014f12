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
from .mesh import DEGENERATE_AREA_FACTOR, _corner_areas

SCHEMES = ("linear_fem", "mean_value")
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
    """The non-degenerate triangles, their corner positions (coordinate-
    major, as TriangleMesh._corners) and areas, and the mask that keeps
    them: None, and no copies, when all are kept."""
    tris = mesh.triangles
    q = mesh._corners()
    areas = _corner_areas(q)
    keep = areas >= DEGENERATE_AREA_FACTOR * mesh.bbox_diagonal() ** 2
    if keep.all():
        return tris, q, areas, None
    if not np.any(keep):
        raise AllDegenerate("every triangle is degenerate")
    return tris[keep], q[:, :, keep], areas[keep], keep


def _csr(n, indptr, indices, data):
    """The n x n CSR matrix of these sorted rows without their exact
    zeros, which scipy's sparse arithmetic drops."""
    nz = data != 0
    if not nz.all():
        indptr = np.concatenate([[0], np.cumsum(nz)])[indptr]
        indices, data = indices[nz], data[nz]
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _fem_stiffness(mesh, q, areas, keep):
    """Cotangent stiffness: off-diagonal -(cot a + cot b)/2, diag = -rowsum.

    The weights fill the mesh's adjacency pattern plus the diagonal, with
    the bits of a COO -> CSR conversion and ``L - diags(rowsum)``: an
    entry sums its terms in COO order (corner by corner, i -> j then
    j -> i, triangle by triangle), as scipy's conversion does in a row of
    at most 16 terms (in a longer row its sort may reorder the terms of an
    entry, which matters only on an edge of three or more triangles); a
    row sum is the reduceat over the row's stored entries that scipy's
    sum(axis=1) runs; exact zeros are dropped, as the subtraction drops
    them.
    """
    A = mesh.adjacency()
    slots = mesh._corner_slots
    if keep is not None:
        slots = slots[:, :, keep]
    w = np.empty((3, len(areas)))
    twice = 2.0 * areas
    for corner in range(3):
        u = q[:, (corner + 1) % 3] - q[:, corner]
        u *= q[:, (corner + 2) % 3] - q[:, corner]
        # cot of the angle at `corner`, opposite to edge (i, j); the dot
        # product adds its terms as (x + z) + y, the order of
        # np.einsum("ij,ij->i") on x86-64 with AVX2
        np.divide(u[0] + u[2] + u[1], twice, out=w[corner])
    w *= -0.5
    off = np.bincount(slots.ravel(),
                      np.broadcast_to(w[:, None], slots.shape).ravel(),
                      minlength=A.nnz)
    data, indptr = off, A.indptr
    if keep is not None:  # an edge of degenerate triangles only is absent
        stored = np.bincount(slots.ravel(), minlength=A.nnz) > 0
        data = off[stored]
        indptr = np.concatenate([[0], np.cumsum(stored)])[indptr]
    n = mesh.n_vertices
    rowsum = np.zeros(n)
    rows = np.flatnonzero(np.diff(indptr))
    rowsum[rows] = np.add.reduceat(data, indptr[rows])
    # the diagonal goes after the row's lower neighbours
    row_of = np.repeat(np.arange(n), np.diff(A.indptr))
    upper = A.indices > row_of
    pos = np.arange(A.nnz) + row_of + upper
    dpos = A.indptr[:-1] + np.arange(n)
    dpos += np.bincount(row_of[~upper], minlength=n)
    vals = np.empty(A.nnz + n)
    vals[pos] = off
    vals[dpos] = -rowsum
    cols = np.empty(A.nnz + n, dtype=A.indices.dtype)
    cols[pos] = A.indices
    cols[dpos] = np.arange(n)
    return _csr(n, A.indptr + np.arange(n + 1), cols, vals)


def _mass(n, tris, areas, lumped):
    if lumped:
        d = np.bincount(tris.ravel(), np.repeat(areas / 3.0, 3), minlength=n)
        return _csr(n, np.arange(n + 1), np.arange(n), d)
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

    tris, q, areas, keep = _triangle_geometry(mesh)
    n = mesh.n_vertices
    if scheme == "mean_value":
        L = _mean_value_stiffness(n, tris, q.transpose(2, 1, 0))
    else:
        L = _fem_stiffness(mesh, q, areas, keep)
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

