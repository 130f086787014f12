"""Every basis family is invariant under rigid motion and uniform scaling.

Scaling a mesh by R multiplies every eigenvalue of (L, B) by R^-2, so a
field computed at R with its scales carried along (t -> R^2 t, a rational
denominator's s-coefficient times R^2, mu -> mu / R^2) equals the field at
R = 1 times a power of R: R^2 for the Green columns and the truncated
poly:k=2 columns, R^-1 for curvature_field and 1 for the rest.  A rotation
plus a translation changes no field.  Each case compares the transformed
mesh's fields, brought back by that power of R, with the reference mesh's.
"""

from functools import lru_cache

import numpy as np
import pytest

import lapbasis as lb
from lapbasis.filters import FilterSpec

SEEDS = [0, 211, 480]
T = 0.05  # heat scale at R = 1
K = 20  # eigenpairs of the eigenvalue and truncated poly:k=2 cases
RTOL = 1e-10  # relative to the largest entry of the reference


def rigid(mesh):
    """A seeded random rotation plus a translation of the mesh."""
    rng = np.random.default_rng(7)
    Q, R = np.linalg.qr(rng.standard_normal((3, 3)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return lb.TriangleMesh(mesh.vertices @ Q.T + [3.0, -2.0, 5.0],
                           mesh.triangles)


def scaled(mesh, R):
    return lb.TriangleMesh(mesh.vertices * R, mesh.triangles)


def columns(basis_set):
    return np.column_stack([lb.field_values(f) for f in basis_set])


MESH = lb.bumpy_sphere(3, seed=1)
POLY = FilterSpec.polyharmonic(2)


@lru_cache(maxsize=None)
def prepared(mass, transform):
    """(mesh, op, R) of the reference mesh after transform: "reference",
    "rigid" or "R=<scale>"."""
    if transform == "rigid":
        mesh, R = rigid(MESH), 1.0
    else:
        R = float(transform.partition("=")[2] or 1.0)
        mesh = scaled(MESH, R)
    return mesh, lb.assemble(mesh, mass_mode=mass), R


@lru_cache(maxsize=None)
def eigenpairs(mass, transform):
    return lb.eigen_basis(prepared(mass, transform)[1], K)


# each family on the transformed mesh with its scales carried for size R,
# brought back to R = 1 units; one entry per family, so that a family that
# fails fails alone
FAMILIES = {
    "heat": lambda mesh, op, R, eig: columns(lb.spectral_set(
        op, FilterSpec.exponential(T * R**2), SEEDS)),
    "rat": lambda mesh, op, R, eig: columns(lb.spectral_set(
        op, FilterSpec.rational((1.0,), (1.0, 0.3 * R**2)), SEEDS)),
    "poly-truncated": lambda mesh, op, R, eig: columns(lb.spectral_set(
        op, POLY, SEEDS, method="truncated", eig=eig())) / R**2,
    "harmonic": lambda mesh, op, R, eig: columns(
        lb.harmonic_basis(op, SEEDS)),
    "hamiltonian": lambda mesh, op, R, eig: columns(lb.hamiltonian_basis(
        op, np.ones(op.n), 2.0 / R**2, SEEDS)),
    "green": lambda mesh, op, R, eig: columns(
        lb.green_basis(op, SEEDS)) / R**2,
    "eigenvalues": lambda mesh, op, R, eig: eig().values[1:] * R**2,
    "curvature": lambda mesh, op, R, eig: lb.field_values(
        lb.curvature_field(mesh, op)) * R,
}


def family(name, mass, transform):
    return FAMILIES[name](*prepared(mass, transform),
                          lambda: eigenpairs(mass, transform))


def rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("transform", ["rigid", "R=1e-3", "R=1e4", "R=1e6"])
@pytest.mark.parametrize("mass", ["lumped", "consistent"])
def test_family_invariant(mass, transform, name):
    got = family(name, mass, transform)
    assert rel_err(got, family(name, mass, "reference")) <= RTOL


@pytest.mark.parametrize("mass", ["lumped", "consistent"])
def test_eigenvalues_at_R_1e10(mass):
    R = 1e10
    op = lb.assemble(scaled(MESH, R), mass_mode=mass)
    got = lb.eigen_basis(op, K).values[1:] * R**2
    assert rel_err(got, family("eigenvalues", mass, "reference")) <= RTOL


@pytest.mark.parametrize("R", [1e-8, 1e-10], ids=["R=1e-8", "R=1e-10"])
@pytest.mark.parametrize("mass", ["lumped", "consistent"])
def test_eigenvalues_at_small_R(mass, R):
    # B's entries are near 1e-18 at R = 1e-8, so the eigenvalues are near
    # 1e17: eigsh sees the pencil in units of its scale, where ARPACK's
    # convergence test stays relative
    op = lb.assemble(scaled(MESH, R), mass_mode=mass)
    got = lb.eigen_basis(op, K).values[1:] * R**2
    assert rel_err(got, family("eigenvalues", mass, "reference")) <= RTOL


@pytest.mark.parametrize("R", [1e4, 3e4])
def test_icosphere_clusters(R):
    # icosphere(3)'s lambda_16..lambda_19 form one 4-fold cluster, so k = 20
    # ends with it and the truncated column is determined by the mesh
    ref_op = lb.assemble(lb.icosphere(3))
    op = lb.assemble(scaled(lb.icosphere(3), R))
    ref, eig = lb.eigen_basis(ref_op, K), lb.eigen_basis(op, K)
    assert rel_err(eig.values * R**2, ref.values) <= RTOL
    poly = FilterSpec.polyharmonic(2)
    want = columns(lb.spectral_set(ref_op, poly, [0], "truncated", eig=ref))
    got = columns(lb.spectral_set(op, poly, [0], "truncated", eig=eig))
    assert rel_err(got / R**2, want) <= RTOL
