"""Shared meshes, operators, and cached eigensystems.

Everything heavy is session-scoped so the expensive eigendecompositions
run once for the whole suite.
"""

import numpy as np
import pytest

import lapbasis as lb


def merge_meshes(a, b, offset=(10.0, 0.0, 0.0)):
    """Disjoint union of two meshes with the second translated by offset."""
    verts = np.vstack([a.vertices, b.vertices + np.asarray(offset)])
    tris = np.vstack([a.triangles, b.triangles + a.n_vertices])
    return lb.TriangleMesh(verts, tris)


@pytest.fixture(scope="session")
def sphere0():
    return lb.icosphere(0)


@pytest.fixture(scope="session")
def sphere1():
    return lb.icosphere(1)


@pytest.fixture(scope="session")
def sphere2():
    return lb.icosphere(2)


@pytest.fixture(scope="session")
def sphere3():
    return lb.icosphere(3)


@pytest.fixture(scope="session")
def sphere4():
    return lb.icosphere(4)


@pytest.fixture(scope="session")
def op1(sphere1):
    return lb.assemble(sphere1)


@pytest.fixture(scope="session")
def op2(sphere2):
    return lb.assemble(sphere2)


@pytest.fixture(scope="session")
def op2_consistent(sphere2):
    return lb.assemble(sphere2, mass_mode="consistent")


@pytest.fixture(scope="session")
def op3(sphere3):
    return lb.assemble(sphere3)


@pytest.fixture(scope="session")
def op4(sphere4):
    return lb.assemble(sphere4)


@pytest.fixture(scope="session")
def torus200():
    return lb.torus(20, 10)


@pytest.fixture(scope="session")
def op_torus200(torus200):
    return lb.assemble(torus200)


@pytest.fixture(scope="session")
def torus500():
    return lb.torus(25, 20)


@pytest.fixture(scope="session")
def op_torus500(torus500):
    return lb.assemble(torus500)


@pytest.fixture(scope="session")
def op3_consistent(sphere3):
    return lb.assemble(sphere3, mass_mode="consistent")


@pytest.fixture(scope="session")
def op_torus500_consistent(torus500):
    return lb.assemble(torus500, mass_mode="consistent")


@pytest.fixture(scope="session")
def eig162_full(op2):
    return lb.eigen_basis(op2, op2.n)


@pytest.fixture(scope="session")
def eig642_full(op3):
    return lb.eigen_basis(op3, op3.n)


@pytest.fixture(scope="session")
def eig20_642(op3):
    return lb.eigen_basis(op3, 20)


@pytest.fixture(scope="session")
def eig100_2562(op4):
    return lb.eigen_basis(op4, 100)


@pytest.fixture(scope="session")
def two_spheres(sphere1):
    return merge_meshes(sphere1, sphere1)


@pytest.fixture(scope="session")
def dense_pair(op2):
    """Dense (L, B) of the 162-vertex sphere for oracle computations."""
    return op2.L.toarray(), op2.B.toarray()
