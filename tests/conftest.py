"""Shared meshes, operators, and cached eigensystems.

Everything heavy is session-scoped so the expensive eigendecompositions
run once for the whole suite.
"""

import numpy as np
import pytest

import lapbasis as lb


def assert_same_csr(got, want):
    """Same shape, and every array of the two CSR matrices the same in
    dtype and in every bit."""
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def merge_meshes(a, b, offset=(10.0, 0.0, 0.0)):
    """Disjoint union of two meshes with the second translated by offset."""
    verts = np.vstack([a.vertices, b.vertices + np.asarray(offset)])
    tris = np.vstack([a.triangles, b.triangles + a.n_vertices])
    return lb.TriangleMesh(verts, tris)


def open_patch():
    """The cap z > 0.2 of a bumpy sphere: curved, with a boundary."""
    m = lb.bumpy_sphere(3, seed=2)
    keep = m.vertices[m.triangles][:, :, 2].min(axis=1) > 0.2
    return lb.TriangleMesh(m.vertices, m.triangles[keep])


def nonmanifold_fan():
    """Four triangles round edge (0, 1), both orientations, beside a
    square and an isolated vertex: entries (0, 1) and (1, 0) sum the same
    four terms in two orders to two different values; an empty row."""
    verts = [[0, 0, 0], [1, 0, 0], [-0.45, -0.99, 0.29], [0.44, 0.67, -0.44],
             [-0.57, 0.28, 0.61], [0.93, -0.7, -0.04], [3, 0, 0], [4, 0, 0],
             [4, 1, 0], [3, 1, 0], [9, 9, 9]]
    tris = [[0, 1, 2], [1, 0, 3], [0, 1, 4], [5, 1, 0], [6, 7, 8], [6, 8, 9]]
    return lb.TriangleMesh(verts, tris)


def with_degenerate():
    """Triangle (0, 1, 3) has zero area: edge (1, 3) has no other."""
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0], [1, 1, 0]]
    return lb.TriangleMesh(verts, [[0, 1, 2], [0, 1, 3], [1, 4, 2]])


# every generator of lapbasis.shapes
SHAPE_MESHES = {
    "icosphere": lambda: lb.icosphere(2),
    "bumpy_sphere": lambda: lb.bumpy_sphere(3, seed=1),
    "torus": lambda: lb.torus(12, 8),
    # planar right triangles: each diagonal's weights sum to exactly 0.0
    "grid": lambda: lb.grid(6, 5),
    "unit_square": lb.unit_square,
}

# meshes whose arrays must keep every bit of the COO -> CSR construction
LAYOUT_MESHES = {**SHAPE_MESHES, "open_patch": open_patch,
                 "nonmanifold_fan": nonmanifold_fan,
                 "degenerate": with_degenerate}


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
