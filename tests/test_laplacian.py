"""Operator assembly: cotangent weights, mass matrices, mean-value scheme."""

import io
import itertools
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import lapbasis as lb
from lapbasis.errors import AllDegenerate
from lapbasis.laplacian import MASS_MODES, SCHEMES
from lapbasis.mesh import DEGENERATE_AREA_FACTOR

from conftest import LAYOUT_MESHES, assert_same_csr


def dense(op):
    return op.L.toarray(), op.B.toarray()


def check_apply_matches_matrices(op):
    rng = np.random.default_rng(7)
    f = rng.standard_normal(op.n)
    L, B = dense(op)
    want = np.linalg.solve(B, L @ f)
    got = lb.field_values(lb.apply(op, f))
    assert np.allclose(got, want, atol=1e-10 * np.abs(want).max())


def check_apply_is_b_selfadjoint(op):
    # <L~ f, g>_B = f' L g for the symmetric schemes
    rng = np.random.default_rng(11)
    _, B = dense(op)
    f = rng.standard_normal(op.n)
    g = rng.standard_normal(op.n)
    lf = lb.field_values(lb.apply(op, f))
    lg = lb.field_values(lb.apply(op, g))
    a = lf @ B @ g
    b = f @ B @ lg
    scale = max(abs(a), abs(b), 1.0)
    assert abs(a - b) <= 1e-9 * scale


class TestUnitSquare:
    """Hand-derived cotangent weights on the two-triangle unit square.

    Vertices (0,0),(1,0),(1,1),(0,1); triangles (0,1,2),(0,2,3).  All
    corner angles are 45 or 90 degrees, so cot is 1 or 0 exactly.
    """

    def test_stiffness_weights(self):
        L, _ = dense(lb.assemble(lb.unit_square()))
        # diagonal edge (0,2): opposite angles are both 90 deg -> weight 0
        assert L[0, 2] == pytest.approx(0.0, abs=1e-14)
        # boundary edges: single 45-deg opposite angle -> weight 1/2
        for i, j in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            assert L[i, j] == pytest.approx(-0.5, abs=1e-14)
        # rows sum to zero
        assert np.allclose(L.sum(axis=1), 0.0, atol=1e-14)
        assert np.allclose(L, L.T)

    def test_lumped_mass(self):
        _, B = dense(lb.assemble(lb.unit_square()))
        # corners 0 and 2 touch both triangles, 1 and 3 only one
        assert np.allclose(np.diag(B), [1 / 3, 1 / 6, 1 / 3, 1 / 6])
        assert np.allclose(B, np.diag(np.diag(B)))

    def test_consistent_mass(self):
        _, B = dense(lb.assemble(lb.unit_square(), mass_mode="consistent"))
        # per triangle: diagonal area/6, off-diagonal area/12 (area = 1/2)
        assert B[0, 1] == pytest.approx(1 / 24)
        assert B[0, 2] == pytest.approx(2 / 24)  # shared by both triangles
        assert B[0, 0] == pytest.approx(2 / 12)
        assert B.sum() == pytest.approx(1.0)  # total area
        assert np.allclose(B, B.T)


class TestAssembly:
    def test_total_mass_is_surface_area(self, sphere3):
        for mode in ("lumped", "consistent"):
            op = lb.assemble(sphere3, mass_mode=mode)
            _, B = dense(op)
            assert B.sum() == pytest.approx(
                sphere3.triangle_areas().sum(), rel=1e-10
            )

    def test_constants_annihilated(self, op3):
        ones = np.ones(op3.n)
        r = op3.L @ ones
        scale = np.abs(op3.L).sum(axis=1).max()
        assert np.abs(r).max() <= 1e-12 * scale

    def test_psd_quadratic_form(self, op3):
        rng = np.random.default_rng(3)
        Lm = op3.L
        norm = np.abs(Lm).sum(axis=1).max()
        for _ in range(5):
            f = rng.standard_normal(op3.n)
            assert f @ (Lm @ f) >= -1e-10 * (f @ f) * norm

    def test_lumped_mass_positive_diagonal(self, op3):
        B = op3.B
        assert (B.diagonal() > 0).all()
        assert B.nnz == op3.n

    def test_stiffness_tagged_psd(self, op3):
        assert op3.L.format == op3.B.format == "csr"
        assert op3.is_symmetric

    def test_sphere_coordinate_is_near_eigenfunction(self, sphere4, op4):
        # x restricted to the unit sphere satisfies delta x = 2x
        x = sphere4.vertices[:, 0]
        lap = lb.field_values(lb.apply(op4, x))
        assert np.linalg.norm(lap - 2 * x) <= 0.05 * np.linalg.norm(2 * x)

    def test_apply_matches_matrices(self, op2):
        check_apply_matches_matrices(op2)

    def test_apply_matches_matrices_consistent(self, op2_consistent):
        check_apply_matches_matrices(op2_consistent)

    def test_apply_is_b_selfadjoint(self, op2):
        check_apply_is_b_selfadjoint(op2)

    def test_apply_is_b_selfadjoint_consistent(self, op2_consistent):
        check_apply_is_b_selfadjoint(op2_consistent)

    def test_negative_weights_counted_not_corrected(self):
        # skinny pair: the shared edge sees obtuse opposite angles
        verts = np.array(
            [[0, 0, 0], [4, 0, 0], [2, 0.3, 0], [2, -0.3, 0]], dtype=float
        )
        tris = np.array([[0, 1, 2], [0, 3, 1]])
        op = lb.assemble(lb.TriangleMesh(verts, tris))
        L, _ = dense(op)
        assert L[0, 1] > 0  # the "wrong"-sign weight survives

    def test_degenerate_triangles_skipped(self):
        verts = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0]], dtype=float
        )
        tris = np.array([[0, 1, 2], [0, 1, 3]])  # second has zero area
        op = lb.assemble(lb.TriangleMesh(verts, tris))
        good = lb.assemble(
            lb.TriangleMesh(verts[:3], np.array([[0, 1, 2]]))
        )
        L, _ = dense(op)
        Lg, _ = dense(good)
        assert np.allclose(L[:3, :3], Lg)
        assert np.allclose(L[3], 0)

    def test_all_degenerate_raises(self):
        verts = np.array(
            [[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float
        )
        with pytest.raises(AllDegenerate):
            lb.assemble(lb.TriangleMesh(verts, np.array([[0, 1, 2]])))

    def test_unknown_scheme(self, sphere1):
        with pytest.raises(ValueError):
            lb.assemble(sphere1, scheme="graph")

    def test_every_scheme_assembles_its_own_pair(self):
        # a scheme name that runs another scheme's code (an alias) fails
        mesh = lb.bumpy_sphere(2)
        pairs = {}
        for scheme, mass_mode in itertools.product(SCHEMES, MASS_MODES):
            try:
                op = lb.assemble(mesh, scheme, mass_mode)
            except ValueError:  # a mass the scheme is not defined with
                continue
            pairs[scheme, mass_mode] = (op.L.toarray(), op.B.toarray())
        assert {scheme for scheme, _ in pairs} == set(SCHEMES)
        for (a, (La, Ba)), (b, (Lb, Bb)) in itertools.combinations(
                pairs.items(), 2):
            assert not (np.array_equal(La, Lb) and np.array_equal(Ba, Bb)), \
                (a, b)


class TestMeanValue:
    def test_unit_square_weights(self):
        op = lb.assemble(lb.unit_square(), scheme="mean_value")
        W = np.eye(4) - op.L.toarray()
        t = np.tan(np.pi / 8)
        row0 = np.array([0.0, t, 2 * t / np.sqrt(2.0), t])
        assert np.allclose(W[0], row0 / row0.sum(), atol=1e-12)

    def test_rows_normalised_and_positive(self, sphere2):
        op = lb.assemble(sphere2, scheme="mean_value")
        W = sp.eye(op.n) - op.L
        assert np.allclose(np.asarray(W.sum(axis=1)).ravel(), 1.0)
        assert (W.data >= -1e-14).all()

    def test_not_symmetric_tag(self, sphere2):
        op = lb.assemble(sphere2, scheme="mean_value")
        assert not op.is_symmetric

    def test_lumped_mass_only(self, sphere2):
        op = lb.assemble(sphere2, scheme="mean_value")
        assert op.mass_mode == "lumped"
        off = op.L - sp.diags(op.L.diagonal())
        assert (off.data <= 0.0).all()  # W is non-negative
        assert (abs(op.B - lb.assemble(sphere2).B) > 0).nnz == 0
        with pytest.raises(ValueError, match="lumped mass only"):
            lb.assemble(sphere2, scheme="mean_value", mass_mode="consistent")

    def test_constants_in_kernel(self, sphere2):
        op = lb.assemble(sphere2, scheme="mean_value")
        r = op.L @ np.ones(op.n)
        assert np.abs(r).max() <= 1e-12

    def test_sliver_angle_near_pi_keeps_weights(self):
        # vertex 4 sits 1e-9 above edge (0, 1): its angle in triangle
        # (0, 1, 4) rounds to pi, yet no triangle is below the threshold
        verts = np.array([[0, 0, 0], [2, 0, 0], [1, -1, 0], [1, 1, 0],
                          [1, 1e-9, 0], [3, 0, 0]], dtype=float)
        tris = np.array([[0, 1, 4], [0, 4, 3], [4, 1, 3], [0, 2, 1],
                         [1, 2, 5], [1, 5, 3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = lb.assemble(lb.TriangleMesh(verts, tris), scheme="mean_value")
        L = op.L.toarray()
        assert np.isfinite(L).all()
        assert np.count_nonzero(np.delete(L[4], 4)) >= 2
        assert np.abs(L.sum(axis=1)).max() <= 1e-12



def coo_operator(mesh, scheme, mass_mode):
    """(L, B) assembled through scipy's COO -> CSR conversion, with
    L - diags(rowsum) for the cotangent diagonal: the reference."""
    n = mesh.n_vertices
    tris = mesh.triangles
    p = mesh.vertices[tris]
    areas = 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0],
                                          p[:, 2] - p[:, 0]), axis=1)
    keep = areas >= DEGENERATE_AREA_FACTOR * mesh.bbox_diagonal() ** 2
    tris, p, areas = tris[keep], mesh.vertices[tris[keep]], areas[keep]

    def coo(rows, cols, vals):
        return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                              np.concatenate(cols))), shape=(n, n)).tocsr()

    rows, cols, vals = [], [], []
    for c in range(3):
        i, j = tris[:, (c + 1) % 3], tris[:, (c + 2) % 3]
        u = p[:, (c + 1) % 3] - p[:, c]
        v = p[:, (c + 2) % 3] - p[:, c]
        if scheme == "mean_value":
            lu, lv = np.linalg.norm(u, axis=1), np.linalg.norm(v, axis=1)
            uh, vh = u / lu[:, None], v / lv[:, None]
            th = (np.linalg.norm(uh - vh, axis=1)
                  / np.linalg.norm(uh + vh, axis=1))
            rows += [tris[:, c], tris[:, c]]
            cols += [i, j]
            vals += [th / lu, th / lv]
        else:
            # einsum("ij,ij->i", u, v) on x86-64 with AVX2, portably
            uv = u * v
            w = -0.5 * ((uv[:, 0] + uv[:, 2] + uv[:, 1]) / (2.0 * areas))
            rows += [i, j]
            cols += [j, i]
            vals += [w, w]
    L = coo(rows, cols, vals)
    if scheme == "mean_value":
        rowsum = np.asarray(L.sum(axis=1)).ravel()
        rowsum[rowsum == 0.0] = 1.0
        L = (sp.eye(n) - sp.diags(1.0 / rowsum) @ L).tocsr()
    else:
        L = (L - sp.diags(np.asarray(L.sum(axis=1)).ravel())).tocsr()
    if mass_mode == "lumped":
        d = np.zeros(n)
        np.add.at(d, tris.ravel(), np.repeat(areas / 3.0, 3))
        return L, sp.diags(d).tocsr()
    rows, cols = [tris.ravel()], [tris.ravel()]
    vals = [np.repeat(areas / 6.0, 3)]
    for a, b in ((0, 1), (1, 2), (2, 0)):
        rows += [tris[:, a], tris[:, b]]
        cols += [tris[:, b], tris[:, a]]
        vals += [areas / 12.0, areas / 12.0]
    return L, coo(rows, cols, vals)


class TestBitIdentity:
    """assemble fills the mesh's edge pattern; every array of L and B
    keeps the bits of the COO -> CSR assembly."""

    @pytest.mark.parametrize("scheme, mass_mode", [
        ("linear_fem", "lumped"), ("linear_fem", "consistent"),
        ("mean_value", "lumped"),
    ])
    @pytest.mark.parametrize("name", sorted(LAYOUT_MESHES))
    def test_matches_coo_assembly(self, name, scheme, mass_mode):
        mesh = LAYOUT_MESHES[name]()
        op = lb.assemble(mesh, scheme, mass_mode)
        L, B = coo_operator(mesh, scheme, mass_mode)
        assert_same_csr(op.L, L)
        assert_same_csr(op.B, B)

    def test_meshes_reach_the_edge_cases(self):
        grid = LAYOUT_MESHES["grid"]()
        # weights summing to exactly 0.0 leave the pattern
        assert lb.assemble(grid).L.nnz < 2 * len(grid.edges) + grid.n_vertices
        fan = LAYOUT_MESHES["nonmanifold_fan"]()
        assert fan._edge_counts.max() >= 3  # sums of three or more terms
        assert len(LAYOUT_MESHES["degenerate"]().degenerate_triangles()) == 1
        patch = LAYOUT_MESHES["open_patch"]()
        assert len(patch.boundary_edges()) > 0
        assert lb.assemble(patch).B.nnz < patch.n_vertices  # unused vertices
