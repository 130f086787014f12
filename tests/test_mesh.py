"""Mesh loading, validation, distances, connectivity, and round-trips."""

import re
from collections import Counter

import numpy as np
import pytest

import lapbasis as lb
from lapbasis.errors import DisconnectedMesh, ParseError, UnsupportedFeature
from lapbasis.mesh import save_off, save_ply

from conftest import merge_meshes

OFF_SQUARE = """\
OFF
# a unit square made of two triangles

4 2 0
0.0 0.0 0.0
1.0 0.0 0.0
1.0 1.0 0.0
0.0 1.0 0.0
3 0 1 2
3 0 2 3
"""

OBJ_QUAD = """\
# quad fan plus a lone triangle
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
v 2 0 0
vt 0 0
vn 0 0 1
usemtl none
f 1/1/1 2/1/1 3/1/1 4/1/1
f 2 5 3
"""

# two components and an isolated vertex: a fan of three triangles around the
# non-manifold edge (0, 1), a unit square (both with boundary), and vertex 9
MIXED_VERTS = [
    [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], [0.5, 0.5, 1],
    [3, 0, 0], [4, 0, 0], [4, 1, 0], [3, 1, 0], [9, 9, 9],
]
MIXED_TRIS = [[0, 1, 2], [1, 0, 3], [0, 1, 4], [5, 6, 7], [5, 7, 8]]


def mixed_mesh():
    return lb.TriangleMesh(MIXED_VERTS, MIXED_TRIS)


def set_connectivity(mesh):
    """Edge triangle counts and one rings, built straight from triangles."""
    counts = Counter()
    rings = [set() for _ in range(mesh.n_vertices)]
    for tri in mesh.triangles.tolist():
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            counts[(min(a, b), max(a, b))] += 1
            rings[a].add(b)
            rings[b].add(a)
    return counts, [sorted(r) for r in rings]


PLY_EXTRA = """\
ply
format ascii 1.0
comment made by hand
element vertex 3
property float confidence
property float x
property float y
property float z
element face 1
property list uchar int vertex_indices
end_header
0.9 0.0 0.0 0.0
0.8 1.0 0.0 0.0
0.7 0.0 1.0 0.0
3 0 1 2
"""


class TestParsing:
    def test_off_with_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "square.off"
        path.write_text(OFF_SQUARE)
        mesh = lb.load_mesh(path)
        assert mesh.n_vertices == 4
        assert mesh.n_triangles == 2
        assert np.allclose(mesh.vertices[2], [1.0, 1.0, 0.0])

    def test_format_detected_from_extension(self, tmp_path):
        path = tmp_path / "square.off"
        path.write_text(OFF_SQUARE)
        mesh = lb.load_mesh(path, format="auto")
        assert mesh.n_triangles == 2

    def test_obj_one_based_and_quad_fan(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text(OBJ_QUAD)
        mesh = lb.load_mesh(path)
        assert any("triangulated" in w for w in mesh.warnings)
        # the quad splits into a fan of two triangles plus the lone one
        assert mesh.n_vertices == 5
        assert mesh.n_triangles == 3
        assert [0, 1, 2] in mesh.triangles.tolist()
        assert [0, 2, 3] in mesh.triangles.tolist()

    def test_obj_negative_indices(self, tmp_path):
        text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n"
        path = tmp_path / "neg.obj"
        path.write_text(text)
        mesh = lb.load_mesh(path)
        assert mesh.triangles.tolist() == [[0, 1, 2]]

    def test_ply_respects_property_order(self, tmp_path):
        path = tmp_path / "extra.ply"
        path.write_text(PLY_EXTRA)
        mesh = lb.load_mesh(path)
        # confidence comes first in the header, so x is the second column
        assert np.allclose(mesh.vertices[1], [1.0, 0.0, 0.0])
        assert mesh.triangles.tolist() == [[0, 1, 2]]

    def test_out_of_range_index_raises(self, tmp_path):
        text = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n"
        path = tmp_path / "bad.off"
        path.write_text(text)
        with pytest.raises(ParseError):
            lb.load_mesh(path)

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "short.off"
        path.write_text("OFF\n4 2 0\n0 0 0\n")
        with pytest.raises(ParseError):
            lb.load_mesh(path)

    def test_pentagon_face_unsupported(self, tmp_path):
        text = (
            "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv -1 0.5 0\n"
            "f 1 2 3 4 5\n"
        )
        path = tmp_path / "penta.obj"
        path.write_text(text)
        with pytest.raises(UnsupportedFeature):
            lb.load_mesh(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "mesh.stl"
        path.write_text("solid nothing\n")
        with pytest.raises(UnsupportedFeature):
            lb.load_mesh(path)


def off_by_token(text):
    """Vertices, triangles and warnings of an OFF text, read with one
    float() or int() per token: the reference for the bulk reader."""
    tokens = [t for line in text.splitlines()
              for t in line.split("#", 1)[0].split()]
    pos = 3 if tokens[0] == "OFF" else 2  # past the header and counts
    nv, nf = int(tokens[pos - 2]), int(tokens[pos - 1])
    pos += 1  # the edge count
    verts = [[float(t) for t in tokens[pos + 3 * i : pos + 3 * i + 3]]
             for i in range(nv)]
    pos += 3 * nv
    tris, warnings = [], []
    for _ in range(nf):
        k = int(tokens[pos])
        face = [int(t) for t in tokens[pos + 1 : pos + 1 + k]]
        pos += 1 + k
        if k == 4:
            tris += [face[:3], [face[0], face[2], face[3]]]
            warnings.append("quad face fan-triangulated")
        else:
            tris.append(face)
    return verts, tris, warnings


def assert_read_as(mesh, verts, tris, warnings=()):
    assert np.array_equal(mesh.vertices, np.array(verts, dtype=float))
    assert mesh.triangles.tolist() == tris
    assert mesh.warnings == tuple(warnings)


OFF_QUAD = """\
OFF
5 2 0
0 0 0
1 0 0
1 1 0
0 1 0
2 0.5 0
4 0 1 2 3
3 1 4 2
"""

PLY_HEADER = """\
ply
format ascii 1.0
element vertex 5
property float x
property float y
property float z
element face {}
property list uchar int vertex_indices
{}end_header
0 0 0
1 0 0
1 1 0
0 1 0
2 0.5 0
"""


def ply_text(*faces, face_props=""):
    return PLY_HEADER.format(len(faces), face_props) + "\n".join(faces) + "\n"


@pytest.mark.filterwarnings("error")  # malformed input raises, never warns
class TestBulkReaders:
    """The readers convert numbers in bulk and fall back to one record at a
    time; either way a file reads as its tokens read one by one."""

    @pytest.mark.parametrize("text", [
        OFF_SQUARE,
        # every token on one line, past the comment
        "OFF " + " ".join(OFF_SQUARE.split("\n", 2)[2].split()),
        OFF_SQUARE.replace("OFF\n# a unit square made of two triangles\n\n"
                           "4 2 0", "OFF 4 2 0"),
        "# lead\nOFF # magic\n4 2 0 # counts\n\n0 0 0 1 0 0\n1 1 0\n\n"
        "0 1 0 # last\n3 0 1 2 3 0 2 3\n",
    ], ids=["comments-blank-lines", "one-line", "counts-on-magic-line",
            "records-across-lines"])
    def test_off_layouts(self, tmp_path, text):
        path = tmp_path / "m.off"
        path.write_text(text)
        mesh = lb.load_mesh(path)
        assert_read_as(mesh, *off_by_token(text))
        assert mesh.triangles.tolist() == [[0, 1, 2], [0, 2, 3]]

    def test_off_quad_fans_with_warning(self, tmp_path):
        path = tmp_path / "q.off"
        path.write_text(OFF_QUAD)
        verts, tris, warnings = off_by_token(OFF_QUAD)
        assert tris == [[0, 1, 2], [0, 2, 3], [1, 4, 2]]
        assert_read_as(lb.load_mesh(path), verts, tris, warnings)

    def test_off_bumpy_sphere_bit_identical(self, tmp_path):
        path = tmp_path / "b.off"
        mesh = lb.bumpy_sphere(4, seed=1)
        save_off(mesh, path)
        again = lb.load_mesh(path)
        verts, tris, _ = off_by_token(path.read_text())
        assert np.array_equal(again.vertices, np.array(verts))
        assert np.array_equal(again.triangles, np.array(tris))
        assert np.array_equal(again.triangles, mesh.triangles)
        assert again.warnings == ()

    def test_ply_bumpy_sphere_reads_as_off(self, tmp_path):
        mesh = lb.bumpy_sphere(3, seed=1)
        save_off(mesh, tmp_path / "b.off")
        save_ply(mesh, tmp_path / "b.ply")
        off, ply = (lb.load_mesh(tmp_path / f) for f in ("b.off", "b.ply"))
        assert np.array_equal(ply.vertices, off.vertices)
        assert np.array_equal(ply.triangles, off.triangles)

    @pytest.mark.parametrize("faces, face_props, tris, quads", [
        (["3 0 1 2", "3 1 4 2"], "", [[0, 1, 2], [1, 4, 2]], 0),
        (["4 0 1 2 3", "3 1 4 2"], "", [[0, 1, 2], [0, 2, 3], [1, 4, 2]], 1),
        # a face property after the index list is skipped
        (["3 0 1 2 7", "3 1 4 2 8"], "property uchar flags\n",
         [[0, 1, 2], [1, 4, 2]], 0),
    ], ids=["triangles", "quad", "trailing-property"])
    def test_ply_faces(self, tmp_path, faces, face_props, tris, quads):
        path = tmp_path / "m.ply"
        path.write_text(ply_text(*faces, face_props=face_props))
        mesh = lb.load_mesh(path)
        assert mesh.triangles.tolist() == tris
        assert mesh.warnings == ("quad face fan-triangulated",) * quads
        assert np.array_equal(mesh.vertices[4], [2.0, 0.5, 0.0])

    def test_obj_references_and_negative_indices(self, tmp_path):
        # negative indices count back from the vertices read so far
        text = ("v 0 0 0\nv 1 0 0 # x\nv 1 1 0\nf -3/1 -2/2 -1/3\n"
                "vn 0 0 1\nv 0 1 0\nf 1//1 3//1 -1//1\nf 2/5 3 4\n")
        path = tmp_path / "m.obj"
        path.write_text(text)
        mesh = lb.load_mesh(path)
        assert mesh.triangles.tolist() == [[0, 1, 2], [0, 2, 3], [1, 2, 3]]
        assert mesh.warnings == ()

    def test_obj_matches_off(self, tmp_path):
        mesh = lb.bumpy_sphere(3, seed=1)
        save_off(mesh, tmp_path / "b.off")
        off = lb.load_mesh(tmp_path / "b.off")
        lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in off.vertices.tolist()]
        lines += [f"f {a + 1}/{a + 1} {b + 1}/{b + 1} {c + 1}/{c + 1}"
                  for a, b, c in off.triangles.tolist()]
        (tmp_path / "b.obj").write_text("\n".join(lines) + "\n")
        obj = lb.load_mesh(tmp_path / "b.obj")
        assert np.array_equal(obj.vertices, off.vertices)
        assert np.array_equal(obj.triangles, off.triangles)

    @pytest.mark.parametrize("name, text, error", [
        ("index.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 1.5\n",
         ParseError),
        ("count.off", "OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
         ParseError),
        ("range.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 3\n",
         ParseError),
        ("vertex.off", "OFF\n3 1 0\n0 0 0\n1 0 x\n0 1 0\n3 0 1 2\n",
         ParseError),
        ("penta.off", "OFF\n5 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n2 0 0\n"
         "5 0 1 2 3 4\n", UnsupportedFeature),
        ("index.ply", ply_text("3 0 1 1.5"), ParseError),
        ("count.ply", ply_text("3 0 1 2").replace("face 1", "face 2"),
         ParseError),
        ("range.ply", ply_text("3 0 1 5"), ParseError),
        ("penta.ply", ply_text("5 0 1 2 3 4"), UnsupportedFeature),
        # a PLY record ends with its line: a short quad is truncated, not
        # continued on the next line
        ("short.ply", ply_text("4 0 1 2", "3 1 4 2"), ParseError),
        ("index.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 1.5\n", ParseError),
        ("range.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\n", ParseError),
        ("slash.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 /3\n", ParseError),
    ])
    def test_malformed_input_raises(self, tmp_path, name, text, error):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(error):
            lb.load_mesh(path)

    @pytest.mark.parametrize("name, text, message", [
        ("count.off", "OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2 4 0 1\n",
         "truncated face record in OFF file"),
        ("short.ply", ply_text("4 0 1 2", "3 1 4 2"),
         "truncated PLY face record"),
        ("index.ply", ply_text("3 1 4 2", "3 0 x 2"),
         "bad PLY face record: invalid literal for int() with base 10: 'x'"),
        ("index.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2 x\n",
         "line 5: bad face index 'x'"),
        ("vertex.obj", "v 0 0 0\nv 1 0 q\nv 0 1 0\nf 1 2 3\n",
         "line 2: could not convert string to float: 'q'"),
    ])
    def test_error_names_the_first_bad_record(self, tmp_path, name, text,
                                              message):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(message)):
            lb.load_mesh(path)


class TestConstruction:
    def test_repeated_vertex_in_triangle_rejected(self):
        verts = np.eye(3)
        with pytest.raises(ValueError):
            lb.TriangleMesh(verts, np.array([[0, 1, 1]]))

    def test_nonfinite_vertex_rejected(self):
        verts = np.array([[0.0, 0.0, 0.0], [np.nan, 0, 0], [0, 1, 0]])
        with pytest.raises(ValueError):
            lb.TriangleMesh(verts, np.array([[0, 1, 2]]))

    def test_arrays_are_immutable(self, sphere1):
        with pytest.raises((ValueError, RuntimeError)):
            sphere1.vertices[0, 0] = 99.0

    def test_icosphere_counts(self):
        for s in range(4):
            m = lb.icosphere(s)
            assert m.n_vertices == 2 + 10 * 4**s
            assert m.n_triangles == 2 * m.n_vertices - 4

    def test_icosphere_refinement_preserves_coarse_vertices(self):
        coarse = lb.icosphere(1)
        fine = lb.icosphere(2)
        assert np.allclose(fine.vertices[: coarse.n_vertices], coarse.vertices)

    def test_icosphere_radius(self):
        m = lb.icosphere(2, radius=10.0)
        assert np.allclose(np.linalg.norm(m.vertices, axis=1), 10.0)


class TestValidate:
    def test_closed_sphere(self, sphere2):
        rep = lb.validate(sphere2)
        assert rep.n_vertices == 162
        assert rep.n_boundary_edges == 0
        assert rep.n_components == 1
        assert rep.degenerate_triangles == []
        assert rep.nonmanifold_edges == []

    def test_square_boundary(self):
        rep = lb.validate(lb.unit_square())
        assert rep.n_boundary_edges == 4
        assert rep.n_components == 1

    def test_degenerate_triangle_reported(self):
        verts = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0]], dtype=float
        )
        tris = np.array([[0, 1, 2], [0, 1, 3]])  # second is collinear
        rep = lb.validate(lb.TriangleMesh(verts, tris))
        assert rep.degenerate_triangles == [1]

    def test_two_components(self, two_spheres):
        rep = lb.validate(two_spheres)
        assert rep.n_components == 2

    def test_nonmanifold_edge_reported(self):
        rep = lb.validate(mixed_mesh())
        assert rep.nonmanifold_edges == [[0, 1]]
        assert rep.as_dict()["nonmanifold_edges"] == [[0, 1]]
        # two triangle components plus the isolated vertex
        assert rep.n_components == 3


class TestDistances:
    def test_source_distance_zero(self, sphere2):
        d = lb.field_values(lb.vertex_distances(sphere2, 5))
        assert d[5] == 0.0
        assert (d[np.arange(162) != 5] > 0).all()

    def test_euclidean_square(self):
        d = lb.vertex_distances(lb.unit_square(), 0, metric="euclidean")
        assert np.allclose(lb.field_values(d), [0.0, 1.0, np.sqrt(2.0), 1.0])

    def test_graph_geodesic_square(self):
        # the diagonal edge (0, 2) exists, so the geodesic equals sqrt(2)
        d = lb.vertex_distances(lb.unit_square(), 0, metric="graph_geodesic")
        assert np.allclose(lb.field_values(d), [0.0, 1.0, np.sqrt(2.0), 1.0])

    def test_geodesic_dominates_euclidean(self, torus200):
        de = lb.field_values(lb.vertex_distances(torus200, 0))
        dg = lb.field_values(
            lb.vertex_distances(torus200, 0, metric="graph_geodesic")
        )
        assert (dg >= de - 1e-12).all()

    def test_disconnected_distances_infinite(self, two_spheres):
        with pytest.warns(UserWarning, match="disconnected"):
            d = lb.vertex_distances(two_spheres, 0, metric="graph_geodesic")
        d = lb.field_values(d)
        n = two_spheres.n_vertices // 2
        assert np.isinf(d[n:]).all()
        assert np.isfinite(d[:n]).all()

    def test_bad_metric(self, sphere1):
        with pytest.raises(ValueError):
            lb.vertex_distances(sphere1, 0, metric="manhattan")

    def test_bad_source(self, sphere1):
        with pytest.raises(IndexError):
            lb.vertex_distances(sphere1, 42)


class TestTopology:
    def test_one_ring_symmetry(self, sphere1):
        rings = [sphere1.one_ring(i) for i in range(42)]
        for i, ring in enumerate(rings):
            for j in ring:
                assert i in rings[j]

    def test_adjacency_matches_edges(self, sphere1):
        A = sphere1.adjacency()
        assert (A != A.T).nnz == 0
        # every triangle edge is present
        for a, b, c in sphere1.triangles:
            assert A[a, b] != 0 and A[b, c] != 0 and A[c, a] != 0

    def test_weighted_adjacency_stores_lengths(self, sphere1):
        W = sphere1.adjacency(weighted=True)
        p = sphere1.vertices
        a, b, _ = sphere1.triangles[0]
        assert np.isclose(W[a, b], np.linalg.norm(p[a] - p[b]))

    def test_boundary_edges_square(self):
        edges = lb.unit_square().boundary_edges()
        assert len(edges) == 4

    def test_connected_components(self, two_spheres):
        ncomp, labels = two_spheres.connected_components()
        assert ncomp == 2
        assert set(labels[:42].tolist()) == {0}
        assert set(labels[42:].tolist()) == {1}


class TestConnectivity:
    @pytest.mark.parametrize("make", [
        mixed_mesh,
        lambda: lb.icosphere(1),
        lb.unit_square,
        lambda: lb.grid(4, 3),
        lambda: lb.torus(6, 5),
    ], ids=["mixed", "sphere1", "square", "grid", "torus"])
    def test_matches_set_construction(self, make):
        mesh = make()
        counts, rings = set_connectivity(mesh)
        edges = sorted(counts)
        assert mesh.edges.tolist() == [list(e) for e in edges]
        assert mesh.boundary_edges().tolist() == [
            list(e) for e in edges if counts[e] == 1
        ]
        assert mesh.nonmanifold_edges().tolist() == [
            list(e) for e in edges if counts[e] > 2
        ]
        for i in range(mesh.n_vertices):
            assert mesh.one_ring(i).tolist() == rings[i]

    def test_adjacency_patterns_and_lengths(self):
        mesh = mixed_mesh()
        A = mesh.adjacency()
        W = mesh.adjacency(weighted=True)
        assert (A.indices == W.indices).all() and (A.indptr == W.indptr).all()
        assert (A.data == 1.0).all()
        rows = np.repeat(np.arange(mesh.n_vertices), np.diff(W.indptr))
        p = mesh.vertices
        want = np.linalg.norm(p[rows] - p[W.indices], axis=1)
        assert np.array_equal(W.data, want)
        assert A.indptr[9] == A.indptr[10]  # the isolated vertex

    @pytest.mark.parametrize("weighted", [False, True])
    def test_adjacency_shared_and_read_only(self, sphere1, weighted):
        A = sphere1.adjacency(weighted=weighted)
        assert sphere1.adjacency(weighted=weighted) is A
        for arr in (A.data, A.indices, A.indptr):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            A.data[0] = 2.0
        assert not sphere1.edges.flags.writeable

    def test_geodesic_fps_seeds_pinned(self):
        mesh = lb.bumpy_sphere(4, seed=101)
        seeds = lb.farthest_point_sampling(mesh, 20, metric="graph_geodesic")
        assert list(seeds) == [
            622, 343, 73, 146, 16, 36, 165, 574, 1000, 2330,
            1629, 2042, 1178, 1728, 1099, 1466, 296, 427, 965, 2338,
        ]


class TestRoundTrip:
    def test_off_save_load_save_identical(self, sphere1, tmp_path):
        p1 = tmp_path / "a.off"
        p2 = tmp_path / "b.off"
        save_off(sphere1, p1)
        again = lb.load_mesh(p1)
        save_off(again, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.allclose(again.vertices, sphere1.vertices, rtol=1e-8)
        assert (again.triangles == sphere1.triangles).all()

    def test_ply_round_trip(self, sphere1, tmp_path):
        path = tmp_path / "s.ply"
        save_ply(sphere1, path)
        again = lb.load_mesh(path)
        assert again.n_vertices == sphere1.n_vertices
        assert (again.triangles == sphere1.triangles).all()
        assert np.allclose(again.vertices, sphere1.vertices, rtol=1e-8)

    def test_ply_with_colors(self, sphere1, tmp_path):
        path = tmp_path / "c.ply"
        colors = np.zeros((42, 3), dtype=int)
        colors[:, 0] = np.arange(42) * 6
        save_ply(sphere1, path, colors=colors)
        text = path.read_text()
        assert "property uchar red" in text
        again = lb.load_mesh(path)
        assert again.n_vertices == 42

    def test_failed_write_leaves_existing_file(self, sphere1, tmp_path):
        path = tmp_path / "s.ply"
        save_ply(sphere1, path)
        before = path.read_bytes()
        with pytest.raises(IndexError):  # two colours for 42 vertices
            save_ply(sphere1, path, colors=np.zeros((2, 3), dtype=int))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["s.ply"]
