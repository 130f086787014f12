"""Mesh loading, validation, distances, connectivity, and round-trips."""

import ast
import pathlib
import re
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

import lapbasis as lb
from lapbasis.errors import DisconnectedMesh, ParseError, UnsupportedFeature
from lapbasis.mesh import (_COMMENT, _off_blocks, _off_counts, save_off,
                           save_ply)

from conftest import (LAYOUT_MESHES, SHAPE_MESHES, assert_same_csr,
                      merge_meshes)

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


def coo_connectivity(mesh):
    """Edges, per-edge triangle counts and the weighted adjacency, built
    through scipy's COO -> CSR conversions: the reference."""
    n = mesh.n_vertices
    half = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2),
                   axis=1)
    counts = sp.csr_matrix((np.ones(len(half), dtype=np.int64),
                            (half[:, 0], half[:, 1])), shape=(n, n)).tocoo()
    i, j = counts.row, counts.col
    w = np.linalg.norm(mesh.vertices[i] - mesh.vertices[j], axis=1)
    lengths = sp.csr_matrix((np.r_[w, w], (np.r_[i, j], np.r_[j, i])),
                            shape=(n, n))
    return np.column_stack([i, j]).astype(np.int64), counts.data, lengths


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
        mesh = lb.load_mesh(path)
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


def takes_bulk_path(text):
    """Whether the OFF reader converts text with its two np.loadtxt calls
    rather than token by token."""
    lines = _COMMENT.sub("", text).splitlines()
    try:
        nv, nf, h, rest = _off_counts(lines)
    except ParseError:
        return False
    return not rest and _off_blocks(lines, h, nv, nf) is not None


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
    """Only OFF converts in bulk, falling back to one record at a time;
    OBJ and PLY are read one record at a time.  Either way a file reads as
    its tokens read one by one."""

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

    @pytest.mark.parametrize("text, bulk", [
        ("OFF\n4 2\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2\n3 0 2 3\n", True),
        ("OFF 4 2\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2 3 0 2 3\n", False),
        ("4 2 # no magic\n\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2\n"
         "3 0 2 3\n", True),
    ], ids=["bulk", "tokens", "no-magic"])
    def test_off_counts_without_edge_count(self, tmp_path, text, bulk):
        # nv and nf come from the counts line, with or without ne, on
        # either path: the text reads as with a "4 2 0" header
        path = tmp_path / "m.off"
        path.write_text(text)
        with_ne = re.sub(r"\b4 2\b", "4 2 0", text, count=1)
        assert with_ne != text
        assert_read_as(lb.load_mesh(path), *off_by_token(with_ne))
        assert takes_bulk_path(text) == takes_bulk_path(with_ne) == bulk

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
        # an index past int64 overflows the conversion
        ("big.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n"
         "3 0 1 99999999999999999999\n", ParseError),
        ("big.ply", ply_text("3 0 1 99999999999999999999"), ParseError),
        # header lines without the field they are read for
        ("format.ply", ply_text("3 0 1 2").replace("format ascii 1.0",
                                                   "format"), ParseError),
        ("element.ply", ply_text("3 0 1 2").replace("element vertex 5",
                                                    "element vertex"),
         ParseError),
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
        # a bad coordinate in vertex row 2 is named before the short row 4
        ("vertex.ply", ply_text("3 0 1 2").replace("1 0 0\n", "1 0 q\n")
         .replace("0 1 0\n", "0 1\n"),
         "bad PLY vertex record: could not convert string to float: 'q'"),
    ])
    def test_error_names_the_first_bad_record(self, tmp_path, name, text,
                                              message):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(message)):
            lb.load_mesh(path)

    @pytest.mark.parametrize("name, text, error", [
        ("big.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n"
         "3 0 1 99999999999999999999\n", ParseError),
        ("format.ply", ply_text("3 0 1 2").replace("format ascii 1.0",
                                                   "format"), ParseError),
        ("penta.off", "OFF\n5 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n2 0 0\n"
         "5 0 1 2 3 4\n", UnsupportedFeature),
        ("binary.ply", ply_text("3 0 1 2").replace(
            "format ascii 1.0", "format binary_little_endian 1.0"),
         UnsupportedFeature),
    ], ids=["big.off", "format.ply", "penta.off", "binary.ply"])
    def test_error_names_the_file(self, tmp_path, name, text, error):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(error, match=re.escape(f"{path}: ")):
            lb.load_mesh(path)

    @pytest.mark.parametrize("text, bulk", [
        (OFF_SQUARE, True),
        ("OFF 4 2 0\n" + OFF_SQUARE.split("4 2 0\n")[1], True),
        ("OFF\n4 2 0\n\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n\n3 0 1 2\n"
         "3 0 2 3\n", True),
        ("OFF\n4 2 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2\n\n"
         "3 0 2 3\n", False),
        (OFF_SQUARE.replace("1.0 0.0 0.0", "1.0 0.0 0.0 # x")
         .replace("3 0 2 3", "3 0 2 3# y"), True),
        # trailing tokens after the faces are not read
        (OFF_SQUARE + "7 7 7 x\n", True),
        (OFF_SQUARE.replace("3 0 2 3", "3 0 2 3 9"), False),
        ("OFF\n4 2 0\n0 0 0\n1 0 0\n\n1 1 0\n0 1 0\n3 0 1 2\n"
         "3 0 2 3\n", False),
        (OFF_SQUARE.replace("3 0 1 2\n", "3 0 1\n2\n"), False),
        (OFF_SQUARE.replace("3 0 1 2\n", "3 0 1 2 "), False),
        (OFF_SQUARE.replace("0.0 1.0 0.0\n", "0.0 1.0 0.0 "), False),
        ("OFF\n6 4 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n2 0.5 0\n2 2 0\n"
         "3 1 4 2\n4 0 1 2 3\n3 2 4 5\n3 3 2 5\n", False),
        (OFF_SQUARE.replace("1.0 0.0 0.0", "1_000 0.0 0.0"), False),
        (OFF_SQUARE.replace("1.0 1.0 0.0", "1.0 \u0661 0.0"), False),
        (OFF_SQUARE.replace("1.0 1.0", "1.0\u00a01.0")
         .replace("3 0 1 2", "3\u30000 1 2"), True),
        (OFF_SQUARE.replace("1.0 1.0", "1.0\x1f1.0"), True),
        (OFF_SQUARE.replace("3 0 1 2", "+3 0 001 +2"), True),
    ], ids=["comments-blank-lines", "counts-on-magic-line",
            "blank-lines-between-blocks", "blank-line-among-faces",
            "comments-after-records", "trailing-tokens",
            "trailing-token-on-face-line", "blank-line-among-vertices",
            "face-split-over-lines", "two-faces-on-a-line",
            "vertex-records-across-lines", "quad-among-triangles",
            "underscore-digits", "non-ascii-digit", "unicode-spaces",
            "unit-separator", "signs-and-leading-zeros"])
    def test_off_reads_as_tokens(self, tmp_path, text, bulk):
        """Each layout reads as its tokens read one by one, whether the
        bulk path takes it or the token path."""
        path = tmp_path / "m.off"
        path.write_text(text)
        assert_read_as(lb.load_mesh(path), *off_by_token(text))
        assert takes_bulk_path(text) == bulk

    @pytest.mark.parametrize("fmt", [repr, "{:.9g}".format],
                             ids=["repr", "9g"])
    def test_off_vertex_formats(self, tmp_path, fmt):
        mesh = lb.bumpy_sphere(2, seed=3)
        lines = ["OFF", f"{mesh.n_vertices} {mesh.n_triangles} 0"]
        lines += [" ".join(fmt(x) for x in v) for v in mesh.vertices.tolist()]
        lines += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles.tolist()]
        text = "\n".join(lines) + "\n"
        path = tmp_path / "m.off"
        path.write_text(text)
        again = lb.load_mesh(path)
        assert_read_as(again, *off_by_token(text))
        if fmt is repr:
            assert np.array_equal(again.vertices, mesh.vertices)
        assert takes_bulk_path(text)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_off_nonfinite_vertex_raises(self, tmp_path, value):
        path = tmp_path / "m.off"
        path.write_text(OFF_SQUARE.replace("1.0 1.0 0.0", f"1.0 {value} 0.0"))
        with pytest.raises(ParseError, match="vertex coordinates must be "
                           "finite"):
            lb.load_mesh(path)

    @pytest.mark.parametrize("faces, error, message", [
        # per-face colours: the second record reads as a 255-sided face
        ("3 0 1 2 255 0 0\n3 0 2 3 255 0 0\n", ParseError,
         "truncated face record in OFF file"),
        ("3 0 1 2 0.5 0.5 0.5\n3 0 2 3 0.5 0.5 0.5\n", ParseError,
         "invalid literal for int() with base 10: '0.5'"),
        # four columns, but not a triangle record
        ("3 0 1 2\n2 0 2 3\n", UnsupportedFeature,
         "2-sided face not supported"),
        # loadtxt must refuse these, not read 1 or saturate to 2^63 - 1
        ("3 0 1 2\n3 0 2 1.5\n", ParseError,
         "invalid literal for int() with base 10: '1.5'"),
        ("3 0 1 2\n3 0 2 99999999999999999999\n", ParseError,
         "too large to convert"),
    ], ids=["int-colours", "float-colours", "two-sided", "fraction",
            "past-int64"])
    def test_off_bad_faces_raise(self, tmp_path, faces, error, message):
        text = OFF_SQUARE.split("3 0 1 2")[0] + faces
        path = tmp_path / "m.off"
        path.write_text(text)
        with pytest.raises(error, match=re.escape(message)):
            lb.load_mesh(path)
        assert not takes_bulk_path(text)

    @pytest.mark.parametrize("text, message", [
        ("", "empty OFF file"),
        ("# a comment\n\n", "empty OFF file"),
        # too few header tokens
        ("OFF\n", "OFF header lacks its vertex and face counts"),
        ("OFF\n4 2\n", "OFF vertex count 4 needs 12 coordinates, found 0"),
        # a counts line of one number
        ("OFF\n4\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2\n",
         "OFF header lacks its vertex and face counts: line 2 reads '4'"),
        ("# lead\n\nOFF 3 # counts\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
         "OFF header lacks its vertex and face counts: line 3 reads '3'"),
        # a count that is not an integer
        ("OFF\n4.0 2 0\n" + OFF_SQUARE.split("4 2 0\n")[1],
         "malformed OFF file: invalid literal for int() with base 10: "
         "'4.0'"),
        # a zero count
        ("OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n", "OFF file declares no faces"),
        ("OFF\n0 1 0\n3 0 1 2\n", "OFF file declares no vertices"),
        # the text ends before a block
        ("OFF\n3 1 0\n\n", "OFF vertex count 3 needs 9 coordinates, found 0"),
        ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1\n",
         "OFF vertex count 3 needs 9 coordinates, found 8"),
        ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n\n",
         "OFF face count 1: the text ends before the last face record"),
    ], ids=["empty", "comment-only", "magic-only", "short-header",
            "one-count", "one-count-on-magic-line", "fractional-count",
            "no-faces", "no-vertices",
            "ends-before-vertices", "ends-in-vertices", "ends-before-faces"])
    def test_off_fallback_errors(self, tmp_path, text, message):
        """Headers and blocks the bulk path turns down raise the token
        path's ParseError."""
        path = tmp_path / "m.off"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(f"{path}: {message}")):
            lb.load_mesh(path)
        assert not takes_bulk_path(text)

    def test_binary_ply_body(self, tmp_path):
        # the bytes after the header are not text: the header's format
        # line names the fault
        path = tmp_path / "m.ply"
        header = ply_text("3 0 1 2").split("end_header\n")[0].replace(
            "format ascii 1.0", "format binary_little_endian 1.0")
        path.write_bytes(header.encode() + b"end_header\n"
                         + np.arange(9, dtype="<f4").tobytes() + b"\x96\xff")
        with pytest.raises(UnsupportedFeature, match=re.escape(
                f"{path}: only ascii PLY is supported")):
            lb.load_mesh(path)

    @pytest.mark.parametrize("name", ["m.off", "m.obj", "m.ply"])
    def test_not_utf8_named(self, tmp_path, name):
        text = {".off": OFF_SQUARE, ".obj": "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
                "f 1 2 3\n", ".ply": ply_text("3 0 1 2")}[name[-4:]]
        path = tmp_path / name
        path.write_bytes(text.encode() + "# caf\xe9\n".encode("latin-1"))
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: not UTF-8 text: invalid continuation byte at byte "
                f"{len(text) + 5}")):
            lb.load_mesh(path)

    @pytest.mark.parametrize("text, message", [
        ("v 0 0 0\nv 1 0\nv 0 1 0\nf 1 2 3\n",
         "line 2: vertex needs 3 coordinates"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\n",
         "OBJ file contains no usable v/f records"),
        ("# a comment\nvn 0 0 1\nf 1 2 3\n",
         "OBJ file contains no usable v/f records"),
    ], ids=["short-vertex", "no-faces", "no-vertices"])
    def test_obj_errors(self, tmp_path, text, message):
        path = tmp_path / "m.obj"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(f"{path}: {message}")):
            lb.load_mesh(path)

    @pytest.mark.parametrize("text, message", [
        ("", "empty PLY file"),
        (ply_text("3 0 1 2").replace("ply\n", "plx\n", 1),
         "missing ply magic"),
        ("ply\nformat ascii 1.0\nproperty float x\nelement vertex 0\n"
         "end_header\n", "property before any element"),
        (ply_text("3 0 1 2").replace("end_header\n", ""),
         "PLY header not terminated"),
        (ply_text("3 0 1 2").replace("property float z", "property float w"),
         "PLY vertex element lacks x/y/z"),
        (ply_text("3 0 1 2").replace("element vertex", "element point"),
         "PLY file lacks vertex or face elements"),
        (ply_text(), "PLY file lacks vertex or face elements"),
        (ply_text("3 0 1 2").replace("element face", "element edge"),
         "PLY file lacks vertex or face elements"),
        (ply_text("3 0 1 2").replace("1 0 0\n", "1 0\n"),
         "PLY vertex record 2 of 5 lacks z: 2 values"),
        (ply_text("3 0 1 2").replace("1 1 0\n", "\n"),
         "PLY vertex record 3 of 5 lacks x y z: 0 values"),
        (ply_text("3 0 1 2", "", "3 1 4 2"),
         "PLY face record 2 of 3 is blank: it lacks its vertex count"),
    ], ids=["empty", "no-magic", "property-first", "unterminated", "no-xyz",
            "no-vertex-element", "zero-faces", "no-face-element",
            "short-vertex", "blank-vertex", "blank-face"])
    def test_ply_errors(self, tmp_path, text, message):
        path = tmp_path / "m.ply"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(f"{path}: {message}")):
            lb.load_mesh(path)

    @pytest.mark.parametrize("name", sorted(SHAPE_MESHES))
    def test_off_shapes_round_trip(self, tmp_path, name):
        mesh = SHAPE_MESHES[name]()
        path = tmp_path / "m.off"
        save_off(mesh, path)
        text = path.read_text()
        again = lb.load_mesh(path)
        assert_read_as(again, *off_by_token(text))
        assert np.array_equal(again.triangles, mesh.triangles)
        assert takes_bulk_path(text)

    def test_off_large_round_trip(self, tmp_path):
        mesh = lb.bumpy_sphere(6, seed=1)  # n = 40962
        path = tmp_path / "b.off"
        save_off(mesh, path)
        again = lb.load_mesh(path)
        assert_read_as(again, *off_by_token(path.read_text()))
        assert np.array_equal(again.triangles, mesh.triangles)


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
        for source, bad in ((42, 42), ([3, -1, 50], -1), ([3, 50], 50)):
            with pytest.raises(IndexError, match=re.escape(
                    f"source vertex {bad} out of range for n=42")):
                lb.vertex_distances(sphere1, source)

    @pytest.mark.parametrize("source", [[], 1.0, [0, 2.5], [True, 3],
                                        np.array([True]), True],
                             ids=["empty", "float", "floats", "bool-in-list",
                                  "bool-array", "bool"])
    def test_source_not_vertex_indices(self, sphere1, source):
        with pytest.raises(TypeError, match="vertex index"):
            lb.vertex_distances(sphere1, source)

    @pytest.mark.parametrize("metric", ["euclidean", "graph_geodesic"])
    def test_several_sources_are_least_of_single(self, torus200, metric):
        sources = [0, 77, 13, 150]
        want = np.minimum.reduce([
            lb.field_values(lb.vertex_distances(torus200, s, metric))
            for s in sources])
        got = lb.vertex_distances(torus200, np.array(sources), metric)
        assert lb.field_values(got).tobytes() == want.tobytes()
        assert got.tag == f"distance:{metric}:4 sources"
        one = lb.vertex_distances(torus200, [77], metric)
        assert one.tag == f"distance:{metric}:77"

    @pytest.mark.parametrize("limit", [2.5, np.inf])
    def test_bounded_search_is_inf_beyond_limit(self, two_spheres, limit):
        with pytest.warns(UserWarning, match="disconnected"):
            full = lb.field_values(
                lb.vertex_distances(two_spheres, 0, "graph_geodesic"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = lb.field_values(lb.vertex_distances(
                two_spheres, 0, "graph_geodesic", limit=limit))
        n = two_spheres.n_vertices // 2
        near = full <= limit
        assert np.array_equal(d[near], full[near])
        assert np.isinf(d[~near]).all() and np.isinf(d[n:]).all()
        # a finite limit leaves out part of the source's own sphere
        assert near[:n].all() == np.isinf(limit)

    def test_limit_leaves_euclidean_exact(self, sphere2):
        d = lb.vertex_distances(sphere2, 5, limit=0.1)
        assert (lb.field_values(d).tobytes()
                == lb.field_values(lb.vertex_distances(sphere2, 5)).tobytes())

    def test_dijkstra_called_in_vertex_distances_only(self):
        # vertex_distances is the one distance routine: farthest point
        # sampling and the coverage search call it
        src = pathlib.Path(lb.mesh.__file__).parent
        users = set()
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            owner = {}  # node -> name of the outermost def around it
            for fn in ast.walk(tree):
                if isinstance(fn, ast.FunctionDef):
                    for node in ast.walk(fn):
                        owner.setdefault(node, fn.name)
            for node in ast.walk(tree):
                if "dijkstra" in (getattr(node, "attr", None),
                                  getattr(node, "id", None),
                                  getattr(node, "name", None)):
                    users.add((path.name, owner.get(node, "<module>")))
        assert users == {("mesh.py", "vertex_distances")}


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

    @pytest.mark.parametrize("name", sorted(LAYOUT_MESHES))
    def test_arrays_match_coo_construction(self, name):
        mesh = LAYOUT_MESHES[name]()
        edges, counts, lengths = coo_connectivity(mesh)
        for got, want in ((mesh.edges, edges), (mesh._edge_counts, counts)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert_same_csr(mesh.adjacency(weighted=True), lengths)
        assert_same_csr(mesh.adjacency(), sp.csr_matrix(
            (np.ones(lengths.nnz), lengths.indices, lengths.indptr),
            shape=lengths.shape))

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
