"""Triangle meshes: ingestion, validation, adjacency, and distances.

Meshes are immutable after construction.  The vertex and triangle arrays
are write-protected; the edge list and the CSR adjacency matrices are built
once by the constructor and shared read-only by every caller.
"""

import itertools
import operator
import os
import re
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import ParseError, UnsupportedFeature
from .fields import ScalarField
from .ioutil import atomic_write_text

# triangles with area below this fraction of the squared bounding-box
# diagonal are flagged degenerate and skipped during operator assembly
DEGENERATE_AREA_FACTOR = 1e-12


class TriangleMesh:
    """Vertex positions plus triangle connectivity and derived adjacency.

    ``edges`` holds each undirected edge once as an (i < j) row, in
    lexicographic order; one rings and both adjacencies share one CSR pattern.

    Parameters
    ----------
    vertices : (n, 3) array_like
        Vertex positions in model units.
    triangles : (m, 3) array_like
        Vertex-index triples, zero-based.
    warnings : sequence of str, optional
        Messages recorded while loading (e.g. fan-triangulated quads).
    """

    def __init__(self, vertices, triangles, warnings=()):
        vertices = np.array(vertices, dtype=float)
        triangles = np.array(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ValueError("vertices must be an (n, 3) array")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError("triangles must be an (m, 3) array")
        if len(vertices) < 3:
            raise ValueError("mesh needs at least 3 vertices")
        if len(triangles) < 1:
            raise ValueError("mesh needs at least one triangle")
        if not np.isfinite(vertices).all():
            raise ValueError("vertex coordinates must be finite")
        if triangles.min() < 0 or triangles.max() >= len(vertices):
            raise ValueError("triangle index out of range")
        if (
            np.any(triangles[:, 0] == triangles[:, 1])
            or np.any(triangles[:, 1] == triangles[:, 2])
            or np.any(triangles[:, 2] == triangles[:, 0])
        ):
            raise ValueError("triangle repeats a vertex")
        vertices.setflags(write=False)
        triangles.setflags(write=False)
        self.vertices = vertices
        self.triangles = triangles
        self.warnings = tuple(warnings)
        self._build_adjacency()

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def _build_adjacency(self):
        n = self.n_vertices
        half = np.sort(self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        # a canonical CSR sums duplicate half-edges into per-edge triangle
        # counts and orders the edges lexicographically
        counts = sp.csr_matrix(
            (np.ones(len(half), dtype=np.int64), (half[:, 0], half[:, 1])),
            shape=(n, n),
        ).tocoo()
        i, j = counts.row, counts.col
        self.edges = np.column_stack([i, j]).astype(np.int64)
        self._edge_counts = counts.data
        w = np.linalg.norm(self.vertices[i] - self.vertices[j], axis=1)
        lengths = sp.csr_matrix(
            (np.r_[w, w], (np.r_[i, j], np.r_[j, i])), shape=(n, n)
        )
        ones = sp.csr_matrix(
            (np.ones(lengths.nnz), lengths.indices, lengths.indptr), shape=(n, n)
        )
        self._adjacency = {False: ones, True: lengths}
        for arr in (self.edges, self._edge_counts, ones.data, ones.indices,
                    ones.indptr, lengths.data, lengths.indices, lengths.indptr):
            arr.setflags(write=False)

    def one_ring(self, i):
        """Sorted vertex indices adjacent to vertex i."""
        a = self._adjacency[False]
        return a.indices[a.indptr[i] : a.indptr[i + 1]]

    def boundary_edges(self):
        """Edges with exactly one incident triangle, as a (b, 2) array."""
        return self.edges[self._edge_counts == 1]

    def nonmanifold_edges(self):
        """Edges with more than two incident triangles."""
        return self.edges[self._edge_counts > 2]

    def triangle_areas(self):
        """Area of every triangle."""
        p = self.vertices[self.triangles]
        cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        return 0.5 * np.linalg.norm(cross, axis=1)

    def bbox_diagonal(self):
        """Length of the axis-aligned bounding-box diagonal."""
        return float(
            np.linalg.norm(self.vertices.max(axis=0) - self.vertices.min(axis=0))
        )

    def degenerate_triangles(self):
        """Indices of triangles with area below the degeneracy threshold."""
        thresh = DEGENERATE_AREA_FACTOR * self.bbox_diagonal() ** 2
        return np.flatnonzero(self.triangle_areas() < thresh)

    def adjacency(self, weighted=False):
        """Sparse symmetric vertex adjacency, built once and read-only.

        With ``weighted=True`` entries are edge lengths, otherwise 1.
        """
        return self._adjacency[bool(weighted)]

    def connected_components(self):
        """Number of components and the per-vertex component labels."""
        return csgraph.connected_components(self.adjacency(), directed=False)


@dataclass
class MeshReport:
    """Validation summary produced by :func:`validate`."""

    n_vertices: int
    n_triangles: int
    n_boundary_edges: int
    n_components: int
    degenerate_triangles: list
    nonmanifold_edges: list

    def as_dict(self):
        return asdict(self)


def validate(mesh):
    """Report counts, degenerate triangles, and non-manifold edges.

    Never mutates or rejects the mesh; problems are reported, not thrown.
    """
    ncomp, _ = mesh.connected_components()
    return MeshReport(
        n_vertices=mesh.n_vertices,
        n_triangles=mesh.n_triangles,
        n_boundary_edges=len(mesh.boundary_edges()),
        n_components=int(ncomp),
        degenerate_triangles=[int(i) for i in mesh.degenerate_triangles()],
        nonmanifold_edges=[[int(a), int(b)] for a, b in mesh.nonmanifold_edges()],
    )


def vertex_distances(mesh, source, metric="euclidean"):
    """Distance from one source vertex to every vertex.

    metric "euclidean" is the straight-line 3D distance; "graph_geodesic"
    is the single-source shortest path over edges weighted by length.  On a
    disconnected mesh geodesic distances to unreachable vertices are +inf
    (kept in the output, reported as a warning).
    """
    if not 0 <= source < mesh.n_vertices:
        raise IndexError("source vertex out of range")
    if metric == "euclidean":
        d = np.linalg.norm(mesh.vertices - mesh.vertices[source], axis=1)
    elif metric == "graph_geodesic":
        d = csgraph.dijkstra(
            mesh.adjacency(weighted=True), directed=False, indices=source
        )
        if np.any(np.isinf(d)):
            import warnings

            warnings.warn(
                "mesh is disconnected; some geodesic distances are infinite",
                stacklevel=2,
            )
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return ScalarField(d, tag=f"distance:{metric}:{source}")


# ---------------------------------------------------------------------------
# file ingestion


def load_mesh(path, format="auto"):
    """Load an OFF, OBJ, or ascii PLY file into a TriangleMesh.

    Quads are fan-triangulated with a recorded warning; polygons with more
    than four sides are rejected.
    """
    if format == "auto":
        ext = os.path.splitext(path)[1].lower().lstrip(".")
        format = {"off": "OFF", "obj": "OBJ", "ply": "PLY"}.get(ext)
        if format is None:
            raise UnsupportedFeature(f"cannot infer mesh format from {path!r}")
    format = format.upper()
    with open(path, "r") as fh:
        text = fh.read()
    parsers = {"OFF": _parse_off, "OBJ": _parse_obj, "PLY": _parse_ply}
    if format not in parsers:
        raise UnsupportedFeature(f"unknown mesh format {format!r}")
    try:
        return parsers[format](text)
    except ValueError as exc:
        # constructor-level defects (bad indices, repeated vertices) are
        # file defects when they come from a parse
        raise ParseError(f"{path}: {exc}") from exc


def _triangulate(face, warnings):
    """Fan-triangulate a polygon; only triangles and quads are accepted."""
    if len(face) == 3:
        return [face]
    if len(face) == 4:
        warnings.append("quad face fan-triangulated")
        return [[face[0], face[1], face[2]], [face[0], face[2], face[3]]]
    raise UnsupportedFeature(f"{len(face)}-sided face not supported")


# "#" up to the end of its line, where lines end as for str.splitlines
_COMMENT = re.compile(r"#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")


def _face_block(tokens, nf):
    """The (nf, 3) triangles of the nf face records that open tokens, a
    list of str, converted in one call; None unless every record is
    ``3 i j k``."""
    if nf <= 0:
        return None
    try:
        block = np.array(tokens[: 4 * nf], dtype=np.int64).reshape(nf, 4)
    except (ValueError, OverflowError):
        return None
    return block[:, 1:] if (block[:, 0] == 3).all() else None


def _walk_faces(tokens, nf, warnings, truncated):
    """Triangles of the nf face records ``k i0 ... i(k-1)`` that open
    tokens, read one record at a time: faces of mixed size, and the first
    bad record of a block that _face_block cannot convert.  A record short
    of its k indices raises ParseError(truncated)."""
    tris, pos = [], 0
    for _ in range(nf):
        k = int(tokens[pos])
        face = [int(t) for t in tokens[pos + 1 : pos + 1 + k]]
        if len(face) != k:
            raise ParseError(truncated)
        pos += 1 + k
        tris.extend(_triangulate(face, warnings))
    return tris


def _parse_off(text):
    tokens = _COMMENT.sub("", text).split()
    if not tokens:
        raise ParseError("empty OFF file")
    pos = 0
    if tokens[0].upper() == "OFF":
        pos = 1
    warnings = []
    try:
        nv, nf = int(tokens[pos]), int(tokens[pos + 1])
        pos += 3  # vertex, face, and (ignored) edge counts
        verts = np.array(tokens[pos : pos + 3 * nv], dtype=float).reshape(nv, 3)
        faces = tokens[pos + 3 * nv :]
        tris = _face_block(faces, nf)
        if tris is None:
            tris = _walk_faces(faces, nf, warnings,
                               "truncated face record in OFF file")
    except (ValueError, IndexError) as exc:
        raise ParseError(f"malformed OFF file: {exc}") from exc
    return TriangleMesh(verts, tris, warnings)


def _parse_obj(text):
    lines = _COMMENT.sub("", text).splitlines()
    bulk = _obj_triangles(lines)
    return TriangleMesh(*bulk) if bulk else _walk_obj(lines)


def _obj_triangles(lines):
    """(vertices, triangles) of OBJ lines whose faces are all triangles,
    converted in bulk; None for any other lines, which _walk_obj reads."""
    rows = [line.split() for line in lines]
    heads = [r[0] if r else "" for r in rows]
    v_rows = [r[1:4] for r, h in zip(rows, heads) if h == "v"]
    f_rows = [r for r, h in zip(rows, heads) if h == "f"]
    if (not v_rows or not f_rows or set(map(len, v_rows)) != {3}
            or set(map(len, f_rows)) != {4}):
        return None
    # a face reference is v, v/vt, v//vn or v/vt/vn: keep the v
    refs = " ".join(itertools.chain.from_iterable(f_rows))
    refs = re.sub(r"/\S*", "", refs).split()
    if len(refs) != 4 * len(f_rows):  # a reference without its v
        return None
    del refs[::4]  # the "f" that opens each record
    try:
        verts = np.array(v_rows, dtype=float)
        idx = np.array(refs, dtype=np.int64).reshape(-1, 3)
    except (ValueError, OverflowError):
        return None
    # OBJ indices are 1-based; negative values count back from the
    # vertices read so far
    if (idx <= 0).any():
        seen = np.cumsum([h == "v" for h in heads])[[h == "f" for h in heads]]
        return verts, np.where(idx > 0, idx - 1, seen[:, None] + idx)
    return verts, idx - 1


def _walk_obj(lines):
    """The mesh of OBJ lines read one record at a time: files with quads,
    and files that _obj_triangles cannot convert, whose first bad line it
    names."""
    verts, tris, warnings = [], [], []
    for lineno, line in enumerate(lines, 1):
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            if len(parts) < 4:
                raise ParseError(f"line {lineno}: vertex needs 3 coordinates")
            try:
                verts.append([float(x) for x in parts[1:4]])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
        elif parts[0] == "f":
            face = []
            for ref in parts[1:]:
                try:
                    idx = int(ref.split("/")[0])
                except ValueError as exc:
                    raise ParseError(f"line {lineno}: bad face index {ref!r}") from exc
                # OBJ indices are 1-based; negative values count from the end
                face.append(idx - 1 if idx > 0 else len(verts) + idx)
            tris.extend(_triangulate(face, warnings))
        # all other record types (vn, vt, usemtl, ...) are ignored
    if not verts or not tris:
        raise ParseError("OBJ file contains no usable v/f records")
    return TriangleMesh(verts, tris, warnings)


def _parse_ply(text):
    lines = iter(text.splitlines())
    try:
        if next(lines).strip() != "ply":
            raise ParseError("missing ply magic")
    except StopIteration:
        raise ParseError("empty PLY file") from None
    elements = []  # (name, count, [property names])
    for raw in lines:
        parts = raw.strip().split()
        if not parts or parts[0] == "comment":
            continue
        if parts[0] == "format":
            if parts[1] != "ascii":
                raise UnsupportedFeature("only ascii PLY is supported")
        elif parts[0] == "element":
            elements.append((parts[1], int(parts[2]), []))
        elif parts[0] == "property":
            if not elements:
                raise ParseError("property before any element")
            elements[-1][2].append(parts[-1])
        elif parts[0] == "end_header":
            break
    else:
        raise ParseError("PLY header not terminated")

    data, pos = list(lines), 0
    verts, faces, warnings = None, [], []
    for name, count, props in elements:
        rows = list(map(str.split, data[pos : pos + max(count, 0)]))
        if len(rows) < count:
            raise ParseError("PLY data shorter than declared counts")
        pos += len(rows)
        if name == "vertex":
            try:
                cols = [props.index(c) for c in "xyz"]
            except ValueError:
                raise ParseError("PLY vertex element lacks x/y/z") from None
            try:
                try:
                    xyz = operator.itemgetter(*cols)
                    verts = np.array(list(map(xyz, rows)), dtype=float)
                except (ValueError, IndexError):  # raise at the first bad row
                    verts = [[float(r[i]) for i in cols] for r in rows]
            except (ValueError, IndexError) as exc:
                raise ParseError(f"bad PLY vertex record: {exc}") from exc
        elif name == "face":
            # one record per line: lines that each hold one triangle
            # record are converted as one block
            try:
                tris = None
                if set(map(len, rows)) == {4}:
                    tris = _face_block(
                        list(itertools.chain.from_iterable(rows)), count)
                if tris is None:
                    tris = [t for r in rows for t in _walk_faces(
                        r, 1, warnings, "truncated PLY face record")]
            except (ValueError, IndexError) as exc:
                raise ParseError(f"bad PLY face record: {exc}") from exc
            faces.append(tris)
    tris = faces[0] if len(faces) == 1 else [t for f in faces for t in f]
    if verts is None or not len(tris):
        raise ParseError("PLY file lacks vertex or face elements")
    return TriangleMesh(verts, tris, warnings)


# ---------------------------------------------------------------------------
# writers


def _fmt(x):
    """Decimal text with 9 significant digits, stable under reload."""
    return format(x, ".9g")


def _face_lines(mesh):
    return [f"3 {t[0]} {t[1]} {t[2]}" for t in mesh.triangles]


def save_off(mesh, path):
    """Write an OFF file; coordinates keep 9 significant digits."""
    lines = ["OFF", f"{mesh.n_vertices} {mesh.n_triangles} 0"]
    lines += [f"{_fmt(v[0])} {_fmt(v[1])} {_fmt(v[2])}" for v in mesh.vertices]
    atomic_write_text(path, "\n".join(lines + _face_lines(mesh)) + "\n")


def save_ply(mesh, path, colors=None):
    """Write an ascii PLY file, optionally with per-vertex uchar RGB.

    colors, when given, is an (n, 3) integer array in 0..255.
    """
    lines = ["ply", "format ascii 1.0", f"element vertex {mesh.n_vertices}",
             "property float x", "property float y", "property float z"]
    if colors is not None:
        colors = np.asarray(colors, dtype=int)
        lines += ["property uchar red", "property uchar green",
                  "property uchar blue"]
    lines += [f"element face {mesh.n_triangles}",
              "property list uchar int vertex_indices", "end_header"]
    for i, v in enumerate(mesh.vertices):
        line = f"{_fmt(v[0])} {_fmt(v[1])} {_fmt(v[2])}"
        if colors is not None:
            line += f" {colors[i, 0]} {colors[i, 1]} {colors[i, 2]}"
        lines.append(line)
    atomic_write_text(path, "\n".join(lines + _face_lines(mesh)) + "\n")
