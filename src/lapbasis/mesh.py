"""Triangle meshes: ingestion, validation, adjacency, and distances.

Meshes are immutable after construction.  The vertex and triangle arrays
are write-protected; the edge list and the CSR adjacency matrices are built
once by the constructor and shared read-only by every caller.
"""

import os
import re
import warnings
from collections import Counter
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


def _corner_areas(q):
    """Area of each triangle from its corners in coordinate-major order,
    q[k, c] coordinate k of corner c: the bits of
    0.5 |np.cross(p1 - p0, p2 - p0)|."""
    a = q[:, 1] - q[:, 0]
    b = q[:, 2] - q[:, 0]
    c = np.stack([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                  a[0] * b[1] - a[1] * b[0]])
    c *= c
    return 0.5 * np.sqrt(c[0] + c[1] + c[2])


class TriangleMesh:
    """Vertex positions plus triangle connectivity and derived adjacency.

    ``edges`` holds each undirected edge once as an (i < j) row, in
    lexicographic order; one rings and both adjacencies share one CSR
    pattern, which assemble fills with the stiffness weights.

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
        self._xyz = np.ascontiguousarray(vertices.T)  # coordinate-major
        self._xyz.setflags(write=False)
        self.warnings = tuple(warnings)
        self._build_adjacency()

    @property
    def warning_counts(self):
        """The load warnings as a sorted {message: count}."""
        return dict(sorted(Counter(self.warnings).items()))

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def _build_adjacency(self):
        n, t = self.n_vertices, self.triangles
        # each triangle side a -> b, (0, 1), (1, 2), (2, 0), keyed by its
        # edge i n + j, i < j: sorted, the keys list the edges in
        # lexicographic order, once per incident triangle
        a, b = t, t[:, [1, 2, 0]]
        key = (np.minimum(a, b) * n + np.maximum(a, b)).ravel()
        order = np.argsort(key)
        key = key[order]
        new = np.empty(len(key), dtype=bool)
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        first = np.flatnonzero(new)
        i, j = np.divmod(key[first], n)
        self.edges = np.column_stack([i, j])
        self._edge_counts = np.diff(first, append=len(key))
        side_edge = np.empty(len(key), dtype=np.int64)
        side_edge[order] = np.cumsum(new) - 1
        # one CSR pattern for both adjacencies: row r holds the edges (i, r)
        # by i, then the edges (r, j) by j, so a stable sort of the rows of
        # [(j, i), (i, j)] is the canonical order
        ne = len(i)
        rows = np.concatenate([j, i])
        perm = np.argsort(rows, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        d = np.take(self._xyz, i, axis=1)
        d -= np.take(self._xyz, j, axis=1)
        d *= d
        w = np.sqrt(d[0] + d[1] + d[2])  # norm(axis=1), bit for bit
        lengths = sp.csr_matrix((np.concatenate([w, w])[perm],
                                 np.concatenate([i, j])[perm], indptr),
                                shape=(n, n))
        ones = sp.csr_matrix(
            (np.ones(lengths.nnz), lengths.indices, lengths.indptr), shape=(n, n)
        )
        self._adjacency = {False: ones, True: lengths}
        # where each corner's opposite side, as the stiffness matrix lists
        # it (first c+1 -> c+2, then back), lies in the CSR arrays
        slot = np.empty(2 * ne, dtype=lengths.indices.dtype)
        slot[perm] = np.arange(2 * ne)
        # edge e's (j, i) is at slot[e], its (i, j) at slot[ne + e]
        e = side_edge.reshape(-1, 3)[:, [1, 2, 0]].T
        ahead = (a < b)[:, [1, 2, 0]].T * ne  # corner's c+1 < c+2
        self._corner_slots = np.stack([slot[e + ahead], slot[e + ne - ahead]],
                                      axis=1)
        for arr in (self.edges, self._edge_counts, self._corner_slots,
                    ones.data, ones.indices, ones.indptr,
                    lengths.data, lengths.indices, lengths.indptr):
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

    def _corners(self):
        """The (3, 3, m) corner positions, coordinate-major: [k, c, t] is
        coordinate k of corner c of triangle t."""
        return np.take(self._xyz, self.triangles.T, axis=1)

    def triangle_areas(self):
        """Area of every triangle."""
        return _corner_areas(self._corners())

    def bbox_diagonal(self):
        """Length of the axis-aligned bounding-box diagonal."""
        x = self._xyz
        return float(np.linalg.norm(x.max(axis=1) - x.min(axis=1)))

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
    warnings: dict  # load warnings, {message: count}

    def as_dict(self):
        return asdict(self)


def validate(mesh):
    """Report counts, degenerate triangles, non-manifold edges and load
    warnings.

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
        warnings=mesh.warning_counts,
    )


def vertex_indices(source, n, what):
    """source, one vertex index or a sequence of them, as a 1-D integer
    array.  A float, a bool or an empty source raises TypeError (a float
    would be truncated, True read as vertex 1); an index outside [0, n)
    raises IndexError naming it "<what> <i>".  n None checks the type."""
    idx = np.asarray(source).reshape(-1)
    # np.asarray([True, 3]) is an integer array; the dtype of an ndarray
    # or a scalar is enough, so only a sequence is scanned for bools
    if idx.dtype.kind not in "iu" or not idx.size or (
            not isinstance(source, (np.ndarray, int, np.integer))
            and any(isinstance(i, (bool, np.bool_))
                    for i in np.asarray(source, object).flat)):
        raise TypeError("vertex indices must be integers, not floats or "
                        "booleans: one vertex index or a nonempty sequence")
    if n is not None:
        lo, hi = idx.min(), idx.max()
        if lo < 0 or hi >= n:
            raise IndexError(f"{what} {lo if lo < 0 else hi} out of range "
                             f"for n={n}")
    return idx


def vertex_distances(mesh, source, metric="euclidean", limit=None):
    """Distance from the nearest of the sources (one vertex index or a
    sequence of them, checked by vertex_indices) to every vertex.

    metric "euclidean" is the straight-line 3D distance, exact everywhere:
    per source the bits of np.linalg.norm(vertices - vertices[s], axis=1).
    "graph_geodesic" is the shortest path over edges weighted by length,
    one search from all the sources, directed on the symmetric adjacency
    (so without the copy that directed=False makes).  It reads +inf beyond
    limit and where no path reaches; only a search with no limit warns
    that the mesh is disconnected.
    """
    src = vertex_indices(source, mesh.n_vertices, "source vertex")
    if metric == "euclidean":
        d = None
        for s in src.tolist():
            e = mesh._xyz - mesh._xyz[:, s:s + 1]
            e *= e
            e = np.sqrt(e[0] + e[1] + e[2])
            d = e if d is None else np.minimum(d, e, out=d)
    elif metric == "graph_geodesic":
        d = csgraph.dijkstra(mesh.adjacency(weighted=True), directed=True,
                             indices=src, min_only=True,
                             limit=np.inf if limit is None else limit)
        if limit is None and np.isinf(d).any():
            warnings.warn("mesh is disconnected; some geodesic distances "
                          "are infinite", stacklevel=2)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    at = src[0] if len(src) == 1 else f"{len(src)} sources"
    return ScalarField(d, tag=f"distance:{metric}:{at}")


# ---------------------------------------------------------------------------
# file ingestion


def load_mesh(path):
    """Load an OFF, OBJ, or ascii PLY file into a TriangleMesh; the file
    extension names the format.

    Quads are fan-triangulated with a recorded warning; polygons with more
    than four sides are rejected.
    """
    ext = os.path.splitext(path)[1].lower()
    parse = {".off": _parse_off, ".obj": _parse_obj, ".ply": _parse_ply}.get(ext)
    if parse is None:
        raise UnsupportedFeature(f"cannot infer mesh format from {path!r}")
    with open(path, "rb") as fh:
        data = fh.read()
    bad = None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the text before the first bad byte is parsed for the error it
        # shows, such as a binary PLY's format line, else this one
        text, bad = data[:exc.start].decode("utf-8"), (
            f"not UTF-8 text: {exc.reason} at byte {exc.start}")
    del data  # the parse reads only the text
    try:
        mesh = parse(text)
    except UnsupportedFeature as exc:
        raise UnsupportedFeature(f"{path}: {exc}") from exc
    except (ParseError, ValueError, OverflowError) as exc:
        # the parsers' own errors, constructor-level defects (bad indices,
        # repeated vertices) and numbers beyond int64 are file defects when
        # they come from a parse: name the file
        raise ParseError(f"{path}: {bad or exc}") from exc
    if bad:
        raise ParseError(f"{path}: {bad}")
    return mesh


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


def _walk_faces(tokens, nf, warnings, truncated):
    """Triangles of the nf face records ``k i0 ... i(k-1)`` that open
    tokens, read one record at a time: the faces of a PLY file, and of an
    OFF file that _off_blocks cannot read (mixed sizes, or a bad record,
    which this raises at).  A record short of its k indices raises
    ParseError(truncated)."""
    tris, pos = [], 0
    for _ in range(nf):
        k = int(tokens[pos])
        face = [int(t) for t in tokens[pos + 1 : pos + 1 + k]]
        if len(face) != k:
            raise ParseError(truncated)
        pos += 1 + k
        tris.extend(_triangulate(face, warnings))
    return tris


def _loadtxt_block(lines, rows, cols, dtype):
    """The (rows, cols) array of lines, one row per line, by one
    np.loadtxt call; None where it refuses them or they have another
    shape (fewer lines, or a blank one, which loadtxt skips).  lines must
    not open with a blank line, on which loadtxt warns when that leaves
    it no data."""
    try:
        block = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=2)
    except ValueError:
        return None
    return block if block.shape == (rows, cols) else None


def _off_counts(lines):
    """(nv, nf, h, rest) of the comment-free lines of an OFF text.  The
    counts line is the first line with a token after the optional "OFF"
    magic (which may share it): nv, nf, then an edge count, which is
    optional and ignored.  rest holds any tokens after the edge count,
    where the vertex records start on that line; lines[h:] follow it."""
    nonblank = ((h, p) for h, p in enumerate(map(str.split, lines), 1) if p)
    h, parts = next(nonblank, (0, None))
    if parts is None:
        raise ParseError("empty OFF file")
    if parts[0].upper() == "OFF":
        h, parts = (h, parts[1:]) if parts[1:] else next(nonblank, (h, []))
    if len(parts) < 2:
        raise ParseError("OFF header lacks its vertex and face counts"
                         + (f": line {h} reads {' '.join(parts)!r}"
                            if parts else ""))
    try:
        nv, nf = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParseError(f"malformed OFF file: {exc}") from exc
    for count, what in ((nv, "vertices"), (nf, "faces")):
        if count < 1:
            raise ParseError(f"OFF file declares no {what}")
    return nv, nf, h, parts[3:]


def _off_blocks(lines, h, nv, nf):
    """(vertices, triangles) of the comment-free lines of an OFF file from
    lines[h], the line after its counts, in two bulk conversions, or None
    where their layout needs the token path.

    After any blank lines, the next nv lines hold the vertices, three
    numbers each, and, after any blank lines, the next nf lines the
    faces, each ``3 i j k``.  Within a line np.loadtxt splits fields
    where str.split splits, and it converts a number to the value float()
    or int() gives it, or refuses it (1_000, non-ASCII digits, 1.5 or
    2^63 as int64), so the arrays equal the token path's.  The blocks are
    exact slices of lines: with max_rows, loadtxt warns on a blank line.
    """
    blocks = []
    for rows, cols, dtype in ((nv, 3, float), (nf, 4, np.int64)):
        while h < len(lines) and not lines[h].strip():
            h += 1
        if h >= len(lines):
            return None
        blocks.append(_loadtxt_block(lines[h:h + rows], rows, cols, dtype))
        if blocks[-1] is None:
            return None
        h += rows
    verts, faces = blocks
    if (faces[:, 0] != 3).any():
        return None
    return verts, faces[:, 1:]


def _parse_off(text):
    """The mesh of an OFF text: ``[OFF] nv nf [ne]`` (_off_counts), nv
    vertex records ``x y z`` and nf face records ``k i0 ... i(k-1)``, as
    a stream of whitespace-separated tokens; "#" comments run to the end
    of the line.

    A file laid out one record per line after its counts line, every
    face a triangle, is converted in bulk: the vertex block and the face
    block by one np.loadtxt call each (_off_blocks).  Any other layout
    (records split over lines or sharing one, blank lines among the
    vertices, quads, extra per-face values, numbers loadtxt refuses)
    falls back to the token path (_off_tokens): str.split over the text,
    the vertices by one float array conversion, the faces one record at
    a time (_walk_faces).  Both paths give the same arrays; errors are
    the token path's.  The line list and the tokens are freed before
    TriangleMesh validates the arrays."""
    lines = _COMMENT.sub("", text).splitlines()
    nv, nf, h, rest = _off_counts(lines)
    blocks = None if rest else _off_blocks(lines, h, nv, nf)
    if blocks is None:
        blocks = _off_tokens(rest + "\n".join(lines[h:]).split(), nv, nf)
    del lines  # TriangleMesh validates the arrays alone
    return TriangleMesh(*blocks)


def _off_tokens(tokens, nv, nf):
    """(vertices, triangles, warnings) of the tokens after an OFF file's
    counts: _parse_off's token path."""
    warnings = []
    try:
        coords = tokens[:3 * nv]
        if len(coords) < 3 * nv:
            raise ParseError(f"OFF vertex count {nv} needs {3 * nv} "
                             f"coordinates, found {len(coords)}")
        verts = np.array(coords, dtype=float).reshape(nv, 3)
        tris = _walk_faces(tokens[3 * nv:], nf, warnings,
                           "truncated face record in OFF file")
    except IndexError:  # the tokens end where a face record should start
        raise ParseError(f"OFF face count {nf}: the text ends before the "
                         "last face record") from None
    except ValueError as exc:
        raise ParseError(f"malformed OFF file: {exc}") from exc
    return verts, tris, warnings


def _parse_obj(text):
    """The mesh of an OBJ file, read one record at a time; a bad record
    raises ParseError naming its line."""
    verts, tris, warnings = [], [], []
    for lineno, line in enumerate(_COMMENT.sub("", text).splitlines(), 1):
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
        if len(parts) < {"format": 2, "element": 3}.get(parts[0], 0):
            raise ParseError(f"PLY header line {raw.strip()!r} lacks fields")
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
    verts, tris, warnings = None, [], []
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
                verts = [[float(r[i]) for i in cols] for r in rows]
            except ValueError as exc:
                raise ParseError(f"bad PLY vertex record: {exc}") from exc
            except IndexError:  # name the first short record
                i, r = next((i, r) for i, r in enumerate(rows, 1)
                            if len(r) <= max(cols))
                lack = [props[j] for j in cols if j >= len(r)]
                raise ParseError(
                    f"PLY vertex record {i} of {count} lacks "
                    f"{' '.join(lack)}: {len(r)} values") from None
        elif name == "face":
            # one record per line
            try:
                for i, r in enumerate(rows, 1):
                    if not r:
                        raise ParseError(f"PLY face record {i} of {count} "
                                         "is blank: it lacks its vertex count")
                    tris.extend(_walk_faces(r, 1, warnings,
                                            "truncated PLY face record"))
            except ValueError as exc:
                raise ParseError(f"bad PLY face record: {exc}") from exc
    if verts is None or not tris:
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
    """Write an OFF file; coordinates keep 9 significant digits.
    Returns the sha256 of the bytes written."""
    lines = ["OFF", f"{mesh.n_vertices} {mesh.n_triangles} 0"]
    lines += [f"{_fmt(v[0])} {_fmt(v[1])} {_fmt(v[2])}" for v in mesh.vertices]
    return atomic_write_text(path,
                             "\n".join(lines + _face_lines(mesh)) + "\n")


def save_ply(mesh, path, colors=None):
    """Write an ascii PLY file, optionally with per-vertex uchar RGB.

    colors, when given, is an (n, 3) integer array in 0..255.  Returns
    the sha256 of the bytes written.
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
    return atomic_write_text(path,
                             "\n".join(lines + _face_lines(mesh)) + "\n")
