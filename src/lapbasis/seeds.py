"""Seed selection (curvature extremum + farthest point sampling) and the
coverage loop that grows a basis set until supports cover the mesh."""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .basis import _unit_columns
from .errors import NoProgress, NonFiniteField, ZeroField
from .fields import BasisSet, ScalarField, field_values
from .ioutil import atomic_write_text, decode_utf8
from .laplacian import _mass_solve, assemble
from .mesh import vertex_distances, vertex_indices

DEFAULT_TAU = 1e-3

METRIC_CHOICES = ("euclidean", "graph_geodesic")


@dataclass
class SeedSet:
    """Ordered seed vertices; order is selection order."""

    indices: list
    method: str = "manual"
    start: int = None
    metric: str = "euclidean"

    def __post_init__(self):
        # empty is allowed here: the kernels reject an empty seed set
        idx = list(self.indices)
        idx = vertex_indices(idx, None, "seed index").tolist() if idx else []
        if len(set(idx)) != len(idx):
            raise ValueError("seed indices must be distinct")
        self.indices = idx

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __getitem__(self, i):
        return self.indices[i]


def curvature_field(mesh, op):
    """Pointwise mean-curvature magnitude 0.5 * |B^{-1} L p|.

    The Laplacian of the coordinate functions is the mean-curvature normal;
    its half-norm is H (1 on the unit sphere, 0 on a plane).
    """
    HN = _mass_solve(op, np.asarray(op.L @ mesh.vertices))
    return ScalarField(0.5 * np.linalg.norm(HN, axis=1), tag="curvature")


def farthest_point_sampling(mesh, k, start=None, metric="euclidean", op=None):
    """Greedy spread: each new seed maximises the minimum distance to the
    chosen ones; ties break to the lowest vertex index.

    start=None picks the curvature maximum (assembling a default operator
    when none is supplied).  A geodesic search from a new seed stops at
    the current farthest distance of the unchosen vertices, beyond which
    it cannot lower their minimum.
    """
    n = mesh.n_vertices
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    if metric not in METRIC_CHOICES:
        raise ValueError(f"unknown metric {metric!r}")
    if start is None:
        if op is None:
            op = assemble(mesh)
        start = int(np.argmax(field_values(curvature_field(mesh, op))))
    (start,) = vertex_indices(start, n, "start vertex").tolist()

    dist = field_values(vertex_distances(mesh, start, metric))
    chosen = [start]
    taken = np.zeros(n, dtype=bool)
    taken[start] = True
    while len(chosen) < k:
        # argmax returns the first (lowest-index) maximiser
        nxt = int(np.argmax(np.where(taken, -np.inf, dist)))
        chosen.append(nxt)
        taken[nxt] = True
        dist = np.minimum(dist, field_values(
            vertex_distances(mesh, nxt, metric, limit=dist[nxt])))
    return SeedSet(chosen, method="fps", start=start, metric=metric)


def _check_tau(tau):
    if not 0 < tau < 1:
        raise ValueError("tau must lie in (0, 1)")


def support(f, tau=DEFAULT_TAU):
    """Vertices where |f| exceeds tau times the peak magnitude.

    ZeroField for the zero field; NonFiniteField, naming the first
    vertex and its value, for a field that holds NaN or infinity."""
    _check_tau(tau)
    values = field_values(f)
    fv = np.abs(values)
    peak = fv.max()  # NaN if any entry is NaN, else inf if any is infinite
    if not np.isfinite(peak):
        i = int(np.argmax(~np.isfinite(fv)))
        raise NonFiniteField("support of a non-finite field is undefined: "
                             f"{values[i]} at vertex {i}")
    if peak == 0.0:
        raise ZeroField("support of the zero field is undefined")
    return np.flatnonzero(fv > tau * peak)


@dataclass
class CoverageResult:
    """Outcome of the coverage loop: final coverage fraction is 1.

    history holds the covered fraction after each iteration, curve after
    each field, from the supports the loop found: coverage_curve of the
    basis, without recomputing them.
    """

    seeds: SeedSet
    basis: BasisSet
    history: list = field(default_factory=list)
    tau: float = DEFAULT_TAU
    curve: list = field(default_factory=list)

    @property
    def iterations(self):
        return len(self.history)


def coverage_loop(mesh, op, generator, k0=10, tau=DEFAULT_TAU,
                  metric="euclidean", start=None):
    """Grow a basis until every vertex is in some member's support.

    generator is a kernel apply, such as filter_kernel(...).apply: it
    takes an (n, m) block of unit columns e_s and returns an array of the
    same shape, column j the field of the j-th seed; any other shape
    raises ValueError.  Each iteration hands all its new seeds to it in
    one call, and the fields are the rows of one contiguous copy of the
    result's transpose.

    Starts from k0 farthest-point seeds (curvature maximum first), then
    repeatedly: find uncovered vertices, split them into connected
    components over mesh edges, and seed each component at its vertex
    farthest (graph distance) from the covered set, ties to the lowest
    index.  Seeds are never reselected.  Each new seed must cover at
    least its own vertex, which guarantees termination in at most n
    iterations.

    The components come from one all-vertex graph kept in place, not from
    a subgraph built each iteration: the adjacency's ones and row pointers
    with a private copy of its column indices, in which the row of each
    newly covered vertex is rewritten as self loops.  A covered vertex
    then reaches no other, so it is a strong component alone and no
    directed path between uncovered vertices passes through it; the
    edges among uncovered vertices are stored both ways, so their strong
    components are the components of the uncovered subgraph.  One
    strong connected_components call per iteration (it builds no
    transpose, as an undirected search does) labels them, and two
    scatters per iteration pick each component's farthest vertex.

    The distance to the covered set is kept across iterations: each
    iteration searches only from the vertices it newly covered, stops at
    the largest distance of a still-uncovered vertex (a longer path cannot
    lower it), and takes the minimum with the kept distances.  So every
    vertex is a search source at most once per run, and the distances of
    uncovered vertices equal those of a full search from the covered set.
    """
    _check_tau(tau)
    n = mesh.n_vertices

    def apply(E):
        G = generator(E)
        if np.shape(G) != E.shape:
            raise ValueError(
                "generator must return an array of its input's shape, one "
                f"field per unit column: got {np.shape(G)} for {E.shape}")
        return G

    fps = farthest_point_sampling(mesh, min(k0, n), start=start,
                                  metric=metric, op=op)
    seed_list = list(fps)
    pending = list(fps)
    covered = np.zeros(n, dtype=bool)
    d_cov = np.full(n, np.inf)
    fields = []
    history = []
    curve = []
    adj = mesh.adjacency()
    indptr, degree = adj.indptr, np.diff(adj.indptr)
    # the uncovered graph, kept in place: adj's ones and indptr, and its
    # own column indices, where each entry of a covered vertex's row is a
    # self loop
    graph = sp.csr_matrix((adj.data, adj.indices.copy(), indptr),
                          shape=adj.shape)
    for _ in range(n):
        was_covered = covered.copy()
        for s, f in zip(pending, apply(_unit_columns(n, pending)).T.copy()):
            try:
                sup = support(f, tau)
            except NonFiniteField as exc:
                raise NonFiniteField(
                    f"generator field at seed {s}: {exc}") from None
            if s not in sup:
                raise NoProgress(
                    f"generator field at seed {s} does not cover its own "
                    "vertex"
                )
            fields.append(f)
            covered[sup] = True
            curve.append(float(covered.mean()))
        history.append(curve[-1])
        if covered.all():
            basis = BasisSet(fields, "coverage", seeds=seed_list,
                             params={"tau": tau, "k0": k0})
            seeds = SeedSet(seed_list, method="coverage", start=fps.start,
                            metric=metric)
            return CoverageResult(seeds, basis, history, tau, curve)
        new = np.flatnonzero(covered & ~was_covered)
        counts = degree[new]
        slots = (np.repeat(indptr[new] - np.cumsum(counts) + counts, counts)
                 + np.arange(counts.sum()))  # the entries of the new rows
        graph.indices[slots] = np.repeat(new, counts)
        _, labels = csgraph.connected_components(graph, directed=True,
                                                 connection="strong")
        uncovered = np.flatnonzero(~covered)
        d_cov = np.minimum(d_cov, field_values(vertex_distances(
            mesh, new, "graph_geodesic", limit=d_cov[uncovered].max())))
        # each component's farthest vertex, ties to the lowest index
        labels, far = labels[uncovered], d_cov[uncovered]
        best = np.full(n, -np.inf)
        np.maximum.at(best, labels, far)
        tied = far == best[labels]
        reps = np.full(n, n)
        np.minimum.at(reps, labels[tied], uncovered[tied])
        pending = np.sort(reps[reps < n]).tolist()
        seed_list.extend(pending)
    raise NoProgress("coverage loop failed to terminate")


def coverage_curve(fields, tau=DEFAULT_TAU):
    """Fraction of vertices covered by the first k supports, per k."""
    fields = list(fields)
    if not fields:
        raise ValueError("coverage curve of an empty set")
    n = len(field_values(fields[0]))
    covered = np.zeros(n, dtype=bool)
    out = []
    for f in fields:
        covered[support(f, tau)] = True
        out.append(float(covered.mean()))
    return np.array(out)


def save_seeds(seeds, path):
    """One vertex index per line; returns the sha256 of the bytes written."""
    return atomic_write_text(path, "\n".join(str(i) for i in seeds) + "\n")


def load_seeds(path):
    """The seeds of a file as save_seeds writes it, one vertex index per
    line (blank lines skipped); a bad file raises ValueError naming it
    and, for a bad entry, its line."""
    with open(path, "rb") as fh:
        text = decode_utf8(fh.read(), path)
    idx = []
    for i, line in enumerate(text.splitlines(), 1):
        if line.strip():
            try:
                idx.append(int(line))
            except ValueError as exc:
                raise ValueError(f"{path}, line {i}: {exc}") from None
    return SeedSet(idx, method="file")
