"""Seed selection: curvature, FPS, support, and the coverage loop."""

import re

import numpy as np
import pytest
from scipy.sparse import csgraph

import lapbasis as lb
from lapbasis.basis import ChebyshevKernel
from lapbasis.errors import (
    NoProgress,
    NonFiniteField,
    SingularSystem,
    ZeroField,
)
from lapbasis.filters import FilterSpec
from lapbasis.seeds import load_seeds, save_seeds

from conftest import SHAPE_MESHES, merge_meshes


def delta_field(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return lb.ScalarField(e)


def reference_coverage(mesh, field_at, chosen, tau=lb.seeds.DEFAULT_TAU):
    """The coverage loop with one field_at(s) per seed, and components
    and distances to the covered set from a full undirected search every
    iteration: (the pending seeds of each iteration, fields, history,
    curve)."""
    n = mesh.n_vertices
    rounds, pending, fields, history, curve = [], list(chosen), [], [], []
    covered = np.zeros(n, dtype=bool)
    adj, wadj = mesh.adjacency(), mesh.adjacency(weighted=True)
    while True:
        rounds.append(pending)
        for s in pending:
            fields.append(field_at(s))
            covered[lb.support(fields[-1], tau)] = True
            curve.append(float(covered.mean()))
        history.append(curve[-1])
        if covered.all():
            return rounds, fields, history, curve
        uncovered = np.flatnonzero(~covered)
        _, labels = csgraph.connected_components(
            adj[uncovered][:, uncovered], directed=False)
        d_cov = csgraph.dijkstra(wadj, directed=False, min_only=True,
                                 indices=np.flatnonzero(covered))
        pending = sorted(
            int(verts[np.argmax(d_cov[verts])])
            for verts in (uncovered[labels == c]
                          for c in range(labels.max() + 1)))


def fps_by_vertex_distances(mesh, k, start):
    """Euclidean farthest point sampling with one vertex_distances call
    per step: the reference."""
    chosen = [start]
    dist = lb.field_values(lb.vertex_distances(mesh, start))
    while len(chosen) < k:
        masked = dist.copy()
        masked[chosen] = -np.inf
        chosen.append(int(np.argmax(masked)))
        dist = np.minimum(
            dist, lb.field_values(lb.vertex_distances(mesh, chosen[-1])))
    return chosen


class TestCurvature:
    def test_unit_sphere_curvature_one(self, sphere3, op3):
        c = lb.field_values(lb.curvature_field(sphere3, op3))
        assert c.mean() == pytest.approx(1.0, rel=0.01)
        # dispersion is small; the residual error sits at the 12
        # valence-5 vertices of the icosphere
        assert c.std() / c.mean() <= 0.10
        valence = np.array([len(sphere3.one_ring(i)) for i in range(op3.n)])
        assert np.abs(c[valence == 6] - 1.0).max() <= 0.02
        assert np.abs(c - 1.0).max() <= 0.2

    def test_radius_scales_inversely(self):
        m = lb.icosphere(2, radius=2.0)
        c = lb.field_values(lb.curvature_field(m, lb.assemble(m)))
        assert c.mean() == pytest.approx(0.5, rel=0.01)

    def test_flat_interior_is_zero(self):
        m = lb.grid(9, 9)
        op = lb.assemble(m)
        c = lb.field_values(lb.curvature_field(m, op))
        boundary = np.zeros(m.n_vertices, dtype=bool)
        boundary[np.unique(m.boundary_edges())] = True
        assert np.abs(c[~boundary]).max() <= 1e-8

    def test_all_values_finite(self, torus200, op_torus200):
        c = lb.field_values(lb.curvature_field(torus200, op_torus200))
        assert np.isfinite(c).all()
        assert len(c) == torus200.n_vertices

    @pytest.mark.parametrize("mass", ["lumped", "consistent"])
    def test_massless_vertex_raises(self, mass):
        # an isolated vertex has no mass: B is singular in both modes
        m = lb.icosphere(1)
        m = lb.TriangleMesh(np.vstack([m.vertices, [[3.0, 0.0, 0.0]]]),
                            m.triangles)
        with pytest.raises(SingularSystem, match="vertex 42"):
            lb.curvature_field(m, lb.assemble(m, mass_mode=mass))


class TestFps:
    def test_unit_square_farthest_corner(self):
        sq = lb.unit_square()
        ss = lb.farthest_point_sampling(sq, 2, start=0)
        assert list(ss.indices) == [0, 2]

    def test_tie_breaks_to_lowest_index(self):
        # after {0, 2} both remaining corners are at distance 1: pick 1
        sq = lb.unit_square()
        ss = lb.farthest_point_sampling(sq, 3, start=0)
        assert list(ss.indices) == [0, 2, 1]

    def test_k_one_is_start(self, sphere2):
        ss = lb.farthest_point_sampling(sphere2, 1, start=7)
        assert list(ss.indices) == [7]

    def test_k_equals_n(self, sphere0):
        ss = lb.farthest_point_sampling(sphere0, 12, start=0)
        assert sorted(ss.indices) == list(range(12))

    def test_deterministic(self, sphere2):
        a = lb.farthest_point_sampling(sphere2, 10, start=3)
        b = lb.farthest_point_sampling(sphere2, 10, start=3)
        assert list(a.indices) == list(b.indices)

    def test_min_separation_non_increasing(self, sphere2):
        ss = lb.farthest_point_sampling(sphere2, 12, start=0)
        idx = list(ss.indices)
        p = sphere2.vertices
        gaps = []
        for i in range(1, len(idx)):
            d = np.linalg.norm(p[idx[:i]] - p[idx[i]], axis=1).min()
            gaps.append(d)
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_default_start_is_curvature_peak(self, sphere2, op2):
        c = lb.field_values(lb.curvature_field(sphere2, op2))
        ss = lb.farthest_point_sampling(sphere2, 3, op=op2)
        assert ss.indices[0] == int(np.argmax(c))

    def test_geodesic_metric(self, sphere2):
        ss = lb.farthest_point_sampling(
            sphere2, 5, start=0, metric="graph_geodesic"
        )
        assert len(set(ss.indices)) == 5

    @pytest.mark.parametrize("start", [None, 3], ids=["curvature", "given"])
    @pytest.mark.parametrize("name", sorted(SHAPE_MESHES))
    def test_euclidean_matches_vertex_distances(self, name, start):
        mesh = SHAPE_MESHES[name]()
        k = min(24, mesh.n_vertices)
        seeds = lb.farthest_point_sampling(mesh, k, start=start)
        if start is None:
            curv = lb.seeds.curvature_field(mesh, lb.assemble(mesh))
            assert seeds.start == int(np.argmax(lb.field_values(curv)))
        assert list(seeds) == fps_by_vertex_distances(mesh, k, seeds.start)
        for s in list(seeds)[:4]:  # the distances keep norm's bits
            got = lb.field_values(lb.vertex_distances(mesh, s))
            want = np.linalg.norm(mesh.vertices - mesh.vertices[s], axis=1)
            assert got.tobytes() == want.tobytes()

    def test_k_validated(self, sphere1):
        with pytest.raises(ValueError):
            lb.farthest_point_sampling(sphere1, 0, start=0)
        with pytest.raises(ValueError):
            lb.farthest_point_sampling(sphere1, 43, start=0)

    @pytest.mark.parametrize("start", [-1, 42])
    def test_start_validated(self, sphere1, start):
        with pytest.raises(IndexError, match=re.escape(
                f"start vertex {start} out of range for n=42")):
            lb.farthest_point_sampling(sphere1, 3, start=start)

    @pytest.mark.parametrize("metric", ["euclidean", "graph_geodesic"])
    def test_one_search_per_seed(self, sphere2, metric, monkeypatch):
        # one unbounded search from the start, then one bounded search from
        # each new seed
        calls = []
        original = lb.seeds.vertex_distances

        def counting(mesh, source, metric="euclidean", limit=None):
            calls.append((source, limit))
            return original(mesh, source, metric, limit)

        monkeypatch.setattr(lb.seeds, "vertex_distances", counting)
        seeds = lb.farthest_point_sampling(sphere2, 6, start=4, metric=metric)
        assert [s for s, _ in calls] == seeds.indices
        assert calls[0][1] is None
        assert all(0 < limit < np.inf for _, limit in calls[1:])


class TestSupport:
    def test_delta_support_is_seed(self):
        idx = lb.support(delta_field(30, 4), tau=0.5)
        assert list(idx) == [4]

    def test_constant_supported_everywhere(self):
        idx = lb.support(lb.ScalarField(np.ones(10)), tau=0.5)
        assert list(idx) == list(range(10))

    def test_threshold_is_relative(self):
        f = lb.ScalarField(np.array([1.0, 0.4, 0.05, 0.0]))
        assert list(lb.support(f, tau=0.3)) == [0, 1]
        assert list(lb.support(f, tau=0.01)) == [0, 1, 2]

    def test_zero_field_rejected(self):
        with pytest.raises(ZeroField):
            lb.support(lb.ScalarField(np.zeros(5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_rejected(self, bad):
        # the peak is NaN or inf; an empty support once came back
        for f, i in ((np.array([bad, 1.0]), 0),
                     (np.array([1.0, 0.5, bad, 2.0, bad]), 2)):
            with pytest.raises(NonFiniteField,
                               match=f"{bad} at vertex {i}$"):
                lb.support(f, 0.1)

    def test_tau_bounds(self):
        f = delta_field(5, 0)
        for tau in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                lb.support(f, tau=tau)


class TestCoverage:
    def test_large_scale_one_iteration(self, sphere2, op2):
        pf = lb.partial_fractions(FilterSpec.exponential(1.0))
        kern = ChebyshevKernel(op2, pf)
        result = lb.coverage_loop(sphere2, op2, kern.apply, k0=7, start=0)
        assert result.iterations == 1
        assert result.history == [1.0]
        assert len(result.seeds.indices) == 7

    def test_small_scale_needs_refinement(self, sphere2, op2):
        pf = lb.partial_fractions(FilterSpec.exponential(0.005))
        kern = ChebyshevKernel(op2, pf)
        result = lb.coverage_loop(sphere2, op2, kern.apply, k0=5, start=0)
        assert result.iterations > 1
        assert result.history[-1] == 1.0
        # strictly increasing coverage history
        assert all(
            a < b for a, b in zip(result.history, result.history[1:])
        )
        assert len(result.basis) == len(result.seeds.indices)

    def test_delta_generator_terminates_with_all_vertices(self, sphere0, ):
        op = lb.assemble(sphere0)
        result = lb.coverage_loop(sphere0, op, lambda E: E, k0=1, start=0)
        assert sorted(result.seeds.indices) == list(range(12))
        assert result.history[-1] == 1.0

    def test_no_progress_detected(self, sphere0):
        op = lb.assemble(sphere0)
        # the field of seed s is the delta at s + 1
        with pytest.raises(NoProgress):
            lb.coverage_loop(sphere0, op, lambda E: np.roll(E, 1, axis=0),
                             k0=1, start=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_generator_field_named(self, sphere2, op2, bad):
        heat = lb.filter_kernel(op2, FilterSpec.exponential(0.002))

        def generator(E):
            G = heat.apply(E)
            G[0] = bad
            return G

        with pytest.raises(NonFiniteField, match=(
                f"generator field at seed 5: .* {bad} at vertex 0$")):
            lb.coverage_loop(sphere2, op2, generator, k0=3, start=5)

    @pytest.mark.parametrize("case", ["two spheres", "torus"])
    def test_components_match_the_uncovered_subgraph(self, case):
        # the uncovered graph, kept in place, gives the components of the
        # subgraph: on two disjoint spheres, the unseeded one at distance
        # inf from the covered set, and on a torus whose uncovered vertices
        # fall into up to 8 components
        if case == "two spheres":
            sphere = lb.icosphere(2)
            mesh, t, k0, start = merge_meshes(sphere, sphere), 0.01, 1, 0
        else:
            mesh, t, k0, start = lb.torus(40, 12), 2e-3, 5, None
        op = lb.assemble(mesh)
        n = mesh.n_vertices
        adj = mesh.adjacency()
        before = [a.copy() for a in (adj.data, adj.indices, adj.indptr)]
        kern = lb.filter_kernel(op, FilterSpec.exponential(t))
        result = lb.coverage_loop(mesh, op, kern.apply, k0=k0, start=start)
        rounds, fields, history, curve = reference_coverage(
            mesh, lambda s: kern.apply(delta_field(n, s)),
            result.seeds.indices[:k0])
        assert result.seeds.indices == sum(rounds, [])
        assert result.history == history and result.curve == curve
        for f, ref in zip(result.basis, fields):
            assert np.array_equal(f, ref)
        if case == "two spheres":
            # the first sphere's farthest vertex, and the second's lowest:
            # d_cov is inf on all of it
            assert rounds[1] == [3, 162]
        else:
            assert max(len(pending) for pending in rounds[1:]) == 8
        assert mesh.adjacency() is adj
        for a, b in zip(before, (adj.data, adj.indices, adj.indptr)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("metric", ["euclidean", "graph_geodesic"])
    @pytest.mark.parametrize("k0", [1, 5])
    @pytest.mark.parametrize("mesh_name", ["icosphere3", "bumpy3", "torus"])
    def test_matches_full_search_every_iteration(self, mesh_name, k0, metric,
                                                 monkeypatch):
        mesh = {"icosphere3": lambda: lb.icosphere(3),
                "bumpy3": lambda: lb.bumpy_sphere(3, seed=2),
                "torus": lambda: lb.torus(40, 12)}[mesh_name]()
        op = lb.assemble(mesh)
        n = mesh.n_vertices
        kern = lb.filter_kernel(op, FilterSpec.exponential(2e-3))

        # reference: farthest points and distances to the covered set from
        # a full search every time
        chosen = [int(np.argmax(lb.field_values(lb.curvature_field(mesh, op))))]
        dist = np.full(n, np.inf)
        while len(chosen) < k0:
            d = lb.field_values(lb.vertex_distances(mesh, chosen[-1], metric))
            dist = np.minimum(dist, d)
            dist[chosen] = -np.inf
            chosen.append(int(np.argmax(dist)))
        fps = lb.farthest_point_sampling(mesh, k0, metric=metric, op=op)
        assert fps.indices == chosen
        rounds, _, history, _ = reference_coverage(
            mesh, lambda s: kern.apply(delta_field(n, s)), chosen)
        seeds = sum(rounds, [])

        searches, sources = [], []
        original = lb.seeds.vertex_distances

        def counting(mesh, source, *args, **kwargs):
            searches.append(source)
            sources.extend(np.atleast_1d(source).tolist())
            return original(mesh, source, *args, **kwargs)

        monkeypatch.setattr(lb.seeds, "farthest_point_sampling",
                            lambda *args, **kwargs: fps)
        monkeypatch.setattr(lb.seeds, "vertex_distances", counting)
        result = lb.coverage_loop(mesh, op, kern.apply, k0=k0, metric=metric)
        assert result.seeds.indices == seeds
        assert result.history == history
        assert len(history) > 2
        # one search per iteration but the last, and each vertex is a
        # search source at most once
        assert len(searches) == len(history) - 1
        assert len(sources) == len(set(sources)) <= n

    @pytest.mark.parametrize("route", ["cheb-exp", "lu"])
    @pytest.mark.parametrize("mesh_name", ["icosphere3", "bumpy3"])
    def test_blocks_keep_every_bit(self, mesh_name, route):
        mesh = {"icosphere3": lambda: lb.icosphere(3),
                "bumpy3": lambda: lb.bumpy_sphere(3, seed=2)}[mesh_name]()
        op = lb.assemble(mesh)
        n = mesh.n_vertices
        filt = FilterSpec.exponential(2e-3)
        kern = (lb.filter_kernel(op, filt) if route == "cheb-exp" else
                ChebyshevKernel(op, lb.partial_fractions(filt, 5)))
        assert kern.route == route
        widths = []  # block width of each call

        def generator(E):
            widths.append(E.shape[1])
            return kern.apply(E)

        result = lb.coverage_loop(mesh, op, generator, k0=20)
        rounds, fields, history, curve = reference_coverage(
            mesh, lambda s: kern.apply(delta_field(n, s)),
            result.seeds.indices[:20])
        assert result.seeds.indices == sum(rounds, [])
        assert result.history == history
        assert result.curve == curve
        assert len(result.basis) == len(fields)
        for f, ref in zip(result.basis, fields):
            assert np.array_equal(f, ref)
        # one call per iteration, with all its seeds
        assert widths == [len(pending) for pending in rounds]
        assert widths[0] == 20 and len(rounds) > 2 and min(widths) < 3

    @pytest.mark.parametrize("bad", ["summed", "column"])
    def test_generator_contract_enforced(self, sphere2, op2, bad):
        heat = lb.filter_kernel(op2, FilterSpec.exponential(0.002))
        generator, k0 = {
            # one field for a 5-wide block
            "summed": (lambda E: heat.apply(E).sum(axis=1), 5),
            # an (n, 1) block for a vector
            "column": (lambda E: heat.apply(E)[:, None], 1),
        }[bad]
        with pytest.raises(ValueError, match="input's shape"):
            lb.coverage_loop(sphere2, op2, generator, k0=k0)

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.5, 2.0])
    def test_tau_checked_before_any_work(self, sphere2, op2, tau,
                                         monkeypatch):
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise AssertionError("no work before tau is checked")

        monkeypatch.setattr(lb.seeds, "farthest_point_sampling", refuse)
        with pytest.raises(ValueError, match="tau"):
            lb.coverage_loop(sphere2, op2, refuse, k0=5, tau=tau)
        assert calls == []

    def test_loop_curve_is_coverage_curve(self, op2, sphere2):
        # the loop's own supports give the curve coverage_curve recomputes
        heat = lb.filter_kernel(op2, FilterSpec.exponential(0.002))
        result = lb.coverage_loop(sphere2, op2, heat.apply, k0=4, tau=1e-2)
        assert result.iterations > 1
        assert len(result.curve) == len(result.basis) == len(result.seeds)
        assert result.curve == lb.coverage_curve(result.basis,
                                                 tau=1e-2).tolist()
        assert result.curve[-1] == 1.0
        # history samples the curve at the end of each iteration
        assert set(result.history) <= set(result.curve)

    def test_coverage_curve_monotone(self, op2, sphere2):
        bs = lb.spectral_set(op2, FilterSpec.exponential(0.05),
                             list(range(0, 162, 18)))
        frac = lb.coverage_curve(bs.fields)
        assert len(frac) == len(bs.fields)
        assert all(a <= b + 1e-12 for a, b in zip(frac, frac[1:]))
        assert 0 <= frac[-1] <= 1


class TestSeedIo:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "seeds.txt"
        ss = lb.SeedSet(
            indices=[4, 0, 9], method="manual", start=4, metric="euclidean"
        )
        save_seeds(ss, path)
        again = load_seeds(path)
        assert list(again.indices) == [4, 0, 9]

    @pytest.mark.parametrize("data, message", [
        (b"4\n\nx\n", "{}, line 3: invalid literal for int() with base 10: "
         "'x'"),
        (b"4\r\n 9 \r\n2.5\r\n", "{}, line 3: invalid literal for int() "
         "with base 10: '2.5'"),
        (b"4\n\xff\n", "{}: not UTF-8 text: invalid start byte at byte 2"),
    ], ids=["letter", "fraction-crlf", "not-utf8"])
    def test_bad_file_names_itself(self, tmp_path, data, message):
        path = tmp_path / "seeds.txt"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(message.format(path))):
            load_seeds(path)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            lb.SeedSet(
                indices=[1, 1], method="manual", start=1, metric="euclidean"
            )

    @pytest.mark.parametrize("indices", [[2.7, 3], [True, 3]],
                             ids=["float", "bool"])
    def test_non_integer_indices_rejected(self, indices):
        # int(i) once read 2.7 as vertex 2 and True as vertex 1
        with pytest.raises(TypeError, match="must be integers"):
            lb.SeedSet(indices)

    def test_numpy_integers_accepted(self):
        ss = lb.SeedSet([np.int64(4), 0])
        assert ss.indices == [4, 0]
        assert all(type(i) is int for i in ss.indices)
