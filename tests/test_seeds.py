"""Seed selection: curvature, FPS, support, and the coverage loop."""

import numpy as np
import pytest

import lapbasis as lb
from lapbasis.basis import ChebyshevKernel
from lapbasis.errors import NoProgress, SingularSystem, ZeroField
from lapbasis.filters import FilterSpec
from lapbasis.seeds import load_seeds, save_seeds


def delta_field(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return lb.ScalarField(e)


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

    def test_k_validated(self, sphere1):
        with pytest.raises(ValueError):
            lb.farthest_point_sampling(sphere1, 0, start=0)
        with pytest.raises(ValueError):
            lb.farthest_point_sampling(sphere1, 43, start=0)


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

    def test_tau_bounds(self):
        f = delta_field(5, 0)
        for tau in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                lb.support(f, tau=tau)


class TestCoverage:
    def test_large_scale_one_iteration(self, sphere2, op2):
        pf = lb.partial_fractions(FilterSpec.exponential(1.0))
        kern = ChebyshevKernel(op2, pf)

        def gen(seed):
            e = np.zeros(op2.n)
            e[seed] = 1.0
            return kern.apply(e)

        result = lb.coverage_loop(sphere2, op2, gen, k0=7, start=0)
        assert result.iterations == 1
        assert result.history == [1.0]
        assert len(result.seeds.indices) == 7

    def test_small_scale_needs_refinement(self, sphere2, op2):
        pf = lb.partial_fractions(FilterSpec.exponential(0.005))
        kern = ChebyshevKernel(op2, pf)

        def gen(seed):
            e = np.zeros(op2.n)
            e[seed] = 1.0
            return kern.apply(e)

        result = lb.coverage_loop(sphere2, op2, gen, k0=5, start=0)
        assert result.iterations > 1
        assert result.history[-1] == 1.0
        # strictly increasing coverage history
        assert all(
            a < b for a, b in zip(result.history, result.history[1:])
        )
        assert len(result.basis) == len(result.seeds.indices)

    def test_delta_generator_terminates_with_all_vertices(self, sphere0, ):
        op = lb.assemble(sphere0)

        def gen(seed):
            return delta_field(12, seed)

        result = lb.coverage_loop(sphere0, op, gen, k0=1, start=0)
        assert sorted(result.seeds.indices) == list(range(12))
        assert result.history[-1] == 1.0

    def test_no_progress_detected(self, sphere0):
        op = lb.assemble(sphere0)

        def gen(seed):
            return delta_field(12, (seed + 1) % 12)

        with pytest.raises(NoProgress):
            lb.coverage_loop(sphere0, op, gen, k0=1, start=0)

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

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            lb.SeedSet(
                indices=[1, 1], method="manual", start=1, metric="euclidean"
            )
