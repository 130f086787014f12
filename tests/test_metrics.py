"""Inner products, kernel metrics, and comparison matrices."""

import ast
import inspect

import numpy as np
import pytest

import lapbasis as lb
from lapbasis import metrics as metrics_mod
from lapbasis.basis import ChebyshevKernel
from lapbasis.errors import NotAdjoint, SchemeNotSymmetric
from lapbasis.filters import FilterSpec
from lapbasis.metrics import save_comparison_csv, save_comparison_pgm


def dense_lb(op):
    return op.L.toarray(), op.B.toarray()


def delta(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


@pytest.fixture(scope="module")
def heat_kernel(op2):
    pf = lb.partial_fractions(FilterSpec.exponential(0.5))
    kern = ChebyshevKernel(op2, pf)
    return lambda v: lb.field_values(kern.apply(v))


class TestPointMetrics:
    def test_area_metric_is_mass_entry(self, op2):
        _, B = dense_lb(op2)
        n = op2.n
        for i, j in [(0, 0), (0, 1), (5, 80)]:
            got = lb.area_metric(op2, delta(n, i), delta(n, j))
            assert got == B[i, j]

    def test_conformal_metric_is_stiffness_entry(self, op2):
        L, _ = dense_lb(op2)
        n = op2.n
        for i, j in [(0, 0), (0, 1), (5, 80)]:
            got = lb.conformal_metric(op2, delta(n, i), delta(n, j))
            assert got == L[i, j]

    def test_eigenvector_orthonormality(self, op2, eig162_full):
        X, lam = eig162_full.vectors, eig162_full.values
        for i, j in [(0, 0), (3, 3), (2, 7)]:
            a = lb.area_metric(op2, X[:, i], X[:, j])
            want = 1.0 if i == j else 0.0
            assert abs(a - want) <= 1e-8
        for j in (1, 5, 19):
            c = lb.conformal_metric(op2, X[:, j], X[:, j])
            assert abs(c - lam[j]) <= 1e-7 * lam[j]
        c = lb.conformal_metric(op2, X[:, 2], X[:, 9])
        assert abs(c) <= 1e-7 * lam[9]

    def test_conformal_rejects_nonsymmetric_scheme(self, sphere2):
        op = lb.assemble(sphere2, scheme="mean_value")
        with pytest.raises(SchemeNotSymmetric):
            lb.conformal_metric(op, np.ones(op.n), np.ones(op.n))

    def test_shape_mismatch(self, op2):
        with pytest.raises(ValueError):
            lb.area_metric(op2, np.ones(3), np.ones(op2.n))


class TestKernelMetric:
    def test_diffusion_eigenvector_diagonal(self, op2, eig162_full, heat_kernel):
        # h_K(x_j, x_j) = exp(-lambda_j t) for the heat kernel at t=0.5
        lam, X = eig162_full.values, eig162_full.vectors
        for j in (1, 4, 10):
            got = lb.kernel_metric(op2, heat_kernel, X[:, j], X[:, j])
            assert got == pytest.approx(np.exp(-0.5 * lam[j]), abs=1e-4)

    def test_adjoint_probe_rejects_nonsymmetric_map(self, op2):
        shift = lambda v: np.roll(np.asarray(v), 1)
        with pytest.raises(NotAdjoint):
            lb.kernel_metric(
                op2, shift, np.ones(op2.n), np.ones(op2.n)
            )

    def test_adjoint_probe_on_every_call(self, op2, monkeypatch):
        applies = []
        original = ChebyshevKernel.apply

        def counting(self, f):
            applies.append(1)
            return original(self, f)

        monkeypatch.setattr(ChebyshevKernel, "apply", counting)
        kern = ChebyshevKernel(op2, lb.partial_fractions(
            FilterSpec.exponential(0.5)))
        f = np.ones(op2.n)
        probe = 2 * metrics_mod.ADJOINT_PROBES  # two applies per (u, v) pair
        for calls in range(1, 4):
            lb.kernel_metric(op2, kern.apply, f, f)
            assert len(applies) == calls * (probe + 1)
        del applies[:]
        lb.comparison_matrix(op2, [f, 2 * f, 3 * f], metric="kernel",
                             kernel_apply=kern.apply)
        assert len(applies) == 3 + probe

    def test_adjoint_probe_repeats_for_failing_map(self, op2):
        shift = lambda v: np.roll(np.asarray(v), 1)
        for _ in range(2):
            with pytest.raises(NotAdjoint):
                lb.kernel_metric(op2, shift, np.ones(op2.n), np.ones(op2.n))

    def test_adjoint_probe_per_mass_matrix(self, op2, op2_consistent):
        # a kernel that passed with one B is probed again with another: the
        # lumped-mass heat kernel is not adjoint in the consistent B
        kern = ChebyshevKernel(op2, lb.partial_fractions(
            FilterSpec.exponential(0.5)))
        f = np.ones(op2.n)
        lb.kernel_metric(op2, kern.apply, f, f)
        with pytest.raises(NotAdjoint):
            lb.kernel_metric(op2_consistent, kern.apply, f, f)

    def test_symmetry(self, op2, heat_kernel):
        rng = np.random.default_rng(21)
        f = rng.standard_normal(op2.n)
        g = rng.standard_normal(op2.n)
        a = lb.kernel_metric(op2, heat_kernel, f, g)
        b = lb.kernel_metric(op2, heat_kernel, g, f)
        assert abs(a - b) <= 1e-9 * max(abs(a), 1.0)


class TestComparisonMatrix:
    def test_eigen_area_is_identity(self, op2, eig162_full):
        fields = lb.eigen_fields(eig162_full)
        sub = lb.BasisSet(fields.fields[:10], "eigen")
        cm = lb.comparison_matrix(op2, sub, metric="area")
        assert cm.m == 10
        assert np.abs(cm.values - np.eye(10)).max() <= 1e-8

    def test_eigen_conformal_is_spectrum(self, op2, eig162_full):
        fields = lb.eigen_fields(eig162_full)
        sub = lb.BasisSet(fields.fields[:10], "eigen")
        cm = lb.comparison_matrix(op2, sub, metric="conformal")
        lam = eig162_full.values[:10]
        assert np.abs(np.diag(cm.values) - lam).max() <= 1e-7 * lam.max()

    def test_symmetric_and_finite(self, op2):
        bs = lb.spectral_set(op2, FilterSpec.exponential(0.1),
                             [0, 40, 80, 120])
        cm = lb.comparison_matrix(op2, bs, metric="area")
        assert np.isfinite(cm.values).all()
        assert np.abs(cm.values - cm.values.T).max() <= 1e-9 * np.abs(
            cm.values
        ).max()

    def test_gram_positive_definite(self, op2):
        bs = lb.spectral_set(op2, FilterSpec.exponential(0.1),
                             [0, 40, 80, 120])
        cm = lb.comparison_matrix(op2, bs, metric="area")
        assert np.linalg.eigvalsh(cm.values).min() > 0

    def test_kernel_metric_matrix(self, op2, heat_kernel, eig162_full):
        # F' B K F with K = exp(-t L~): oracle via the full spectrum
        bs = lb.spectral_set(op2, FilterSpec.exponential(0.1), [0, 40])
        cm = lb.comparison_matrix(
            op2, bs, metric="kernel", kernel_apply=heat_kernel
        )
        _, B = dense_lb(op2)
        lam, X = eig162_full.values, eig162_full.vectors
        F = bs.matrix()
        K = X @ (np.exp(-0.5 * lam)[:, None] * (X.T @ B @ F))
        want = F.T @ B @ K
        assert np.abs(cm.values - want).max() <= 1e-4 * np.abs(want).max()

    def test_kernel_metric_requires_apply(self, op2):
        bs = lb.spectral_set(op2, FilterSpec.exponential(0.1), [0, 40])
        with pytest.raises(ValueError):
            lb.comparison_matrix(op2, bs, metric="kernel")

    def test_disjoint_supports_near_diagonal(self, op3):
        seeds = list(lb.farthest_point_sampling(op3_mesh(op3), 6, start=0))
        bs = lb.spectral_set(op3, FilterSpec.exponential(1e-4), seeds)
        cm = lb.comparison_matrix(op3, bs, metric="area")
        M = cm.values
        off = M[~np.eye(6, dtype=bool)]
        assert np.abs(off).max() <= 1e-6 * np.diag(M).mean()

    def test_overlap_grows_with_scale(self, op_torus500, torus500):
        seeds = list(lb.farthest_point_sampling(torus500, 30, start=0))
        stats = []
        for t in (1e-3, 1e-2, 1e-1, 1.0):
            bs = lb.spectral_set(op_torus500, FilterSpec.exponential(t), seeds)
            M = lb.comparison_matrix(op_torus500, bs, metric="area").values
            stats.append(
                np.abs(M[~np.eye(30, dtype=bool)]).mean() / np.diag(M).mean()
            )
        assert all(a < b for a, b in zip(stats, stats[1:]))

    def test_normalize_rescales_columns(self, op2):
        bs = lb.spectral_set(op2, FilterSpec.exponential(0.1), [0, 80])
        raw = lb.comparison_matrix(op2, bs, metric="area")
        norm = lb.comparison_matrix(op2, bs, metric="area", normalize=True)
        assert not norm.normalized == raw.normalized
        assert norm.normalized
        # normalised fields span [0, 1], so diagonals change
        assert not np.allclose(raw.values, norm.values)

    def test_no_fields_rejected(self, op2):
        with pytest.raises(ValueError, match="at least one field"):
            lb.comparison_matrix(op2, [], metric="area")

    def test_every_metric_is_one_gram_routine(self, op2, heat_kernel,
                                              monkeypatch):
        calls = []
        original = metrics_mod._gram

        def recording(op, metric, F, G, kernel_apply=None):
            calls.append((metric, np.ndim(F)))
            return original(op, metric, F, G, kernel_apply)

        monkeypatch.setattr(metrics_mod, "_gram", recording)
        f = np.ones(op2.n)
        lb.area_metric(op2, f, f)
        lb.conformal_metric(op2, f, f)
        lb.kernel_metric(op2, heat_kernel, f, f)
        for metric in ("area", "conformal", "kernel"):
            lb.comparison_matrix(op2, [f], metric=metric,
                                 kernel_apply=heat_kernel)
        assert calls == [("area", 1), ("conformal", 1), ("kernel", 1),
                         ("area", 2), ("conformal", 2), ("kernel", 2)]

    def test_metrics_module_keeps_no_state(self):
        tree = ast.parse(inspect.getsource(metrics_mod))
        imported = {a.name for n in ast.walk(tree)
                    if isinstance(n, (ast.Import, ast.ImportFrom))
                    for a in n.names}
        assert not imported & {"inspect", "weakref"}
        assert not [n for n in ast.walk(tree) if isinstance(n, ast.Global)]
        mutable = (ast.Dict, ast.List, ast.Set, ast.Call)
        assert not [n for n in tree.body if isinstance(n, ast.Assign)
                    and isinstance(n.value, mutable)]

    def test_unknown_metric(self, op2):
        bs = lb.spectral_set(op2, FilterSpec.exponential(0.1), [0])
        with pytest.raises(ValueError):
            lb.comparison_matrix(op2, bs, metric="hausdorff")


def op3_mesh(op3):
    # the mesh behind op3 is the subdivision-3 icosphere
    return lb.icosphere(3)


class TestExport:
    def test_csv_round_trip_exact(self, op2, tmp_path):
        bs = lb.spectral_set(op2, FilterSpec.exponential(0.2), [0, 40, 80])
        cm = lb.comparison_matrix(op2, bs, metric="area")
        path = tmp_path / "cm.csv"
        save_comparison_csv(cm, path)
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 3  # one row per field, no header
        data = np.array([[float(x) for x in r.split(",")] for r in rows])
        assert (data == cm.values).all()

    def test_csv_deterministic(self, op2, tmp_path):
        bs = lb.spectral_set(op2, FilterSpec.exponential(0.2), [0, 40])
        cm = lb.comparison_matrix(op2, bs, metric="area")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_comparison_csv(cm, p1)
        save_comparison_csv(cm, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_pgm_format(self, op2, tmp_path):
        bs = lb.spectral_set(op2, FilterSpec.exponential(0.2), [0, 40, 80])
        cm = lb.comparison_matrix(op2, bs, metric="area")
        path = tmp_path / "cm.pgm"
        save_comparison_pgm(cm, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        body = [l for l in lines[1:] if not l.startswith("#")]
        w, h = map(int, body[0].split())
        assert (w, h) == (3, 3)
        assert int(body[1]) == 255
        pixels = np.array([int(x) for l in body[2:] for x in l.split()])
        assert pixels.size == 9
        assert pixels.min() == 0 and pixels.max() == 255
