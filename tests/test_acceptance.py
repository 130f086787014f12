"""Acceptance checks, one per criterion, each printing a pass/fail line.

Every test is independent and prints ``criterion N: PASS/FAIL`` with the
measured margin, so a bare ``pytest -s tests/test_acceptance.py`` reads as
a checklist.  Oracles are dense linear algebra or closed-form spectra;
nothing here reuses the code path it certifies.
"""

import contextlib
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.csgraph as csgraph

import lapbasis as lb
from lapbasis.filters import FilterSpec


_CAPTURE = [None]


@pytest.fixture(autouse=True)
def _capman(request):
    _CAPTURE[0] = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _emit(line):
    # one visible line per criterion, even under default capture
    if _CAPTURE[0] is not None:
        with _CAPTURE[0].global_and_fixture_disabled():
            print(line)
    else:
        print(line)


@contextlib.contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        _emit(f"criterion {num:2d} ({title}): FAIL")
        raise
    _emit(f"criterion {num:2d} ({title}): PASS")


def dense_lb(op):
    return op.L.toarray(), op.B.toarray()


def delta(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


@pytest.fixture(scope="module")
def r10():
    """Radius-10 icosphere: t in {0.1, 1} are small-to-mid diffusion scales."""
    mesh = lb.icosphere(3, radius=10.0)
    op = lb.assemble(mesh)
    eig = lb.eigen_basis(op, op.n)
    return mesh, op, eig


@pytest.fixture(scope="module")
def torus_full(op_torus500):
    return lb.eigen_basis(op_torus500, op_torus500.n)


def test_criterion_01_sphere_spectrum(eig100_2562):
    with criterion(1, "sphere spectral ladder"):
        vals = eig100_2562.values
        assert vals[0] <= 1e-8
        ladder = [2.0] * 3 + [6.0] * 5 + [12.0] * 7
        got = vals[1:16]
        rel = np.abs(got - ladder) / ladder
        assert rel.max() <= 0.02


def test_criterion_02_spectrum_free_agreement(r10):
    with criterion(2, "Chebyshev vs full spectrum"):
        mesh, op, eig = r10
        seed = 0
        t0 = time.perf_counter()
        worst = 0.0
        for t in (0.1, 1.0):
            full = lb.field_values(
                lb.truncated_spectral(
                    eig, FilterSpec.exponential(t), delta(op.n, seed)
                )
            )
            cheb = lb.field_values(lb.spectral_set(
                op, FilterSpec.exponential(t), [seed], r=5)[0])
            err = np.abs(cheb - full).max() / full.max()
            worst = max(worst, err)
            assert err <= 1e-4
        assert time.perf_counter() - t0 <= 30.0


def test_criterion_03_gibbs_contrast(op4, eig100_2562):
    with criterion(3, "Gibbs contrast at t=1e-2"):
        seed = 0
        t = 1e-2
        trunc = lb.field_values(
            lb.truncated_spectral(
                eig100_2562, FilterSpec.exponential(t), delta(op4.n, seed)
            )
        )
        cheb = lb.field_values(lb.spectral_set(
            op4, FilterSpec.exponential(t), [seed], r=5)[0])
        assert trunc.min() < 0
        assert trunc.min() < cheb.min()
        assert cheb.min() >= -1e-4 * cheb.max()


def test_criterion_04_residual_bound(op_torus500, torus_full):
    with criterion(4, "truncation residual bound"):
        n = op_torus500.n
        X, lam = torus_full.vectors, torus_full.values
        L, B = dense_lb(op_torus500)
        rng = np.random.default_rng(4)
        violations = 0
        for _ in range(20):
            # smooth input: spectrally damped noise via the dense oracle
            w = rng.standard_normal(n)
            f = X @ (np.exp(-0.2 * lam) * w)
            alpha = lb.spectral_coefficients(torus_full, f)
            partial = np.cumsum(X * alpha, axis=1)
            R = f[:, None] - partial
            resid_sq = np.einsum("vn,vn->n", R, B @ R)
            energy = f @ (L @ f)
            # bound for truncation n uses lambda_{n+1}
            bounds = np.full(n, np.inf)
            bounds[: n - 1] = energy / lam[1:]
            slack = resid_sq <= bounds * (1 + 1e-9) + 1e-13
            violations += int(n - slack.sum())
        assert violations == 0


def test_criterion_05_metric_identities(op3, eig20_642):
    with criterion(5, "metric identities"):
        X, lam = eig20_642.vectors, eig20_642.values
        L, B = dense_lb(op3)
        A = X.T @ B @ X
        assert np.abs(A - np.eye(20)).max() <= 1e-8
        C = X.T @ L @ X
        for j in range(20):
            tol = 1e-7 * (lam[j] if lam[j] > 0 else lam[1])
            assert np.abs(C[:, j] - lam[j] * delta(20, j)).max() <= tol
        # delta inputs read matrix entries exactly
        for i, j in [(0, 0), (0, 1), (17, 17), (40, 321)]:
            ei, ej = delta(op3.n, i), delta(op3.n, j)
            assert lb.area_metric(op3, ei, ej) == op3.B[i, j]
            assert lb.conformal_metric(op3, ei, ej) == op3.L[i, j]


def test_criterion_06_orthogonality_small_scales(sphere4, op4):
    with criterion(6, "small-scale orthogonality"):
        seeds = list(lb.farthest_point_sampling(sphere4, 100, start=0).indices)
        stats = {}
        for t in (1e-3, 1.0):
            bs = lb.spectral_set(op4, FilterSpec.exponential(t), seeds)
            M = lb.comparison_matrix(op4, bs, metric="area").values
            off = np.abs(M[~np.eye(100, dtype=bool)]).mean()
            stats[t] = (off, np.diag(M).mean())
        assert stats[1e-3][0] <= 1e-3 * stats[1e-3][1]
        assert stats[1.0][0] > stats[1e-3][0]


def test_criterion_07_harmonic_basis(op3, sphere3):
    with criterion(7, "harmonic basis properties"):
        seeds = [0, 100, 350, 641]
        F = lb.harmonic_basis(op3, seeds).matrix()
        assert (F[seeds] == np.eye(4)).all()
        assert np.abs(F.sum(axis=1) - 1.0).max() <= 1e-8
        mv = lb.assemble(sphere3, scheme="mean_value")
        G = lb.harmonic_basis(mv, seeds).matrix()
        assert G.min() >= -1e-8
        assert G.max() <= 1 + 1e-8


def test_criterion_08_chebyshev_table_self_test():
    with criterion(8, "compiled r=5 table"):
        pf = lb.exp_chebyshev_coefficients(5)
        s = np.concatenate([[0.0], np.logspace(-8, 4, 10**6 - 1)])
        err = np.abs(pf(s) - np.exp(-s)).max()
        assert err <= 5e-5


def test_criterion_09_dense_oracle_equivalence():
    with criterion(9, "dense-oracle equivalence"):
        meshes = [
            lb.icosphere(0),
            lb.icosphere(1),
            lb.icosphere(2),
            lb.torus(12, 10),
            lb.grid(9, 9),
            lb.bumpy_sphere(2),
        ]
        t = 0.7
        rng = np.random.default_rng(99)
        for mesh in meshes:
            op = lb.assemble(mesh)
            n = op.n
            assert n <= 300
            L, B = dense_lb(op)
            lam, V = scipy.linalg.eigh(L, B)
            lam = np.clip(lam, 0.0, None)
            f = rng.standard_normal(n)
            f /= np.abs(f).max()

            want = V @ (np.exp(-t * lam) * (V.T @ B @ f))
            eig = lb.eigen_basis(op, n)
            trunc = lb.field_values(
                lb.truncated_spectral(eig, FilterSpec.exponential(t), f)
            )
            assert np.abs(trunc - want).max() <= 1e-6

            pf = lb.partial_fractions(FilterSpec.exponential(t))
            cheb = lb.ChebyshevKernel(op, pf).apply(f)
            assert np.abs(cheb - want).max() <= 1e-4

            seeds = [0, n // 3, 2 * n // 3]
            F = lb.harmonic_basis(op, seeds).matrix()
            free = np.setdiff1d(np.arange(n), seeds)
            for c, s in enumerate(seeds):
                x = np.zeros(n)
                x[s] = 1.0
                x[free] = np.linalg.solve(
                    L[np.ix_(free, free)], -L[np.ix_(free, [s])].ravel()
                )
                assert np.abs(F[:, c] - x).max() <= 1e-6

            s0 = n // 2
            w = V.T @ B @ delta(n, s0)
            g_want = V[:, 1:] @ (w[1:] / lam[1:])
            g = lb.field_values(lb.green_basis(op, [s0])[0])
            assert np.abs(g - g_want).max() <= 1e-6 * np.abs(g_want).max()


def test_criterion_10_robustness(sphere3, op3, op4):
    with criterion(10, "refinement and cut robustness"):
        seed = 0
        t = 1e-2
        filt = FilterSpec.exponential(t)
        coarse = lb.field_values(lb.spectral_set(op3, filt, [seed])[0])
        fine = lb.field_values(lb.spectral_set(op4, filt, [seed])[0])
        # the refined icosphere keeps coarse vertices first, so nearest
        # vertex transfer is the identity on them
        r = np.corrcoef(coarse, fine[: op3.n])[0, 1]
        assert r >= 0.99

        # remove a far cap of triangles and re-solve
        anti = -sphere3.vertices[seed]
        near_anti = np.linalg.norm(sphere3.vertices - anti, axis=1) < 0.6
        drop = near_anti[sphere3.triangles].all(axis=1)
        assert drop.sum() > 0
        keep = sphere3.triangles[~drop]
        used = np.unique(keep)
        remap = -np.ones(sphere3.n_vertices, dtype=int)
        remap[used] = np.arange(len(used))
        sub = lb.TriangleMesh(sphere3.vertices[used], remap[keep])
        cut = lb.field_values(
            lb.spectral_set(lb.assemble(sub), FilterSpec.exponential(t),
                            [int(remap[seed])])[0]
        )
        hops = csgraph.shortest_path(
            sphere3.adjacency(), unweighted=True, indices=seed
        )
        near = np.flatnonzero(hops <= 5)
        assert (remap[near] >= 0).all()
        change = np.abs(coarse[near] - cut[remap[near]]).max()
        assert change <= 1e-3 * coarse.max()


def test_criterion_11_coverage_loop(sphere2, op2, torus200, op_torus200):
    with criterion(11, "coverage loop"):
        def run(mesh, op, t, k0):
            pf = lb.partial_fractions(FilterSpec.exponential(t))
            from lapbasis.basis import ChebyshevKernel

            kern = ChebyshevKernel(op, pf)
            return lb.coverage_loop(mesh, op, kern.apply, k0=k0, start=0)

        # terminates on every test mesh
        grid = lb.grid(9, 9)
        for mesh, op in (
            (sphere2, op2),
            (torus200, op_torus200),
            (grid, lb.assemble(grid)),
        ):
            result = run(mesh, op, 0.5, 5)
            assert result.history[-1] == 1.0

        # one iteration from k0=7 at t=1 on a closed mesh
        result = run(sphere2, op2, 1.0, 7)
        assert result.iterations == 1

        # strictly increasing history on a multi-iteration run
        result = run(sphere2, op2, 0.005, 5)
        assert result.iterations > 1
        assert all(
            a < b for a, b in zip(result.history, result.history[1:])
        )
