"""Sparse solvers and the shift-invert eigensolver against dense oracles."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import lapbasis as lb
from lapbasis import numerics
from lapbasis.errors import (
    FactorizationFailed,
    NearSingularShift,
    NotConverged,
    SingularSystem,
    SolverFailure,
)
from lapbasis.numerics import (
    component_nullspace,
    shifted_factor,
    smallest_eigenpairs,
)

from conftest import merge_meshes


def dense_lb(op):
    return op.L.toarray(), op.B.toarray()


class TestSolveSpd:
    def test_diagonal_example(self):
        A = sp.diags([2.0, 3.0]).tocsr()
        x = lb.solve_spd(A, np.array([2.0, 6.0]))
        assert np.allclose(x, [1.0, 2.0])

    def test_mass_solve_identity(self, op3):
        b = op3.B @ np.ones(op3.n)
        x = lb.solve_spd(op3.B, b)
        assert np.abs(x - 1.0).max() <= 1e-8

    def test_random_spd_vs_dense(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((20, 20))
        A = M @ M.T + 20 * np.eye(20)
        b = rng.standard_normal(20)
        x = lb.solve_spd(sp.csr_matrix(A), b)
        assert np.allclose(x, np.linalg.solve(A, b), atol=1e-8)

    def test_psd_with_nullspace_projection(self, op2):
        # consistent right-hand side; solution pinned B-orthogonal to 1
        rng = np.random.default_rng(1)
        L, B = dense_lb(op2)
        f = rng.standard_normal(op2.n)
        b = L @ f
        ns = np.ones((op2.n, 1))
        x = lb.solve_spd(op2.L, b, nullspace=ns)
        assert np.abs(L @ x - b).max() <= 1e-8 * np.abs(b).max()
        assert abs(np.ones(op2.n) @ x) <= 1e-8 * np.abs(x).max() * op2.n

    def test_nonsymmetric_kind_rejected(self):
        # positive diagonal, so only the symmetry check can reject it
        A = sp.csr_matrix([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
        with pytest.raises(ValueError, match="symmetric"):
            lb.solve_spd(A, np.ones(3))

    def test_roundoff_asymmetry_accepted(self):
        # a matrix assembled by summation may differ from its transpose
        # by round-off; that is still a symmetric system
        A = sp.csr_matrix([[2.0, 1.0 + 4e-16], [1.0, 2.0]])
        x = lb.solve_spd(A, np.array([3.0, 3.0]))
        assert np.allclose(x, 1.0)

    def test_solver_errors_share_parent(self):
        for cls in (NotConverged, SingularSystem, NearSingularShift, FactorizationFailed):
            assert issubclass(cls, SolverFailure)


class TestSolveShifted:
    def test_zero_shift_is_identity(self, op2):
        rng = np.random.default_rng(2)
        f = rng.standard_normal(op2.n)
        g = shifted_factor(op2.B, op2.L, 0.0)(op2.B @ f)
        assert np.abs(g - f).max() <= 1e-10 * np.abs(f).max()

    def test_diagonal_closed_form(self):
        B = sp.eye(3).tocsr()
        L = sp.diags([0.0, 1.0, 4.0]).tocsr()
        beta = 0.5 + 0.25j
        rhs = np.array([1.0, 1.0, 1.0])
        g = shifted_factor(B, L, beta)(rhs)
        assert np.allclose(g, 1.0 / (1.0 + beta * np.array([0.0, 1.0, 4.0])))

    def test_torus_vs_dense_complex(self, op_torus500):
        rng = np.random.default_rng(3)
        L, B = dense_lb(op_torus500)
        f = rng.standard_normal(op_torus500.n)
        for beta in (0.2 + 0.3j, 1.0 + 0j, 0.05 - 0.7j):
            g = shifted_factor(op_torus500.B, op_torus500.L, beta)(B @ f)
            want = np.linalg.solve(B + beta * L, B @ f)
            assert np.abs(g - want).max() <= 1e-8 * np.abs(want).max()

    def test_conjugate_shifts_give_conjugate_solutions(self, op2):
        rng = np.random.default_rng(4)
        f = op2.B @ rng.standard_normal(op2.n)
        beta = 0.4 + 0.9j
        g1 = shifted_factor(op2.B, op2.L, beta)(f)
        g2 = shifted_factor(op2.B, op2.L, np.conj(beta))(f)
        assert np.abs(g1 - np.conj(g2)).max() <= 1e-12 * np.abs(g1).max()

    def test_near_singular_shift_detected(self, op1):
        eig = lb.eigen_basis(op1, 4)
        beta = -1.0 / eig.values[1]  # makes B + beta L exactly singular
        with pytest.raises(NearSingularShift):
            shifted_factor(op1.B, op1.L, beta)(np.ones(op1.n))

    def test_factor_reuse_matches_single_solves(self, op2):
        rng = np.random.default_rng(5)
        solve = shifted_factor(op2.B, op2.L, 0.3 + 0.1j)
        for _ in range(3):
            rhs = rng.standard_normal(op2.n)
            a = solve(rhs)
            b = shifted_factor(op2.B, op2.L, 0.3 + 0.1j)(rhs)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()

    def test_conditioning_follows_spectrum(self, op_torus200):
        # cond_2 of the B-whitened shifted matrix is (1+b*lmax)/(1+b*lmin)
        L, B = dense_lb(op_torus200)
        lam = scipy.linalg.eigh(L, B, eigvals_only=True)
        s = 1.0 / np.sqrt(np.diag(B))
        for beta in (0.1, 1.0, 10.0):
            C = (B + beta * L) * s[:, None] * s[None, :]
            kappa = np.linalg.cond(C)
            want = (1 + beta * lam[-1]) / (1 + beta * lam[0])
            assert kappa == pytest.approx(want, rel=0.01)


def patch_eigsh(monkeypatch, drops):
    """Make numerics' eigsh lose the lowest pair it finds in its first calls.

    For the first ``drops`` calls it computes one pair more than asked and
    drops the lowest, which on a symmetric mesh is one member of a
    degenerate cluster.  Returns the list of requested pair counts.
    """
    real = numerics.spla.eigsh
    calls = []

    def eigsh(A, k, *args, **kwargs):
        calls.append(k)
        if len(calls) > drops:
            return real(A, k, *args, **kwargs)
        vals, X = real(A, k + 1, *args, **kwargs)
        keep = np.argsort(vals)[1:]
        return vals[keep], X[:, keep]

    monkeypatch.setattr(numerics.spla, "eigsh", eigsh)
    return calls


class TestEigenpairs:
    @pytest.mark.parametrize(
        "op_name, k",
        [("op_torus200", None), ("op_torus500", 50), ("op3", 110)],
        ids=["torus200-full", "torus500-k50", "sphere642-k110"],
    )
    def test_matches_dense_oracle_full_spectrum(self, request, op_name, k):
        # torus500 and sphere642 have exactly degenerate clusters inside
        # the requested range; k=None asks for the whole spectrum (dense)
        op = request.getfixturevalue(op_name)
        k = k or op.n
        L, B = dense_lb(op)
        lam = scipy.linalg.eigh(L, B, eigvals_only=True)[:k]
        eig = smallest_eigenpairs(op.L, op.B, k)
        scale = max(lam[-1], 1.0)
        assert np.abs(eig.values - lam).max() <= 1e-6 * scale
        # normwise backward error ||Lx - lam Bx|| / ((|L|_1 + |lam| |B|_1) |x|)
        X, mu = eig.vectors, eig.values
        R = L @ X - B @ X * mu
        norm_l, norm_b = np.abs(L).sum(axis=0).max(), np.abs(B).sum(axis=0).max()
        eta = np.linalg.norm(R, axis=0) / (
            (norm_l + np.abs(mu) * norm_b) * np.linalg.norm(X, axis=0))
        assert eta.max() <= 1e-12

    def test_b_orthonormal(self, eig162_full, op2):
        _, B = dense_lb(op2)
        G = eig162_full.vectors.T @ B @ eig162_full.vectors
        assert np.abs(G - np.eye(eig162_full.k)).max() <= 1e-8

    def test_residuals_small(self, eig20_642, op3):
        L, B = dense_lb(op3)
        X, lam = eig20_642.vectors, eig20_642.values
        R = L @ X - B @ X * lam
        norms = np.linalg.norm(L @ X, axis=0) + np.linalg.norm(B @ X, axis=0)
        assert (np.linalg.norm(R, axis=0) <= 1e-7 * np.maximum(norms, 1)).all()

    def test_sorted_and_first_zero(self, eig20_642):
        v = eig20_642.values
        assert (np.diff(v) >= -1e-12).all()
        assert v[0] <= 1e-8

    def test_constant_first_vector(self, op2):
        eig = smallest_eigenpairs(op2.L, op2.B, 1)
        x = eig.vectors[:, 0]
        assert np.abs(x - x.mean()).max() <= 1e-6 * abs(x.mean())

    def test_prefix_stability(self, op3):
        e1 = smallest_eigenpairs(op3.L, op3.B, 10)
        e2 = smallest_eigenpairs(op3.L, op3.B, 25)
        scale = max(e2.values[24], 1.0)
        assert np.abs(e1.values - e2.values[:10]).max() <= 1e-8 * scale

    def test_deterministic_given_seed(self, op2):
        a = smallest_eigenpairs(op2.L, op2.B, 8, seed=42)
        b = smallest_eigenpairs(op2.L, op2.B, 8, seed=42)
        assert (a.values == b.values).all()
        assert (a.vectors == b.vectors).all()

    def test_two_component_kernel(self, two_spheres):
        op = lb.assemble(two_spheres)
        eig = smallest_eigenpairs(op.L, op.B, 4)
        assert eig.values[0] <= 1e-8 and eig.values[1] <= 1e-8
        assert eig.values[2] > 1e-4
        # kernel vectors are constant on each component
        for i in range(2):
            x = eig.vectors[:, i]
            for half in (x[:42], x[42:]):
                assert np.abs(half - half.mean()).max() <= 1e-6 * (
                    np.abs(x).max()
                )

    def test_k_out_of_range(self, op1):
        with pytest.raises(ValueError):
            smallest_eigenpairs(op1.L, op1.B, op1.n + 1)
        with pytest.raises(ValueError):
            smallest_eigenpairs(op1.L, op1.B, 0)


class TestCertificate:
    def test_recovers_dropped_cluster_member(self, op2, monkeypatch):
        calls = patch_eigsh(monkeypatch, drops=1)
        eig = smallest_eigenpairs(op2.L, op2.B, 8)
        L, B = dense_lb(op2)
        lam = scipy.linalg.eigh(L, B, eigvals_only=True)[:8]
        assert len(calls) >= 2
        assert np.abs(eig.values - lam).max() <= 1e-8 * max(lam[-1], 1.0)
        G = eig.vectors.T @ B @ eig.vectors
        assert np.abs(G - np.eye(8)).max() <= 1e-8

    def test_persistent_loss_raises(self, op2, monkeypatch):
        patch_eigsh(monkeypatch, drops=np.inf)
        with pytest.raises(NotConverged):
            smallest_eigenpairs(op2.L, op2.B, 8)


class TestNullspace:
    def test_connected_mesh_single_constant(self, op2):
        ns = component_nullspace(op2.L, op2.B)
        assert ns.shape == (op2.n, 1)
        x = ns[:, 0]
        assert np.abs(x - x.mean()).max() <= 1e-12 * abs(x.mean())

    def test_two_components(self, two_spheres):
        op = lb.assemble(two_spheres)
        ns = component_nullspace(op.L, op.B)
        assert ns.shape[1] == 2
        L, B = dense_lb(op)
        assert np.abs(L @ ns).max() <= 1e-10
        # columns are B-orthonormal
        G = ns.T @ B @ ns
        assert np.abs(G - np.eye(2)).max() <= 1e-12

    def test_screened_operator_has_none(self, op1):
        L, B = dense_lb(op1)
        H = sp.csr_matrix(L + B)
        ns = component_nullspace(H, op1.B)
        assert ns.shape[1] == 0
