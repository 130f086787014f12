"""Basis families: harmonic, Hamiltonian, eigen, filtered, diffusion, Green."""

import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

import lapbasis as lb
from lapbasis import basis as basis_mod
from lapbasis.basis import GREEN_PIN, ChebyshevKernel
from lapbasis.errors import (
    DisconnectedMesh,
    DuplicateSeeds,
    NotConverged,
    SchemeNotSymmetric,
)
from lapbasis.filters import FilterSpec

from conftest import merge_meshes


def dense_lb(op):
    return op.L.toarray(), op.B.toarray()


def dense_filtered(op, spec, F):
    """phi(B^{-1} L) F for a lumped mass, from every eigenpair of
    B^{-1/2} L B^{-1/2} (dense eigh); F holds one input per column."""
    d = 1.0 / np.sqrt(op.B.diagonal())
    lam, W = np.linalg.eigh(d[:, None] * op.L.toarray() * d)
    phi = lb.evaluate(spec, np.clip(lam, 0.0, None))
    return d[:, None] * (W @ (phi[:, None] * (W.T @ (F / d[:, None]))))


def delta(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


def check_green_defining_equation(op, s):
    L, B = dense_lb(op)
    e = delta(op.n, s)
    # B-mean removal keeps the right-hand side in range(L)
    c = (np.ones(op.n) @ B @ e) / B.sum()
    rhs = B @ (e - c)
    g = lb.field_values(lb.green_basis(op, [s])[0])
    r = L @ g - rhs
    assert np.abs(r).max() <= 1e-8 * np.abs(rhs).max()


def check_green_b_mean_free(op, s):
    _, B = dense_lb(op)
    g = lb.field_values(lb.green_basis(op, [s])[0])
    assert abs(np.ones(op.n) @ B @ g) <= 1e-10 * np.abs(g).max()


class TestHarmonic:
    SEEDS = [0, 7, 40, 99]

    def test_lagrange_values_exact(self, op3):
        basis = lb.harmonic_basis(op3, self.SEEDS)
        F = basis.matrix()
        assert np.allclose(F[self.SEEDS], np.eye(4), atol=1e-12)

    def test_partition_of_unity(self, op3):
        F = lb.harmonic_basis(op3, self.SEEDS).matrix()
        assert np.abs(F.sum(axis=1) - 1.0).max() <= 1e-8

    def test_mean_value_maximum_principle(self, sphere3):
        op = lb.assemble(sphere3, scheme="mean_value")
        F = lb.harmonic_basis(op, self.SEEDS).matrix()
        assert F.min() >= -1e-8
        assert F.max() <= 1 + 1e-8
        assert np.abs(F.sum(axis=1) - 1.0).max() <= 1e-8

    def test_matches_dense_solve(self, op2):
        seeds = [3, 77]
        L, _ = dense_lb(op2)
        F = lb.harmonic_basis(op2, seeds).matrix()
        free = np.setdiff1d(np.arange(op2.n), seeds)
        for c, s in enumerate(seeds):
            x = np.zeros(op2.n)
            x[s] = 1.0
            x[free] = np.linalg.solve(
                L[np.ix_(free, free)], -L[np.ix_(free, [s])].ravel()
            )
            assert np.abs(F[:, c] - x).max() <= 1e-6

    def test_duplicate_seeds(self, op2):
        with pytest.raises(DuplicateSeeds):
            lb.harmonic_basis(op2, [1, 2, 1])

    def test_seed_out_of_range(self, op2):
        with pytest.raises(IndexError):
            lb.harmonic_basis(op2, [0, op2.n])

    def test_all_rows_constrained(self, op3):
        # every seed row of every basis function carries its Lagrange value
        seeds = [10, 20, 30]
        F = lb.harmonic_basis(op3, seeds).matrix()
        want = np.eye(3)
        assert np.allclose(F[seeds], want, atol=1e-12)


class TestHamiltonian:
    def test_zero_coupling_reduces_to_harmonic(self, op3):
        seeds = [0, 100]
        h = lb.harmonic_basis(op3, seeds).matrix()
        g = lb.hamiltonian_basis(op3, np.ones(op3.n), 0.0, seeds).matrix()
        assert np.abs(h - g).max() <= 1e-12

    def test_positive_potential_damps(self, op3):
        seeds = [0, 100]
        h = lb.harmonic_basis(op3, seeds).matrix()
        g = lb.hamiltonian_basis(op3, np.ones(op3.n), 5.0, seeds).matrix()
        assert (g <= h + 1e-10).all()
        assert g.min() >= -1e-10
        assert g.max() <= 1 + 1e-10
        # strictly smaller somewhere away from the seeds
        assert (h - g).max() > 1e-3

    def test_indefinite_warning(self, op2):
        V = -np.ones(op2.n)
        with pytest.warns(UserWarning, match="indefinite"):
            lb.hamiltonian_basis(op2, V, 5.0, [0])

    def test_potential_shape_checked(self, op2):
        with pytest.raises(ValueError):
            lb.hamiltonian_basis(op2, np.ones(3), 1.0, [0])


class TestEigenBasis:
    def test_mean_value_excluded(self, sphere2):
        op = lb.assemble(sphere2, scheme="mean_value")
        with pytest.raises(SchemeNotSymmetric):
            lb.eigen_basis(op, 5)

    def test_fields_are_b_orthonormal(self, eig162_full, op2):
        fields = lb.eigen_fields(eig162_full)
        F = fields.matrix()
        _, B = dense_lb(op2)
        G = F.T @ B @ F
        assert np.abs(G - np.eye(op2.n)).max() <= 1e-8


class TestSpectralCoefficients:
    def test_eigenvector_gives_unit_vector(self, eig162_full):
        x3 = eig162_full.vectors[:, 3]
        a = lb.spectral_coefficients(eig162_full, x3)
        assert abs(a[3] - 1.0) <= 1e-8
        a[3] = 0.0
        assert np.abs(a).max() <= 1e-8

    def test_constant_hits_only_kernel_mode(self, eig162_full, sphere2):
        area = sphere2.triangle_areas().sum()
        a = lb.spectral_coefficients(eig162_full, np.full(162, 2.0))
        assert abs(a[0]) == pytest.approx(2.0 * np.sqrt(area), rel=1e-8)
        assert np.abs(a[1:]).max() <= 1e-8 * abs(a[0])

    def test_parseval(self, eig162_full, op2):
        rng = np.random.default_rng(9)
        _, B = dense_lb(op2)
        f = rng.standard_normal(op2.n)
        a = lb.spectral_coefficients(eig162_full, f)
        assert a @ a == pytest.approx(f @ B @ f, rel=1e-10)


class TestReconstruct:
    def test_exact_at_full_order(self, eig162_full, op2):
        rng = np.random.default_rng(10)
        f = rng.standard_normal(op2.n)
        a = lb.spectral_coefficients(eig162_full, f)
        g, report = lb.reconstruct(eig162_full, a, op2.n, f=f)
        assert np.abs(lb.field_values(g) - f).max() <= 1e-8 * np.abs(f).max()
        assert report["residual_sq"] <= 1e-16 * (f @ f + 1)
        assert report["satisfied"]

    def test_eigenvector_needs_few_modes(self, eig162_full):
        x5 = eig162_full.vectors[:, 5]
        a = lb.spectral_coefficients(eig162_full, x5)
        g, report = lb.reconstruct(eig162_full, a, 10, f=x5)
        assert np.abs(lb.field_values(g) - x5).max() <= 1e-8

    def test_bound_holds_for_smooth_fields(self, eig162_full, op2):
        # smooth field: one diffusion step of noise
        rng = np.random.default_rng(11)
        f = lb.field_values(
            lb.truncated_spectral(
                eig162_full,
                FilterSpec.exponential(0.3),
                rng.standard_normal(op2.n),
            )
        )
        a = lb.spectral_coefficients(eig162_full, f)
        for k_use in (5, 20, 80, 161):
            _, report = lb.reconstruct(eig162_full, a, k_use, f=f)
            assert report["satisfied"]
            assert report["residual_sq"] <= report["bound"] + 1e-14

    def test_k_use_validated(self, eig162_full):
        a = np.zeros(eig162_full.k)
        with pytest.raises(ValueError):
            lb.reconstruct(eig162_full, a, 0)
        with pytest.raises(ValueError):
            lb.reconstruct(eig162_full, a, eig162_full.k + 1)


class TestTruncatedSpectral:
    def test_identity_filter_full_order(self, eig162_full, op2):
        rng = np.random.default_rng(12)
        f = rng.standard_normal(op2.n)
        spec = FilterSpec.rational([1.0], [1.0])  # phi = 1
        g = lb.field_values(lb.truncated_spectral(eig162_full, spec, f))
        assert np.abs(g - f).max() <= 1e-8 * np.abs(f).max()

    def test_exponential_fixes_constants(self, eig162_full):
        f = np.full(162, 3.0)
        g = lb.field_values(
            lb.truncated_spectral(eig162_full, FilterSpec.exponential(0.7), f)
        )
        assert np.abs(g - 3.0).max() <= 1e-8

    def test_singular_filter_deflates_kernel(self, eig162_full):
        # constant input maps to ~0 under s^(-1)-type filters
        f = np.full(162, 1.0)
        g = lb.field_values(
            lb.truncated_spectral(eig162_full, FilterSpec.commute_time(), f)
        )
        assert np.abs(g).max() <= 1e-8

    def test_matches_dense_functional_calculus(self, eig162_full, op2):
        rng = np.random.default_rng(13)
        _, B = dense_lb(op2)
        f = rng.standard_normal(op2.n)
        t = 0.4
        X, lam = eig162_full.vectors, eig162_full.values
        want = X @ (np.exp(-t * lam) * (X.T @ B @ f))
        got = lb.field_values(
            lb.truncated_spectral(eig162_full, FilterSpec.exponential(t), f)
        )
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


class TestChebyshevKernel:
    def test_constant_input_reproduced(self, op3):
        pf = lb.partial_fractions(FilterSpec.exponential(0.5))
        g = ChebyshevKernel(op3, pf).apply(np.ones(op3.n))
        # K 1 = p_r(0) 1, and p_r(0) is within the table error of 1
        assert np.abs(g - 1.0).max() <= 2e-5

    def test_linearity(self, op2):
        rng = np.random.default_rng(14)
        pf = lb.partial_fractions(FilterSpec.exponential(0.2))
        kern = ChebyshevKernel(op2, pf)
        f = rng.standard_normal(op2.n)
        g = rng.standard_normal(op2.n)
        lhs = lb.field_values(kern.apply(2.0 * f - 3.0 * g))
        rhs = 2.0 * lb.field_values(kern.apply(f)) - 3.0 * lb.field_values(
            kern.apply(g)
        )
        scale = np.abs(lhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(scale, 1.0)

    def test_agrees_with_full_spectrum(self, op2, eig162_full):
        rng = np.random.default_rng(15)
        f = rng.standard_normal(op2.n)
        t = 0.5
        truncated = lb.field_values(
            lb.truncated_spectral(eig162_full, FilterSpec.exponential(t), f)
        )
        pf = lb.partial_fractions(FilterSpec.exponential(t))
        cheb = ChebyshevKernel(op2, pf).apply(f)
        # rational sup error 9.35e-6 times the input's B-norm scale
        assert np.abs(cheb - truncated).max() <= 5e-5 * np.abs(f).max()

    def test_exact_rational_matches_dense(self, op2):
        rng = np.random.default_rng(16)
        L, B = dense_lb(op2)
        f = rng.standard_normal(op2.n)
        spec = FilterSpec.rational([1.0], [1.0, 2.0, 1.0])
        pf = lb.rational_partial_fractions(spec)
        got = ChebyshevKernel(op2, pf).apply(f)
        A = np.linalg.solve(B, L)
        M = np.linalg.inv(np.eye(op2.n) + A) @ np.linalg.inv(
            np.eye(op2.n) + A
        )
        want = M @ f
        assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()

    @pytest.mark.parametrize("den", [
        [1.0, 0.0, 2.0, 0.0, 1.0],  # 1/(1+s^2)^2
        [1.0, 2.0, 2.0, 1.0, 0.25],  # 1/(1+s+s^2/2)^2
    ])
    def test_repeated_complex_pole_matches_dense(self, op3, den):
        spec = FilterSpec.rational([1.0], den)
        kern = ChebyshevKernel(op3, lb.rational_partial_fractions(spec))
        assert kern.route == "lu"
        f = np.random.default_rng(17).standard_normal(op3.n)
        (want,) = dense_filtered(op3, spec, f[:, None]).T
        got = kern.apply(f)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_factor_cache_shared_across_applies(self, op2, monkeypatch):
        calls = []
        original = lb.numerics.shifted_factor

        def counting(B, L, beta):
            calls.append(beta)
            return original(B, L, beta)

        monkeypatch.setattr(lb.numerics, "shifted_factor", counting)
        pf = lb.partial_fractions(FilterSpec.exponential(1.0))
        kern = ChebyshevKernel(op2, pf)
        kern.apply(np.ones(op2.n))
        n_factors = len(calls)
        kern.apply(np.arange(op2.n, dtype=float))
        assert len(calls) == n_factors
        # conjugate pairs share a factorisation: r=5 has 2 pairs + 1 real
        assert n_factors == 3

    def test_double_pole_chains_two_solves(self, op2, monkeypatch):
        solves = []
        original = lb.numerics.shifted_factor

        def counting(B, L, beta):
            solve = original(B, L, beta)

            def counted(rhs):
                solves.append(beta)
                return solve(rhs)
            return counted

        monkeypatch.setattr(lb.numerics, "shifted_factor", counting)
        filt = lb.parse_filter("rat:num=1;den=1,2,1")  # 1/(1+s)^2
        bs = lb.spectral_set(op2, filt, [0, 50, 100])
        assert len(bs.fields) == 3
        # g_1 = solve(B f), g_2 = solve(B g_1): two solves per column
        assert len(solves) == 2 * 3

    def test_real_pole_factorised_in_real_arithmetic(self, op2, monkeypatch):
        shifts = []
        original = lb.numerics.shifted_factor

        def recording(B, L, beta):
            shifts.append(beta)
            return original(B, L, beta)

        monkeypatch.setattr(lb.numerics, "shifted_factor", recording)
        pf = lb.partial_fractions(FilterSpec.exponential(0.04))
        got = lb.field_values(ChebyshevKernel(op2, pf).apply(np.ones(op2.n)))
        real = [b for b in shifts if not np.iscomplexobj(b)]
        assert len(shifts) == 3 and len(real) == 1
        assert isinstance(real[0], float) and real[0] > 0
        assert np.abs(got - 1.0).max() <= 2e-5


class TestLanczosRoute:
    """The factorisation-free route of ChebyshevKernel (symmetric scheme,
    lumped mass, kappa-hat <= n / LANCZOS_C) against the LU route."""

    @staticmethod
    def counting_factor(monkeypatch):
        calls = []
        original = lb.numerics.shifted_factor

        def counting(B, L, beta):
            calls.append(beta)
            return original(B, L, beta)

        monkeypatch.setattr(lb.numerics, "shifted_factor", counting)
        return calls

    @pytest.mark.parametrize("text", [
        "exp:t=0.001",
        "rat:num=1;den=1,2e-4,1e-8",  # double pole: 1/(1 + 1e-4 s)^2
    ])
    def test_matches_lu_route(self, op4, text, monkeypatch):
        pf = lb.partial_fractions(lb.parse_filter(text))
        lanczos = ChebyshevKernel(op4, pf)
        monkeypatch.setattr(basis_mod, "LANCZOS_C", np.inf)
        lu = ChebyshevKernel(op4, pf)
        assert (lanczos.route, lu.route) == ("lanczos", "lu")
        rng = np.random.default_rng(31)
        inputs = [delta(op4.n, s) for s in (0, 1000, 2561)]
        inputs.append(rng.standard_normal(op4.n))
        for f in inputs:
            want = lu.apply(f)
            got = lanczos.apply(f)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        assert 0 < lanczos.max_lanczos_steps <= lb.numerics.lanczos_cap(
            lanczos.kappa)

    def test_repeated_complex_pole_matches_dense(self, op4):
        spec = FilterSpec.rational([1.0], [1.0, 0.0, 2e-6, 0.0, 1e-12])
        kern = ChebyshevKernel(op4, lb.rational_partial_fractions(spec))
        assert kern.route == "lanczos"  # 1/(1 + 1e-6 s^2)^2
        F = np.column_stack([delta(op4.n, 1000),
                             np.random.default_rng(32).standard_normal(op4.n)])
        for f, want in zip(F.T, dense_filtered(op4, spec, F).T):
            got = kern.apply(f)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_small_t_lumped_factorises_nothing(self, op4, monkeypatch):
        calls = self.counting_factor(monkeypatch)
        kern = ChebyshevKernel(op4, lb.partial_fractions(
            FilterSpec.exponential(0.001)))
        kern.apply(delta(op4.n, 7))
        assert kern.route == "lanczos" and calls == []
        # kappa-hat well inside the rule's bound n / C = 10
        assert 1.0 < kern.kappa <= 0.5 * op4.n / basis_mod.LANCZOS_C

    @pytest.mark.parametrize("case", [
        "large_t", "consistent", "mean_value", "pole_on_spectrum"])
    def test_lu_kept(self, sphere4, op4, case, monkeypatch):
        text, op = "exp:t=0.04", op4
        if case == "consistent":
            text, op = "exp:t=0.001", lb.assemble(sphere4, mass_mode="consistent")
        elif case == "mean_value":
            text, op = "exp:t=0.001", lb.assemble(sphere4, scheme="mean_value")
        elif case == "pole_on_spectrum":
            text = "rat:num=1;den=1,-1e-3"  # 1 + beta s = 0 at s = 1000
        calls = self.counting_factor(monkeypatch)
        pf = lb.partial_fractions(lb.parse_filter(text))
        kern = ChebyshevKernel(op, pf)
        assert kern.route == "lu"
        assert len(calls) == len(pf.poles)
        if case == "large_t":
            assert kern.kappa >= 2 * op.n / basis_mod.LANCZOS_C
        elif case == "pole_on_spectrum":
            assert 1000 < lb.numerics.pencil_bound(op.L, op.B)
            assert kern.kappa == np.inf
        else:
            assert kern.kappa == np.inf

    def test_shift_condition_closed_form(self):
        lam = 50.0
        x = np.linspace(0.0, lam, 200001)
        for beta in (0.02, -0.01, 0.01 + 0.03j, -0.002 + 0.01j, -0.05):
            v = np.abs(1.0 + beta * x)
            want = v.max() / v.min() if v.min() > 0 else np.inf
            got = lb.numerics.shift_condition(beta, lam)
            assert got == pytest.approx(want, rel=1e-6)

    def test_constant_input_exact(self, op4):
        pf = lb.partial_fractions(FilterSpec.exponential(0.001))
        kern = ChebyshevKernel(op4, pf)
        f = np.full(op4.n, 3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = kern.apply(f)
        # the first Lanczos vector spans an invariant space: one step
        assert kern.route == "lanczos" and kern.max_lanczos_steps == 1
        assert np.abs(g - pf(0.0) * f).max() <= 4 * np.finfo(float).eps * 3.0

    def test_not_converged_at_cap(self, op4, monkeypatch):
        monkeypatch.setattr(lb.numerics, "lanczos_cap", lambda kappa: 3)
        kern = ChebyshevKernel(op4, lb.partial_fractions(
            FilterSpec.exponential(0.001)))
        assert kern.route == "lanczos"
        with pytest.raises(NotConverged):
            kern.apply(delta(op4.n, 0))

    def test_expm_multiply_cross_check_n10242(self):
        op = lb.assemble(lb.icosphere(5))
        t, seeds = 1e-3, [0, 5000, 10241]
        bs = lb.spectral_set(op, FilterSpec.exponential(t), seeds)
        assert bs.params["path"] == "chebyshev table r=5 lanczos"
        A = -t * (sp.diags(1.0 / op.B.diagonal()) @ op.L)
        E = np.zeros((op.n, len(seeds)))
        E[seeds, np.arange(len(seeds))] = 1.0
        want = expm_multiply(A.tocsr(), E)
        got = bs.matrix()
        # the r = 5 table's error at this n t (3.5e-5 measured); the
        # Lanczos solves add at most 1e-10
        err = np.abs(got - want).max(axis=0) / np.abs(want).max(axis=0)
        assert err.max() <= 1e-4


class TestDiffusion:
    def test_small_t_concentrates_at_seed(self, op3, sphere3):
        d = lb.field_values(
            lb.spectral_set(op3, FilterSpec.exponential(1e-8), [17])[0])
        ring = set(sphere3.one_ring(17)) | {17}
        outside = np.array([i for i in range(op3.n) if i not in ring])
        assert d[17] == d.max()
        assert np.abs(d[outside]).max() <= 1e-3 * d.max()

    def test_large_t_flattens(self, op1):
        d = lb.field_values(
            lb.spectral_set(op1, FilterSpec.exponential(10.0), [0])[0])
        assert (d.max() - d.min()) <= 1e-3 * d.mean()

    def test_semigroup_property(self, op3):
        # K_{2t} e = K_t (K_t e)
        t = 0.05
        seed = 9
        one = lb.field_values(
            lb.spectral_set(op3, FilterSpec.exponential(2 * t), [seed])[0])
        pf = lb.partial_fractions(FilterSpec.exponential(t))
        kern = ChebyshevKernel(op3, pf)
        half = kern.apply(lb.field_values(kern.apply(delta(op3.n, seed))))
        two = lb.field_values(half)
        assert np.abs(one - two).max() <= 1e-3 * one.max()

    def test_methods_agree(self, op2, eig162_full):
        from lapbasis.filters import exp_table_error

        seed = 33
        t = 0.3
        filt = FilterSpec.exponential(t)
        cheb = lb.field_values(lb.spectral_set(op2, filt, [seed])[0])
        trunc = lb.field_values(
            lb.spectral_set(
                op2, filt, [seed], method="truncated", k=op2.n, eig=eig162_full
            )[0]
        )
        # unit delta input: rational sup error bounds the disagreement
        assert np.abs(cheb - trunc).max() <= 2 * exp_table_error(5)

    def test_truncation_warns(self, op2):
        with pytest.warns(UserWarning, match="spectrum"):
            lb.spectral_set(op2, FilterSpec.exponential(0.1), [0],
                            method="truncated", k=30)

    @pytest.mark.parametrize("text, method", [
        ("exp:t=0.1", "truncated"),
        ("poly:k=2", "chebyshev"),  # no rational form: the truncated fallback
    ])
    def test_truncation_warns_for_every_filter(self, op2, text, method):
        with pytest.warns(UserWarning, match="spectrum"):
            bs = lb.spectral_set(op2, lb.parse_filter(text), [0],
                                 method=method, k=30)
        assert bs.params["path"] == "truncated k=30"

    @pytest.mark.parametrize("case", ["eig", "k>=n"])
    def test_no_truncation_warning(self, op2, eig162_full, case):
        kwargs = ({"eig": eig162_full, "k": 30} if case == "eig"
                  else {"k": op2.n + 5})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bs = lb.spectral_set(op2, lb.parse_filter("poly:k=2"), [0],
                                 method="truncated", **kwargs)
        assert bs.params["path"] == f"truncated k={op2.n}"

    def test_positivity_all_scales(self, op3):
        for t in (1e-3, 1e-2, 1e-1):
            d = lb.field_values(
                lb.spectral_set(op3, FilterSpec.exponential(t), [4])[0])
            assert d.min() >= -1e-4 * d.max()

    def test_diffusion_set_shares_work(self, op2):
        seeds = [0, 50, 100]
        filt = FilterSpec.exponential(0.2)
        bs = lb.spectral_set(op2, filt, seeds)
        assert bs.matrix().shape == (op2.n, 3)
        solo = lb.field_values(lb.spectral_set(op2, filt, [50])[0])
        assert np.abs(bs.matrix()[:, 1] - solo).max() <= 1e-12

    def test_duplicate_seeds_rejected(self, op2):
        with pytest.raises(DuplicateSeeds):
            lb.spectral_set(op2, FilterSpec.exponential(0.1), [5, 5])

    @pytest.mark.parametrize("text, method, path", [
        ("exp:t=0.2", "chebyshev", "chebyshev table r=5"),
        ("exp:t=0.2", "truncated", "truncated k=162"),
        ("rat:num=1;den=1,2,1", "chebyshev", "chebyshev exact-rational"),
    ])
    def test_spectral_set_matches_per_seed(self, op2, eig162_full, text,
                                           method, path):
        filt = lb.parse_filter(text)
        seeds = [0, 50, 100]
        bs = lb.spectral_set(op2, filt, seeds, method=method, eig=eig162_full)
        if method == "chebyshev":
            path += " lu"  # n = 162 < LANCZOS_C: every kernel takes LU
        assert bs.params["path"] == path
        assert bs.seeds == seeds
        for s, got in zip(seeds, bs):
            if method == "chebyshev":
                kern = ChebyshevKernel(op2, lb.partial_fractions(filt))
                want = kern.apply(delta(op2.n, s))
            else:
                want = lb.truncated_spectral(eig162_full, filt, delta(op2.n, s))
            want = lb.field_values(want)
            assert np.abs(lb.field_values(got) - want).max() <= 1e-12
            assert path in got.tag

    def test_path_reports_kernel_degree(self, op2):
        filt = FilterSpec.exponential(0.2)
        bs = lb.spectral_set(op2, filt, [0, 50], r=7)
        assert bs.params["path"] == "chebyshev table r=7 lu"
        assert all("chebyshev table r=7 lu" in f.tag for f in bs)

    @pytest.mark.parametrize("den", [
        [1.0, 2.0],  # non-monic: 1/(1+2s)
        [1.0, 3.0, 3.0, 1.0],  # triple pole: 1/(1+s)^3
    ])
    def test_rational_column_matches_dense_inverse(self, op2, den):
        # phi = 1/q(s) with q(s) = sum den[i] s^i, so K = q(B^-1 L)^-1
        L, B = dense_lb(op2)
        A = np.linalg.solve(B, L)
        Q = sum(c * np.linalg.matrix_power(A, i) for i, c in enumerate(den))
        want = np.linalg.solve(Q, delta(op2.n, 3))
        (got,) = lb.spectral_set(op2, FilterSpec.rational([1.0], den), [3])
        got = lb.field_values(got)
        assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()

    def test_bad_arguments(self, op2):
        with pytest.raises(ValueError):
            lb.spectral_set(op2, FilterSpec.exponential(-1.0), [0])
        with pytest.raises(ValueError):
            lb.spectral_set(op2, FilterSpec.exponential(0.1), [0],
                            method="magic")
        with pytest.raises(IndexError):
            lb.spectral_set(op2, FilterSpec.exponential(0.1), [op2.n])


class TestFilterKernel:
    @pytest.mark.parametrize("op_name, text, method, kind, path", [
        ("op2", "exp:t=0.2", "chebyshev", ChebyshevKernel,
         "chebyshev table r=5 lu"),
        ("op4", "exp:t=0.001", "chebyshev", ChebyshevKernel,
         "chebyshev table r=5 lanczos"),
        ("op2", "rat:num=1;den=1,2,1", "chebyshev", ChebyshevKernel,
         "chebyshev exact-rational lu"),
        ("op2", "exp:t=0.2", "truncated", basis_mod.TruncatedKernel,
         "truncated k=162"),
    ], ids=["table-lu", "table-lanczos", "exact-rational", "truncated"])
    def test_path_of_each_route(self, request, eig162_full, op_name, text,
                                method, kind, path):
        op = request.getfixturevalue(op_name)
        eig = eig162_full if op_name == "op2" else None
        kernel = lb.filter_kernel(op, lb.parse_filter(text), method, eig=eig)
        assert isinstance(kernel, kind)
        assert kernel.path == path

    def test_direct_kernel_path(self, op2):
        pf = lb.partial_fractions(FilterSpec.exponential(0.2))
        assert ChebyshevKernel(op2, pf).path == "chebyshev rational lu"

    def test_no_rational_form_falls_back_to_truncated(self, op2):
        with pytest.warns(UserWarning, match="spectrum"):
            kernel = lb.filter_kernel(op2, lb.parse_filter("poly:k=2"),
                                      method="chebyshev", k=30)
        assert isinstance(kernel, basis_mod.TruncatedKernel)
        assert kernel.path == "truncated k=30"

    def test_unknown_method_rejected(self, op2):
        with pytest.raises(ValueError, match="magic"):
            lb.filter_kernel(op2, FilterSpec.exponential(0.1), "magic")

    def test_truncation_warns_once_per_kernel(self, op2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lb.spectral_set(op2, FilterSpec.exponential(0.1), [0, 5, 9],
                            method="truncated", k=30)
            kernel = lb.filter_kernel(op2, FilterSpec.exponential(0.1),
                                      "truncated", k=30)
            for s in (0, 5, 9):
                kernel.apply(delta(op2.n, s))
        # one for the set and one for the kernel, none per column
        assert ["spectrum" in str(w.message) for w in caught] == [True] * 2

    @pytest.mark.parametrize("text, reduced, factors", [
        ("rat:num=1,1;den=1,3,2", "rat:num=1;den=1,2", 1),  # 1/(1+2s)
        ("rat:num=2,2;den=1,1", "rat:num=2;den=1", 0),  # 2
    ], ids=["one-left", "none-left"])
    def test_cancelled_pole_not_factorised(self, op2, monkeypatch, text,
                                           reduced, factors):
        calls = []
        factor = lb.numerics.shifted_factor

        def counting(*args, **kwargs):
            calls.append(args)
            return factor(*args, **kwargs)

        monkeypatch.setattr(lb.numerics, "shifted_factor", counting)
        kernel = lb.filter_kernel(op2, lb.parse_filter(text))
        assert kernel.route == "lu" and len(calls) == factors
        want = lb.filter_kernel(op2, lb.parse_filter(reduced))
        for s in (0, 50, 100):
            ref = want.apply(delta(op2.n, s))
            got = kernel.apply(delta(op2.n, s))
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("text, method", [
        ("exp:t=0.2", "chebyshev"),
        ("rat:num=1;den=1,2,1", "chebyshev"),
        ("exp:t=0.2", "truncated"),
        ("poly:k=2", "chebyshev"),
    ])
    def test_spectral_set_is_the_kernel_applied(self, op2, eig162_full,
                                                text, method):
        filt = lb.parse_filter(text)
        seeds = [0, 50, 100]
        bs = lb.spectral_set(op2, filt, seeds, method, eig=eig162_full)
        kernel = lb.filter_kernel(op2, filt, method, eig=eig162_full)
        assert bs.params["path"] == kernel.path
        for s, got in zip(seeds, bs):
            want = kernel.apply(delta(op2.n, s))
            assert np.array_equal(lb.field_values(got), want)


class TestKernelStructure:
    def test_b_adjoint_symmetry(self, op2):
        rng = np.random.default_rng(17)
        _, B = dense_lb(op2)
        pf = lb.partial_fractions(FilterSpec.exponential(0.4))
        kern = ChebyshevKernel(op2, pf)
        f = rng.standard_normal(op2.n)
        g = rng.standard_normal(op2.n)
        a = f @ B @ lb.field_values(kern.apply(g))
        b = g @ B @ lb.field_values(kern.apply(f))
        assert abs(a - b) <= 1e-9 * max(abs(a), 1.0)

    def test_full_rank_on_small_mesh(self, op1):
        pf = lb.partial_fractions(FilterSpec.exponential(0.1))
        kern = ChebyshevKernel(op1, pf)
        K = np.column_stack(
            [lb.field_values(kern.apply(delta(op1.n, i))) for i in range(op1.n)]
        )
        sv = np.linalg.svd(K, compute_uv=False)
        assert sv[-1] > 1e-10 * sv[0]


class TestGreen:
    def test_defining_equation(self, op2):
        check_green_defining_equation(op2, 12)

    def test_defining_equation_consistent(self, op2_consistent):
        check_green_defining_equation(op2_consistent, 12)

    def test_b_mean_free(self, op2):
        check_green_b_mean_free(op2, 12)

    def test_b_mean_free_consistent(self, op2_consistent):
        check_green_b_mean_free(op2_consistent, 12)

    def test_seed_at_pinned_vertex(self, op2):
        # the two conditions fix g uniquely on a connected mesh
        check_green_defining_equation(op2, GREEN_PIN)
        check_green_b_mean_free(op2, GREEN_PIN)

    def test_matches_dense_pseudoinverse(self, op2, eig162_full):
        lam, X = eig162_full.values, eig162_full.vectors
        _, B = dense_lb(op2)
        w = X.T @ B @ delta(op2.n, 12)
        want = X[:, 1:] @ (w[1:] / lam[1:])
        got = lb.field_values(lb.green_basis(op2, [12])[0])
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    def test_general_role_uses_filter(self, op2, eig162_full):
        # a rational filter through spectral_set matches the full expansion
        spec = FilterSpec.rational([1.0], [1.0, 1.0])
        a = lb.field_values(lb.spectral_set(op2, spec, [5])[0])
        b = lb.field_values(
            lb.truncated_spectral(eig162_full, spec, delta(op2.n, 5))
        )
        assert np.abs(a - b).max() <= 1e-8 * np.abs(b).max()

    def test_mean_value_rejected(self, sphere2):
        op = lb.assemble(sphere2, scheme="mean_value")
        with pytest.raises(SchemeNotSymmetric):
            lb.green_basis(op, [0])

    def test_disconnected_rejected(self, two_spheres):
        op = lb.assemble(two_spheres)
        with pytest.raises(DisconnectedMesh):
            lb.green_basis(op, [0])

    # one case; the parameter names keep the test id stable
    @pytest.mark.parametrize("role, kwargs", [("harmonic", {})])
    def test_basis_matches_columns(self, op2, role, kwargs):
        bs = lb.green_basis(op2, [5, 12, 40], **kwargs)
        assert bs.family == "green" and bs.params == {}
        assert bs.seeds == [5, 12, 40]
        for s, f in zip(bs.seeds, bs):
            col = lb.green_basis(op2, [s], **kwargs)[0]
            assert role in f.tag
            assert f.tag == col.tag
            assert np.array_equal(lb.field_values(f), lb.field_values(col))

    def test_basis_duplicate_seeds_rejected(self, op2):
        with pytest.raises(DuplicateSeeds):
            lb.green_basis(op2, [3, 3])


ELIMINATION_FAMILIES = {
    "harmonic": lb.harmonic_basis,
    "hamiltonian": lambda op, seeds: lb.hamiltonian_basis(
        op, np.ones(op.n), 2.0, seeds),
    "green": lb.green_basis,
}


class TestEliminationSolve:
    SEEDS = [0, 5, 12, 40, 77, 100, 131, 161]

    @pytest.mark.parametrize("family", sorted(ELIMINATION_FAMILIES))
    def test_one_factorisation_per_seed_set(self, op2, family, monkeypatch):
        calls = []
        splu = basis_mod.spla.splu

        def counting(*args, **kwargs):
            calls.append(args)
            return splu(*args, **kwargs)

        monkeypatch.setattr(basis_mod.spla, "splu", counting)
        bs = ELIMINATION_FAMILIES[family](op2, self.SEEDS)
        assert len(bs) == len(self.SEEDS)
        assert len(calls) == 1

    @pytest.mark.parametrize("family", sorted(ELIMINATION_FAMILIES))
    def test_fields_own_contiguous_columns(self, op2, family):
        for f in ELIMINATION_FAMILIES[family](op2, self.SEEDS):
            assert f.values.flags.c_contiguous and f.values.flags.owndata


class TestBasisSet:
    def test_mismatched_lengths_rejected(self):
        f1 = lb.ScalarField(np.zeros(5))
        f2 = lb.ScalarField(np.zeros(6))
        with pytest.raises(ValueError):
            lb.BasisSet([f1, f2], "custom")

    def test_matrix_stacks_columns(self):
        f1 = lb.ScalarField(np.arange(4.0))
        f2 = lb.ScalarField(np.ones(4))
        M = lb.BasisSet([f1, f2], "custom").matrix()
        assert M.shape == (4, 2)
        assert np.allclose(M[:, 0], np.arange(4.0))
