"""Basis families: harmonic, Hamiltonian, eigen, filtered, diffusion, Green."""

import re
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply
from scipy.special import eval_legendre, ive

import lapbasis as lb
from lapbasis import basis as basis_mod
from lapbasis import numerics
from lapbasis.basis import GREEN_PIN, ChebyshevKernel, HeatKernel
from lapbasis.errors import (
    DisconnectedMesh,
    DuplicateSeeds,
    NotConverged,
    SchemeNotSymmetric,
    SingularSystem,
)
from lapbasis.filters import FilterSpec

from conftest import merge_meshes


EPS = np.finfo(float).eps


def dense_lb(op):
    return op.L.toarray(), op.B.toarray()


def dense_eig(op):
    """(d, lam, W) for a lumped mass: d = diag(B)^{-1/2} and every
    eigenpair of B^{-1/2} L B^{-1/2} (dense eigh), lam clipped at 0."""
    d = 1.0 / np.sqrt(op.B.diagonal())
    lam, W = np.linalg.eigh(d[:, None] * op.L.toarray() * d)
    return d, np.clip(lam, 0.0, None), W


def dense_filtered(eig, phi, F):
    """phi(B^{-1} L) F from eig = dense_eig(op); phi maps the eigenvalues
    to the filter's values, and F holds one input per column."""
    d, lam, W = eig
    return d[:, None] * (W @ (phi(lam)[:, None] * (W.T @ (F / d[:, None]))))


def delta(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


def exp_table(op, t, r=5):
    """The degree-r exp table on the LU route, built directly: on a
    symmetric lumped operator filter_kernel takes cheb-exp instead."""
    pf = lb.partial_fractions(FilterSpec.exponential(t), r)
    return ChebyshevKernel(op, pf, f"table r={pf.degree}")


def counting_factor(monkeypatch):
    """Record the shift of every numerics.shifted_factor call."""
    calls = []
    original = lb.numerics.shifted_factor

    def counting(B, L, beta):
        calls.append(beta)
        return original(B, L, beta)

    monkeypatch.setattr(lb.numerics, "shifted_factor", counting)
    return calls


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
        with pytest.raises(IndexError, match=re.escape(
                f"seed index {op2.n} out of range for n={op2.n}")):
            lb.harmonic_basis(op2, [0, op2.n])
        with pytest.raises(IndexError, match=re.escape(
                f"seed index -1 out of range for n={op2.n}")):
            lb.harmonic_basis(op2, [-1, op2.n])

    @pytest.mark.parametrize("seeds", [[], [[1, 2]]], ids=["empty", "2-d"])
    def test_seed_list_not_a_nonempty_vector(self, op2, seeds):
        with pytest.raises(ValueError, match="nonempty 1-D index list"):
            lb.harmonic_basis(op2, seeds)

    @pytest.mark.parametrize("seeds", [[2.7, 40.2], [True, 3],
                                       np.array([2.7, 40.2]),
                                       np.array([False, True])],
                             ids=["float", "bool", "float-array",
                                  "bool-array"])
    @pytest.mark.parametrize("build", [
        lb.harmonic_basis,
        lb.green_basis,
        lambda op, seeds: lb.spectral_set(op, FilterSpec.exponential(0.1),
                                          seeds),
    ], ids=["harmonic", "green", "spectral"])
    def test_non_integer_seeds_rejected(self, op2, build, seeds):
        # a float seed was once truncated and True read as vertex 1
        with pytest.raises(TypeError, match="must be integers"):
            build(op2, seeds)

    @pytest.mark.parametrize("seeds", [[2, 40], np.array([2, 40]),
                                       [np.int64(2), 40]],
                             ids=["list", "array", "numpy-int"])
    def test_integer_seeds_accepted(self, op2, seeds):
        assert lb.harmonic_basis(op2, seeds).seeds == [2, 40]

    def test_all_rows_constrained(self, op3):
        # every seed row of every basis function carries its Lagrange value
        seeds = [10, 20, 30]
        F = lb.harmonic_basis(op3, seeds).matrix()
        want = np.eye(3)
        assert np.allclose(F[seeds], want, atol=1e-12)


class TestSeedlessComponent:
    """Two disjoint icosphere(2)s with seeds on the first one only."""

    @pytest.fixture(scope="class")
    def spheres(self, sphere2):
        return merge_meshes(sphere2, sphere2)

    @pytest.mark.parametrize("mass", ["lumped", "consistent"])
    @pytest.mark.parametrize("make", [
        lb.harmonic_basis,
        lambda op, seeds: lb.hamiltonian_basis(op, np.ones(op.n), 0.0, seeds),
    ], ids=["harmonic", "hamiltonian-mu0"])
    def test_singular_system_names_the_component(self, spheres, mass, make):
        op = lb.assemble(spheres, mass_mode=mass)
        with pytest.raises(SingularSystem, match="vertex 162"):
            make(op, [0, 40, 99])

    def test_screened_operator_returns_zero_columns(self, spheres):
        op = lb.assemble(spheres)
        F = lb.hamiltonian_basis(op, np.ones(op.n), 2.0, [0, 40, 99]).matrix()
        assert np.array_equal(F[162:], np.zeros((162, 3)))
        assert np.allclose(F[[0, 40, 99]], np.eye(3), atol=1e-12)

    def test_seeds_on_every_component_accepted(self, spheres):
        F = lb.harmonic_basis(lb.assemble(spheres), [0, 200]).matrix()
        assert np.abs(F.sum(axis=1) - 1.0).max() <= 1e-8


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
            lb.truncated_spectral(eig162_full, FilterSpec.polyharmonic(1), f)
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


    @pytest.mark.parametrize("filt", [FilterSpec.exponential(0.3),
                                      FilterSpec.polyharmonic(1)],
                             ids=["exp", "commute-deflated"])
    def test_kernel_columns_do_not_depend_on_their_block(
            self, eig20_642, op3, monkeypatch, filt):
        # X, B X and phi are built once per kernel, and each column of a
        # block has the bits of a one-column apply and of
        # truncated_spectral
        real, calls = basis_mod._truncated_terms, []
        monkeypatch.setattr(basis_mod, "_truncated_terms",
                            lambda *a: calls.append(a) or real(*a))
        kernel = basis_mod.TruncatedKernel(eig20_642, filt)
        rng = np.random.default_rng(21)
        F = np.c_[delta(op3.n, 7), rng.standard_normal((op3.n, 3)),
                  delta(op3.n, 300)]
        G = kernel.apply(F)
        assert len(calls) == 1
        for j in range(F.shape[1]):
            assert np.array_equal(G[:, j], kernel.apply(F[:, j]))
            assert np.array_equal(G[:, j], kernel.apply(F[:, j::-1])[:, 0])
            assert np.array_equal(G[:, j], lb.field_values(
                lb.truncated_spectral(eig20_642, filt, F[:, j])))


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

    def test_table_agrees_with_full_spectrum_r10(self):
        # acceptance criterion 2 on the r = 5 table itself: the lumped
        # operator there now takes cheb-exp
        op = lb.assemble(lb.icosphere(3, radius=10.0))
        eig = lb.eigen_basis(op, op.n)
        for t in (0.1, 1.0):
            full = lb.field_values(lb.truncated_spectral(
                eig, FilterSpec.exponential(t), delta(op.n, 0)))
            table = exp_table(op, t).apply(delta(op.n, 0))
            assert np.abs(table - full).max() <= 1e-4 * full.max()

    def test_table_gibbs_contrast(self, op4, eig100_2562):
        # acceptance criterion 3 on the r = 5 table itself
        t = 1e-2
        trunc = lb.field_values(lb.truncated_spectral(
            eig100_2562, FilterSpec.exponential(t), delta(op4.n, 0)))
        table = exp_table(op4, t).apply(delta(op4.n, 0))
        assert trunc.min() < table.min()
        assert table.min() >= -1e-4 * table.max()

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
        (want,) = dense_filtered(dense_eig(op3), partial(lb.evaluate, spec),
                                 f[:, None]).T
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
    """Every partial fraction takes the LU route: one factorisation per
    pole, reused by every apply.  That includes small poles (exp at small
    t, rat filters with |beta| below about 0.005), which a
    factorisation-free shifted-Lanczos route once served."""

    @pytest.fixture(scope="class")
    def dense4(self, op4):
        return dense_eig(op4)

    @pytest.mark.parametrize("text", [
        "exp:t=0.001",  # the r = 5 table
        "rat:num=1;den=1,2e-4,1e-8",  # double pole: 1/(1 + 1e-4 s)^2
    ])
    def test_small_poles_match_dense(self, op4, dense4, text):
        pf = lb.partial_fractions(lb.parse_filter(text))
        kern = ChebyshevKernel(op4, pf)
        assert kern.route == "lu"
        F = np.column_stack([delta(op4.n, s) for s in (0, 1000, 2561)]
                            + [np.random.default_rng(31).standard_normal(op4.n)])
        # against the partial fraction itself: the solves alone
        for f, want in zip(F.T, dense_filtered(dense4, pf, F).T):
            got = kern.apply(f)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_repeated_complex_pole_matches_dense(self, op4, dense4):
        spec = FilterSpec.rational([1.0], [1.0, 0.0, 2e-6, 0.0, 1e-12])
        kern = ChebyshevKernel(op4, lb.rational_partial_fractions(spec))
        assert kern.route == "lu"  # 1/(1 + 1e-6 s^2)^2
        F = np.column_stack([delta(op4.n, 1000),
                             np.random.default_rng(32).standard_normal(op4.n)])
        phi = partial(lb.evaluate, spec)
        for f, want in zip(F.T, dense_filtered(dense4, phi, F).T):
            got = kern.apply(f)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("case", [
        "large_t", "small_t", "small_pole", "consistent", "mean_value",
        "pole_on_spectrum"])
    def test_lu_kept(self, sphere4, op4, case, monkeypatch):
        text, op = "exp:t=0.04", op4
        if case == "small_t":
            text = "exp:t=0.001"
        elif case == "small_pole":
            text = "rat:num=1;den=1,2e-4,1e-8"
        elif case == "consistent":
            text, op = "exp:t=0.001", lb.assemble(sphere4, mass_mode="consistent")
        elif case == "mean_value":
            text, op = "exp:t=0.001", lb.assemble(sphere4, scheme="mean_value")
        elif case == "pole_on_spectrum":
            text = "rat:num=1;den=1,-1e-3"  # 1 + beta s = 0 at s = 1000
            assert 1000 < lb.numerics.pencil_bound(op.L, op.B)
        calls = counting_factor(monkeypatch)
        pf = lb.partial_fractions(lb.parse_filter(text))
        kern = ChebyshevKernel(op, pf)
        assert kern.route == "lu"
        assert calls == [beta for beta, _ in pf.poles]

    def test_constant_input_exact(self, op4):
        pf = lb.partial_fractions(FilterSpec.exponential(0.001))
        kern = ChebyshevKernel(op4, pf)
        f = np.full(op4.n, 3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = kern.apply(f)
        assert kern.route == "lu"
        assert not hasattr(kern, "degree") and kern.error_bound is None
        # K f = p_r(0) f to the solves' rounding: 11.3 eps on this mesh
        assert np.abs(g - pf(0.0) * f).max() <= 32 * np.finfo(float).eps * 3.0

    def test_expm_multiply_cross_check_n10242(self):
        op = lb.assemble(lb.icosphere(5))
        t, seeds = 1e-3, [0, 5000, 10241]
        kern = exp_table(op, t)
        assert kern.path == "chebyshev table r=5 lu"
        A = -t * (sp.diags(1.0 / op.B.diagonal()) @ op.L)
        E = np.zeros((op.n, len(seeds)))
        E[seeds, np.arange(len(seeds))] = 1.0
        want = expm_multiply(A.tocsr(), E)
        got = np.column_stack([kern.apply(e) for e in E.T])
        # the r = 5 table's error at this n t (3.5e-5 measured); the
        # LU solves add at most 1e-10
        err = np.abs(got - want).max(axis=0) / np.abs(want).max(axis=0)
        assert err.max() <= 1e-4


class TestLanczosExp:
    """The default heat route, cheb-exp (the class keeps the name of the
    Lanczos route it replaced): exp(-t B^{-1} L) e_s as a Chebyshev
    expansion whose degree K is fixed by the tail of its Bessel
    coefficients."""

    @pytest.fixture(scope="class")
    def bumpy4(self):
        return lb.assemble(lb.bumpy_sphere(4, seed=1))

    @pytest.fixture(scope="class")
    def bumpy5(self):
        mesh = lb.bumpy_sphere(5, seed=1)
        return mesh, lb.assemble(mesh)

    def check_expm_multiply(self, op, t):
        kernel = lb.filter_kernel(op, FilterSpec.exponential(t))
        assert kernel.route == "cheb-exp"
        assert kernel.path == f"chebyshev deg={kernel.degree} cheb-exp"
        # cli.main reads k=... and r=... path words as options a run read
        assert not any(w.startswith(("k=", "r=")) for w in kernel.path.split())
        seeds = [0, 1000, op.n - 1]
        A = -t * (sp.diags(1.0 / op.B.diagonal()) @ op.L)
        E = np.zeros((op.n, len(seeds)))
        E[seeds, np.arange(len(seeds))] = 1.0
        want = expm_multiply(A.tocsr(), E)
        for f, ref in zip(E.T, want.T):
            got = kernel.apply(f)
            # 2.1e-16, 4.8e-15 and 2.0e-14 measured at the three t
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        return kernel

    @pytest.mark.parametrize("t", [1e-3, 0.04])
    def test_guard_quiet_and_accurate(self, bumpy4, t):
        kernel = self.check_expm_multiply(bumpy4, t)
        assert kernel.degree == {1e-3: 14, 0.04: 56}[t]

    def test_guard_quiet_at_large_t(self, bumpy4):
        assert self.check_expm_multiply(bumpy4, 0.25).degree == 135

    def test_step_count_is_the_smallest_meeting_the_bound(self, bumpy4):
        # K is the smallest degree whose coefficient tail, from scipy's
        # scaled Bessel functions, is at most eps sqrt(min B / max B)
        t = 0.04
        kernel = lb.filter_kernel(bumpy4, FilterSpec.exponential(t))
        z = 0.5 * t * numerics.pencil_bound(bumpy4.L, bumpy4.B)
        d = bumpy4.B.diagonal()
        tol = EPS * np.sqrt(d.min() / d.max())
        c = 2.0 * ive(np.arange(400), z)
        tail = np.cumsum(c[::-1])[::-1]  # tail[k] = sum_{j >= k} |c_j|
        K = kernel.degree
        assert tail[K + 1] <= tol < tail[K]
        assert kernel.error_bound == pytest.approx(tail[K + 1], rel=1e-10)

    def test_guard_raises_when_spectrum_leaves_interval(self, op3,
                                                         monkeypatch):
        # an interval [0, lambda-hat / 10] leaves most of the spectrum
        # outside, where the Chebyshev polynomials grow: the result is
        # no B-norm contraction
        bound = numerics.pencil_bound
        monkeypatch.setattr(numerics, "pencil_bound",
                            lambda L, B: 0.1 * bound(L, B))
        kernel = lb.filter_kernel(op3, FilterSpec.exponential(0.04))
        with pytest.raises(NotConverged, match=f"degree {kernel.degree}"):
            kernel.apply(delta(op3.n, 0))

    def test_huge_t_raises(self, op2, monkeypatch):
        # t lambda-hat ~ 1e302 needs a degree beyond MAX_DEGREE: refused
        # from the coefficient estimate, before the operator is built or
        # any loop over the degree runs
        monkeypatch.setattr(numerics, "scaled_operator", None)
        with pytest.raises(NotConverged, match=r"t=1e\+300.*MAX_DEGREE = "
                           f"{numerics.MAX_DEGREE}"):
            lb.filter_kernel(op2, FilterSpec.exponential(1e300))

    def test_large_t_matches_dense(self, op2):
        # t = 1e3 needs K = 2009 on this mesh.  The dense functional
        # calculus is the reference: expm_multiply takes seconds at this t
        t = 1e3
        kernel = lb.filter_kernel(op2, FilterSpec.exponential(t))
        assert kernel.degree > 10 * op2.n
        E = np.eye(op2.n)[:, [0, 100]]
        want = dense_filtered(dense_eig(op2), lambda lam: np.exp(-t * lam), E)
        for f, ref in zip(E.T, want.T):
            got = kernel.apply(f)
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_guard_quiet_on_a_constant_at_large_t(self, sphere2):
        # K = 2009: the recurrence rounds a constant by more than K eps in
        # B-norm on this mesh scaled by 1e4, which the K^2 eps slack allows
        op = lb.assemble(lb.TriangleMesh(sphere2.vertices * 1e4,
                                         sphere2.triangles))
        kernel = lb.filter_kernel(op, FilterSpec.exponential(1e11))
        assert kernel.degree == 2009
        f = np.ones(op.n)
        g = kernel.apply(f)
        assert np.abs(g - f).max() <= kernel.degree ** 2 * EPS

    def test_constant_input_exact(self, op4):
        # exp(-t A) fixes the constants, up to the recurrence's rounding
        # (2.7, 8.7 and 24 eps measured at K = 14, 56 and 135)
        f = np.full(op4.n, 3.0)
        for t in (1e-3, 0.04, 0.25):
            kernel = lb.filter_kernel(op4, FilterSpec.exponential(t))
            g = kernel.apply(f)
            assert np.abs(g - f).max() <= kernel.degree * EPS * 3.0

    def test_factorises_nothing(self, op3, monkeypatch):
        calls = counting_factor(monkeypatch)
        monkeypatch.setattr(numerics.spla, "splu", None)
        bs = lb.spectral_set(op3, FilterSpec.exponential(0.04), [0, 5, 9])
        assert bs.params["path"].endswith(" cheb-exp") and calls == []

    def test_memory_is_a_few_vectors(self, bumpy5):
        # n = 10242, t = 0.1, K = 170: the kernel keeps A_2 and K + 1
        # coefficients (13.6 n-vectors measured), and an apply holds a
        # few n-vectors at a time (4.0 measured)
        _, op = bumpy5
        vector = 8 * op.n
        tracemalloc.start()
        try:
            kernel = lb.filter_kernel(op, FilterSpec.exponential(0.1))
            held = tracemalloc.get_traced_memory()[0]
            f = delta(op.n, 0)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            g = kernel.apply(f)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert kernel.degree > 100
        # A_2 has 7 nonzeros per row; a (K, n) basis would be K vectors
        assert held < 16 * vector
        assert peak < 8 * vector
        assert np.isfinite(g).all()

    @pytest.mark.parametrize("make, t", [
        (partial(lb.bumpy_sphere, 4, seed=1), 0.04),
        (partial(lb.bumpy_sphere, 4, seed=1), 0.25),
        (partial(lb.icosphere, 3), 0.04),
    ], ids=["bumpy4-0.04", "bumpy4-0.25", "sphere3-0.04"])
    def test_block_columns_equal_single_applies(self, make, t):
        # a block apply gives each column the bits of a one-column apply,
        # whatever seeds share its block: 64 FPS seeds in four 16-wide
        # blocks, and a reversed 5-seed subset across two of them
        mesh = make()
        op = lb.assemble(mesh)
        filt = FilterSpec.exponential(t)
        seeds = list(lb.farthest_point_sampling(mesh, 64, op=op))
        kernel = lb.filter_kernel(op, filt)
        one = np.column_stack([kernel.apply(delta(op.n, s)) for s in seeds])
        full = lb.spectral_set(op, filt, seeds).matrix()
        part = lb.spectral_set(op, filt, seeds[14:19][::-1]).matrix()
        assert full.tobytes() == one.tobytes()
        assert part.tobytes() == one[:, 14:19][:, ::-1].copy().tobytes()

    @pytest.mark.parametrize("m, widths", [
        (1, [None]),  # None: a vector, one column at a time
        (2, [None, None]),
        (3, [3]),
        (16, [16]),
        (17, [9, 8]),
        (64, [16, 16, 16, 16]),
    ])
    def test_seeds_applied_in_near_equal_blocks(self, op3, monkeypatch, m,
                                                widths):
        # the route splits a block of any width into the chunks its
        # recurrence runs at, whether the block comes whole or from
        # spectral_set
        shapes = []
        run = numerics._chebyshev_sum

        def spy(A2, c, v):
            shapes.append(v.shape[1] if v.ndim == 2 else None)
            return run(A2, c, v)

        monkeypatch.setattr(numerics, "_chebyshev_sum", spy)
        filt = FilterSpec.exponential(0.04)
        E = np.eye(op3.n)[:, :m]
        G = lb.filter_kernel(op3, filt).apply(E)
        assert shapes == widths
        del shapes[:]
        bs = lb.spectral_set(op3, filt, range(m))
        assert shapes == widths
        assert bs.seeds == list(range(m))
        assert all(f.values.flags.c_contiguous for f in bs)
        assert G.tobytes() == bs.matrix().tobytes()

    def test_guard_names_the_failing_column(self, op3, monkeypatch):
        # on [0, lambda-hat / 10] a constant keeps its norm (its eigenvalue
        # 0 is inside) and a unit column grows: column 1 fails first
        bound = numerics.pencil_bound
        monkeypatch.setattr(numerics, "pencil_bound",
                            lambda L, B: 0.1 * bound(L, B))
        kernel = lb.filter_kernel(op3, FilterSpec.exponential(0.04))
        F = np.zeros((op3.n, 3))
        F[:, 0] = 1.0
        F[7, 1] = F[9, 2] = 1.0
        with pytest.raises(NotConverged,
                           match=f"degree {kernel.degree}: column 1: "):
            kernel.apply(F)

    def test_guard_names_a_column_past_the_first_chunk(self, op3,
                                                       monkeypatch):
        # a 20-column block runs as two 10-wide chunks; the first failing
        # column, 17, is named by its index in the block, not the chunk
        bound = numerics.pencil_bound
        monkeypatch.setattr(numerics, "pencil_bound",
                            lambda L, B: 0.1 * bound(L, B))
        kernel = lb.filter_kernel(op3, FilterSpec.exponential(0.04))
        F = np.ones((op3.n, 20))
        F[:, 17:] = np.eye(op3.n)[:, 7:10]
        with pytest.raises(NotConverged,
                           match=f"degree {kernel.degree}: column 17: "):
            kernel.apply(F)

    def test_spectral_set_memory_is_the_fields_and_a_block(self, bumpy5):
        # n = 10242, 64 seeds: the 64 fields, the kernel (about 14
        # n-vectors) and one block apply (4 n-vectors per column) peak
        # together at 141.8 n-vectors measured; holding the (n, m)
        # result as well would pass the bound
        mesh, op = bumpy5
        seeds = list(lb.farthest_point_sampling(mesh, 64, op=op))
        tracemalloc.start()
        try:
            bs = lb.spectral_set(op, FilterSpec.exponential(0.01), seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(bs) == 64
        assert peak < (64 + 7 * numerics.APPLY_BLOCK) * 8 * op.n

    @pytest.mark.parametrize("case, path", [
        ("consistent", "chebyshev table r=5 lu"),
        ("mean_value", "chebyshev table r=5 lu"),
        ("explicit r", "chebyshev table r=7 lu"),
    ])
    def test_table_kept(self, sphere2, op2_consistent, case, path):
        op, r = op2_consistent, None
        if case == "mean_value":
            op = lb.assemble(sphere2, scheme="mean_value")
        elif case == "explicit r":
            r = 7
        kernel = lb.filter_kernel(op, FilterSpec.exponential(0.04), r=r)
        assert kernel.path == path
        # built directly, the route refuses such an operator
        with pytest.raises(ValueError, match="lumped mass"):
            HeatKernel(op, 0.04)

    def test_lumped_operator_ignores_r(self, op2):
        # r is the table's degree, and the table is not the route here
        for r in (None, *range(3, 15)):
            kernel = lb.filter_kernel(op2, FilterSpec.exponential(0.04), r=r)
            assert kernel.path == f"chebyshev deg={kernel.degree} cheb-exp"

    def test_sphere_heat_kernel_closed_form(self):
        # on the unit sphere k_t(x, y) = sum_l (2l + 1) / (4 pi)
        # P_l(cos theta) exp(-l (l + 1) t); the column over its seed's mass
        # approximates k_t(., seed), to discretisation error (1/h^2 rate)
        t, lmax = 0.05, 60
        errs = []
        for level in (4, 5):
            mesh = lb.icosphere(level)
            op = lb.assemble(mesh)
            (col,) = lb.spectral_set(op, FilterSpec.exponential(t), [0])
            got = lb.field_values(col) / op.B.diagonal()[0]
            cos = np.clip(mesh.vertices @ mesh.vertices[0], -1.0, 1.0)
            want = sum((2 * l + 1) / (4 * np.pi) * eval_legendre(l, cos)
                       * np.exp(-l * (l + 1) * t) for l in range(lmax + 1))
            errs.append(np.abs(got - want).max() / np.abs(want).max())
        assert errs[1] < 2e-3
        assert errs[0] >= 3 * errs[1]


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
        seed = 33
        t = 0.3
        filt = FilterSpec.exponential(t)
        cheb = lb.field_values(lb.spectral_set(op2, filt, [seed])[0])
        trunc = lb.field_values(
            lb.spectral_set(
                op2, filt, [seed], method="truncated", k=op2.n, eig=eig162_full
            )[0]
        )
        # unit delta input: the cheb-exp truncation is below eps, so
        # rounding alone separates the routes (6.2e-17 measured)
        assert np.abs(cheb - trunc).max() <= 1e-15

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
    def test_spectral_set_matches_per_seed(self, op2, op2_consistent,
                                           eig162_full, text, method, path):
        filt = lb.parse_filter(text)
        seeds = [0, 50, 100]
        # exp takes the table only where the mass is not lumped
        op = op2_consistent if "table" in path else op2
        bs = lb.spectral_set(op, filt, seeds, method=method, r=5,
                             eig=eig162_full)
        if method == "chebyshev":
            path += " lu"  # every partial fraction takes LU
        assert bs.params["path"] == path
        assert bs.seeds == seeds
        for s, got in zip(seeds, bs):
            if method == "chebyshev":
                kern = ChebyshevKernel(op, lb.partial_fractions(filt))
                want = kern.apply(delta(op.n, s))
            else:
                want = lb.truncated_spectral(eig162_full, filt, delta(op2.n, s))
            want = lb.field_values(want)
            assert np.abs(lb.field_values(got) - want).max() <= 1e-12
            assert path in got.tag

    def test_path_reports_kernel_degree(self, op2_consistent):
        filt = FilterSpec.exponential(0.2)
        bs = lb.spectral_set(op2_consistent, filt, [0, 50], r=7)
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
        with pytest.raises(IndexError, match=re.escape(
                f"seed index {op2.n} out of range for n={op2.n}")):
            lb.spectral_set(op2, FilterSpec.exponential(0.1), [op2.n])


class TestFilterKernel:
    @pytest.mark.parametrize("mass, text, method, kind, path", [
        ("consistent", "exp:t=0.2", "chebyshev", ChebyshevKernel,
         "chebyshev table r=5 lu"),
        ("lumped", "rat:num=1;den=1,2,1", "chebyshev", ChebyshevKernel,
         "chebyshev exact-rational lu"),
        ("lumped", "exp:t=0.2", "chebyshev", HeatKernel,
         "chebyshev deg=33 cheb-exp"),
        ("lumped", "exp:t=0.2", "truncated", basis_mod.TruncatedKernel,
         "truncated k=162"),
    ], ids=["table-lu", "exact-rational", "cheb-exp", "truncated"])
    def test_path_of_each_route(self, op2, op2_consistent, eig162_full, mass,
                                text, method, kind, path):
        op = op2_consistent if mass == "consistent" else op2
        kernel = lb.filter_kernel(op, lb.parse_filter(text), method, r=5,
                                  eig=eig162_full)
        # type, not isinstance: a HeatKernel is a ChebyshevKernel
        assert type(kernel) is kind
        assert kernel.path == path

    def test_heat_kernel_inherits_the_one_apply(self):
        # perfbench's basis.apply span wraps ChebyshevKernel.apply alone, so
        # a heat apply must pass through that method to be counted
        assert issubclass(HeatKernel, ChebyshevKernel)
        assert "apply" not in vars(HeatKernel)

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

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_rejected_before_the_warning(self, op2, k):
        # the range error comes first; the suite turns a warning into an
        # error, so a warning would fail this match
        with pytest.raises(ValueError, match=re.escape(
                f"k={k} out of range for n={op2.n}")):
            lb.filter_kernel(op2, FilterSpec.mexican_hat(), "truncated", k=k)

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
        splu = numerics.spla.splu

        def counting(*args, **kwargs):
            calls.append(args)
            return splu(*args, **kwargs)

        monkeypatch.setattr(numerics.spla, "splu", counting)
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
