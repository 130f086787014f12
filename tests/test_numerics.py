"""Sparse solvers and the shift-invert eigensolver against dense oracles."""

import ast
import pathlib
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse import _sparsetools
from scipy.special import ive

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
    SHIFTED_RTOL,
    component_nullspace,
    count_below,
    factor,
    shifted_factor,
    smallest_eigenpairs,
)

from conftest import merge_meshes


def dense_lb(op):
    return op.L.toarray(), op.B.toarray()


class TestSolverErrors:
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


class TestFactor:
    def test_block_columns_meet_residual(self, op2):
        rng = np.random.default_rng(6)
        M = op2.B + 0.7 * op2.L
        rhs = rng.standard_normal((op2.n, 5)) * [1.0, 1e-8, 1e8, 3.0, 1e-3]
        _, solve = factor(M)
        X = solve(rhs)
        assert X.shape == rhs.shape
        for j in range(rhs.shape[1]):
            r = rhs[:, j] - M @ X[:, j]
            assert np.linalg.norm(r) <= SHIFTED_RTOL * np.linalg.norm(rhs[:, j])

    def test_zero_column_gives_zeros(self, op2):
        rng = np.random.default_rng(7)
        rhs = np.zeros((op2.n, 3))
        rhs[:, 1] = rng.standard_normal(op2.n)
        # negative pivots would turn a raw zero solve into -0.0
        _, solve = factor(-(op2.B + op2.L))
        X = solve(rhs)
        assert X[:, 1].any()
        for j in (0, 2):
            assert np.array_equal(X[:, j], np.zeros(op2.n))
            assert not np.signbit(X[:, j]).any()
        assert np.array_equal(solve(np.zeros(op2.n)), np.zeros(op2.n))

    @pytest.mark.parametrize("m", [None, 2], ids=["vector", "block"])
    def test_unreachable_residual_raises(self, op2, monkeypatch, m):
        monkeypatch.setattr(numerics, "SHIFTED_RTOL", 0.0)
        _, solve = factor(op2.B + op2.L)
        shape = (op2.n,) if m is None else (op2.n, m)
        with pytest.raises(NotConverged, match="residual"):
            solve(np.random.default_rng(8).standard_normal(shape))

    def test_singular_matrix_raises(self):
        with pytest.raises(FactorizationFailed):
            factor(sp.csc_matrix((3, 3)))

    @pytest.mark.parametrize("beta", [0.3, 0.3 + 0.2j])
    def test_shifted_vector_solve_is_the_raw_lu(self, op2, beta):
        # with no refinement step, shifted_factor returns splu's own bits
        rng = np.random.default_rng(9)
        rhs = op2.B @ rng.standard_normal(op2.n)
        dtype = complex if np.iscomplexobj(beta) else float
        M = (op2.B + beta * op2.L).astype(dtype).tocsc()
        raw = numerics.spla.splu(M).solve(rhs.astype(dtype))
        assert (np.linalg.norm(rhs - M @ raw)
                <= SHIFTED_RTOL * np.linalg.norm(rhs))
        g = shifted_factor(op2.B, op2.L, beta)(rhs)
        assert g.dtype == dtype
        assert np.array_equal(g, raw)

    def test_splu_called_in_numerics_only(self):
        # numerics.factor is the one sparse LU: the solves of every module,
        # the eigensolver's shift LU and count_below's certificate LUs
        src = pathlib.Path(numerics.__file__).parent
        users = set()
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            owner = {}  # node -> name of the outermost def around it
            for fn in ast.walk(tree):
                if isinstance(fn, ast.FunctionDef):
                    for node in ast.walk(fn):
                        owner.setdefault(node, fn.name)
            for node in ast.walk(tree):
                if "splu" in (getattr(node, "attr", None),
                              getattr(node, "id", None),
                              getattr(node, "name", None)):
                    users.add((path.name, owner.get(node, "<module>")))
        assert users == {("numerics.py", "factor")}

    def test_ordering_solves_m_itself(self, op3):
        # an LU in a given ordering factors the pre-permuted matrix; its
        # solve maps in and out of that order
        rng = np.random.default_rng(10)
        M = op3.B + 0.7 * op3.L
        rhs = rng.standard_normal((op3.n, 3))
        for diagonal in (False, True):
            X = factor(M, shift_ordering(op3), diagonal)[1](rhs)
            for j in range(rhs.shape[1]):
                r = rhs[:, j] - M @ X[:, j]
                assert (np.linalg.norm(r)
                        <= SHIFTED_RTOL * np.linalg.norm(rhs[:, j]))

    def test_no_unit_length_floor(self):
        # a tolerance multiplies a scale the code holds: no max(x, 1.0) or
        # max(1.0, x) treats every mesh as one unit across (an int 1, as
        # in an array length, is not a tolerance)
        src = pathlib.Path(numerics.__file__).parent
        floors = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "max"
                        and any(isinstance(a, ast.Constant)
                                and isinstance(a.value, float)
                                and a.value == 1.0 for a in node.args)):
                    floors.append((path.name, node.lineno))
        assert floors == []
        assert not hasattr(lb.basis, "KERNEL_REL_TOL")


class TestBesselCoefficients:
    """The heat expansion's coefficients c_k = (2 - delta_k0) (-1)^k
    e^{-z} I_k(z) from Miller's recurrence, against scipy's scaled Bessel
    functions (scipy.special is imported by this test alone)."""

    TOL = 1e-16

    @pytest.mark.parametrize("z", [1e-8, 1e-3, 1.0, 41.7, 1e3, 5e4])
    def test_match_ive(self, z):
        c, tail = numerics.bessel_coefficients(z, self.TOL)
        k = np.arange(len(c))
        want = np.where(k == 0, 1.0, 2.0) * (-1.0) ** k * ive(k, z)
        # 4.0e-13 measured at z = 5e4, at most 5.3e-14 elsewhere
        assert (np.abs(c - want) <= 1e-12 * np.abs(want)).all()

    @pytest.mark.parametrize("z", [1e-8, 1e-3, 1.0, 41.7, 1e3, 5e4])
    def test_degree_is_the_smallest_meeting_the_tail(self, z):
        c, tail = numerics.bessel_coefficients(z, self.TOL)
        K = len(c) - 1
        # sum_{k > K} |c_k|, with k far enough that ive underflows
        far = 2.0 * ive(np.arange(K + 1, 3 * K + 100), z).sum()
        assert far <= self.TOL < far + 2.0 * ive(K, z)
        assert tail == pytest.approx(far, rel=1e-10)

    def test_underflowed_z_is_the_identity(self):
        # t lambda-hat / 2 can underflow to 0 for a subnormal t on a large
        # mesh; that once divided by zero
        c, tail = numerics.bessel_coefficients(0.0, self.TOL)
        assert c.tolist() == [1.0] and tail == 0.0
        mesh = lb.icosphere(2)
        op = lb.assemble(lb.TriangleMesh(mesh.vertices * 1e3, mesh.triangles))
        kernel = lb.filter_kernel(op, lb.FilterSpec.exponential(5e-324))
        assert kernel.path == "chebyshev deg=0 cheb-exp"
        f = np.random.default_rng(5).standard_normal(op.n)
        # g = (sqrt(B) f) / sqrt(B), to rounding
        eps = np.finfo(float).eps
        assert (np.abs(kernel.apply(f) - f) <= 2 * eps * np.abs(f)).all()

    def test_degree_cap_raises(self):
        with pytest.raises(NotConverged, match="MAX_DEGREE"):
            numerics.bessel_coefficients(1e12, self.TOL)


def chebyshev_sum_by_products(A2, c, v):
    """The heat recurrence with one A2 @ T_k product per degree, as it ran
    before _chebyshev_sum owned its buffers: the oracle for its bits."""
    prev = v
    acc = c[0] * prev
    if len(c) > 1:
        cur = 0.5 * (A2 @ prev)
        acc += c[1] * cur
        for ck in c[2:]:
            nxt = A2 @ cur
            nxt -= prev
            acc += np.multiply(nxt, ck, out=prev)
            prev, cur = cur, nxt
    return acc


class TestChebyshevSum:
    """_chebyshev_sum adds A2 T_k into a zeroed buffer with scipy's
    private _sparsetools kernels instead of allocating A2 @ T_k."""

    @staticmethod
    def operator(op):
        A, _ = numerics.scaled_operator(op.L, op.B)
        lam = numerics.pencil_bound(op.L, op.B)
        return (4.0 / lam) * A - 2.0 * sp.identity(op.n, format="csr")

    def test_sparsetools_kernels_give_the_bits_of_a_product(self, op3):
        A2 = self.operator(op3)
        n = op3.n
        rng = np.random.default_rng(11)
        x, X = rng.standard_normal(n), rng.standard_normal((n, 5))
        y, Y = np.zeros(n), np.zeros((n, 5))
        args = (A2.indptr, A2.indices, A2.data)
        _sparsetools.csr_matvec(n, n, *args, x, y)
        _sparsetools.csr_matvecs(n, n, 5, *args, X.ravel(), Y.ravel())
        assert np.array_equal(y, A2 @ x)
        assert np.array_equal(Y, A2 @ X)

    @pytest.mark.parametrize("width", [1, 2, 3, 16])
    @pytest.mark.parametrize("K", [0, 1, 2, 30])
    def test_chunk_keeps_the_bits(self, op3, width, K):
        # the (n, 1) chunk takes the vector kernel, as A2 @ v does
        A2 = self.operator(op3)
        rng = np.random.default_rng(K)
        c = rng.standard_normal(K + 1)
        v = rng.standard_normal((op3.n, width))
        want = chebyshev_sum_by_products(A2, c, v.copy())
        assert np.array_equal(numerics._chebyshev_sum(A2, c, v), want)

    @pytest.mark.parametrize("t, K", [(1e-20, 0), (1e-12, 1), (1e-8, 2),
                                      (1.0, 129)])
    @pytest.mark.parametrize("width", [None, 1, 2, 3, 16, "16 Fortran"])
    def test_heat_apply_keeps_the_bits(self, op3, monkeypatch, t, K, width):
        # widths 1 and 2 run as vectors, 3 and 16 as one chunk; a
        # Fortran-ordered block is copied to C order by cheb_exp
        degree, _, solve = numerics.cheb_exp(op3.B, op3.L, t)
        assert degree == K
        rng = np.random.default_rng(K)
        f = (rng.standard_normal(op3.n) if width is None else
             rng.standard_normal((op3.n, int(str(width).split()[0]))))
        if width == "16 Fortran":
            f = np.asfortranarray(f)
        g = solve(f)
        monkeypatch.setattr(numerics, "_chebyshev_sum",
                            chebyshev_sum_by_products)
        assert np.array_equal(g, solve(f))


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


class Pinned:
    """A weakref-able stand-in for a SuperLU object: every attribute read
    goes to the LU it holds."""

    def __init__(self, lu):
        self.lu = lu

    def __getattr__(self, name):
        return getattr(self.lu, name)


class TestEigenpairs:
    @pytest.mark.parametrize(
        "op_name, k",
        [("op_torus200", None), ("op_torus500", 50), ("op3", 110),
         ("op_torus500_consistent", 50), ("op3_consistent", 110)],
        ids=["torus200-full", "torus500-k50", "sphere642-k110",
             "torus500-k50-consistent", "sphere642-k110-consistent"],
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

    @pytest.mark.parametrize("mass, form", [("lumped", "standard"),
                                            ("consistent", "generalized")])
    def test_form_follows_the_mass(self, sphere3, monkeypatch, mass, form):
        # a diagonal B runs in standard form, with no mass product inside
        # eigsh; any other B in generalized form, on B / mean(diag B)
        op = lb.assemble(sphere3, mass_mode=mass)
        real, masses = numerics.spla.eigsh, []

        def eigsh(*args, M=None, **kwargs):
            masses.append(M)
            return real(*args, M=M, **kwargs)

        monkeypatch.setattr(numerics.spla, "eigsh", eigsh)
        eig = smallest_eigenpairs(op.L, op.B, 20)
        assert eig.stats["form"] == form
        assert eig.stats["eigsh_calls"] == len(masses) >= 1
        if form == "standard":
            assert masses == [None] * len(masses)
        else:
            d = op.B.diagonal()
            assert all(abs(M - op.B / d.mean()).max() == 0.0 for M in masses)

    def test_stats(self, op3, monkeypatch):
        # the certificate counts on the shift LU's ordering, and stats
        # records its count, its LU's nnz and the work eigsh did
        real, counts = numerics._inertia, []

        def spy(L, B, s, perm):
            counts.append((perm is not None, real(L, B, s, perm)))
            return counts[-1][1]

        monkeypatch.setattr(numerics, "_inertia", spy)
        eig = smallest_eigenpairs(op3.L, op3.B, 20)
        assert counts and all(has_perm for has_perm, _ in counts)
        stats = eig.stats
        assert (stats["inertia_count"], stats["certificate_lu_nnz"]) == (
            counts[-1][1])
        assert np.count_nonzero(eig.values < stats["inertia_shift"]) == (
            stats["inertia_count"])
        assert stats["eigsh_calls"] == len(counts)
        assert stats["op_applies"] > 20 and stats["lu_nnz"] > op3.L.nnz
        assert stats["certificate_lu_nnz"] > op3.L.nnz
        for k, form in ((1, "kernel"), (op3.n // 2 + 1, "dense")):
            stats = smallest_eigenpairs(op3.L, op3.B, k).stats
            assert stats["form"] == form
            assert stats["lu_nnz"] == stats["certificate_lu_nnz"] == 0

    def test_shift_and_certificate_lus_are_factors(self, op3, monkeypatch):
        # a shift LU before each eigsh call, a certificate after it, never
        # both alive: each factor call finds every earlier factor freed,
        # with a retry forced to cover the second shift LU.  Every LU
        # takes the one nested-dissection ordering of the shift matrix,
        # an owned array that pins no LU
        patch_eigsh(monkeypatch, drops=1)
        real, calls, refs = numerics.factor, [], []

        def spy(M, perm=None, diagonal=False):
            lu, solve = real(M, perm, diagonal)
            alive = [ref() is not None for ref in refs]
            pinned = Pinned(lu)
            refs.append(weakref.ref(pinned))
            calls.append((perm, diagonal, lu.nnz, alive))

            def refined(rhs, pinned=pinned):  # pins it as factor's solve does
                return solve(rhs)

            return pinned, refined

        monkeypatch.setattr(numerics, "factor", spy)
        eig = smallest_eigenpairs(op3.L, op3.B, 20)
        assert len(calls) == 2 * eig.stats["eigsh_calls"] == 4
        order = numerics.nested_dissection(shift_matrix(op3))
        for shift, certificate in zip(calls[::2], calls[1::2]):
            perm, diagonal, nnz, alive = shift
            assert diagonal and not any(alive)
            assert eig.stats["lu_nnz"] == nnz
            assert perm is calls[0][0]  # one ordering per solve
            assert perm.flags.owndata and np.array_equal(perm, order)
            perm, diagonal, nnz, alive = certificate
            assert perm is calls[0][0] and diagonal and not any(alive)
        assert eig.stats["certificate_lu_nnz"] == calls[-1][2]
        assert not any(ref() for ref in refs)

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

    def test_retry_keeps_one_lus_bits(self, op4, monkeypatch):
        # a retry factors the shift matrix again; its values, vectors and
        # stats are those of a solve that keeps its first shift LU
        real, first = numerics.factor, []

        def kept(M, perm=None, diagonal=False):
            if first and (M != first[0][0]).nnz:  # not the shift matrix
                return real(M, perm, diagonal)
            if not first:
                first.append((M, real(M, perm, diagonal)))
            return first[0][1]

        results = []
        for factor_ in (real, kept):
            monkeypatch.setattr(numerics, "factor", factor_)
            calls = patch_eigsh(monkeypatch, drops=1)
            results.append(smallest_eigenpairs(op4.L, op4.B, 20))
            assert len(calls) == results[-1].stats["eigsh_calls"] >= 2
            monkeypatch.undo()
        again, kept_one = results
        assert again.values.tobytes() == kept_one.values.tobytes()
        assert again.vectors.tobytes() == kept_one.vectors.tobytes()
        assert again.stats == kept_one.stats

    def test_persistent_loss_raises(self, op2, monkeypatch):
        patch_eigsh(monkeypatch, drops=np.inf)
        with pytest.raises(NotConverged):
            smallest_eigenpairs(op2.L, op2.B, 8)


def shift_ordering(op):
    """perm_c of the eigensolver's shift LU of op's pencil."""
    lam = numerics.pencil_bound(op.L, op.B)
    return factor(op.L - numerics.SIGMA * lam * op.B, diagonal=True)[0].perm_c


def shift_matrix(op):
    """L - sigma B, the eigensolver's shift matrix of op's pencil."""
    return op.L - numerics.SIGMA * numerics.pencil_bound(op.L, op.B) * op.B


def reference_dissection(A):
    """nested_dissection's rule one part at a time, by recursion over
    Python sets and a deque BFS: the loop form of its array code."""
    from collections import deque
    from scipy.sparse import csgraph

    G = (abs(A) + abs(A.T)).tocsr()
    n = G.shape[0]
    nbrs = [set(G.indices[G.indptr[i]:G.indptr[i + 1]]) - {i}
            for i in range(n)]

    def bfs(a):
        dist, queue, seen = {a: 0}, deque([a]), [a]
        while queue:
            v = queue.popleft()
            for x in sorted(nbrs[v]):
                if x not in dist:
                    dist[x] = dist[v] + 1
                    queue.append(x)
                    seen.append(x)
        return dist, seen

    _, labels = csgraph.connected_components(G, connection="strong")
    X, perm, start = {}, np.empty(n, dtype=int), 0

    def dissect(verts, start):
        if len(verts) <= 64:
            perm[sorted(verts)] = np.arange(start, start + len(verts))
            return
        spans = [max(X[v][j] for v in verts) - min(X[v][j] for v in verts)
                 for j in range(3)]
        key = {v: X[v][spans.index(max(spans))] for v in verts}
        keys = sorted(key.values())
        med = keys[len(keys) // 2]
        cut = med if keys[0] < med else med + 1  # no value is below med
        assert keys[-1] >= cut, "a part with no spread"
        left = [v for v in verts if key[v] < cut]
        right = set(verts) - set(left)
        sep = sorted(v for v in left if nbrs[v] & right)
        inner = [v for v in left if v not in sep]
        dissect(inner, start)
        dissect(sorted(right), start + len(inner))
        perm[sep] = np.arange(start + len(verts) - len(sep),
                              start + len(verts))

    for c in range(labels.max() + 1):
        comp = list(np.flatnonzero(labels == c))
        if len(comp) > 64:
            dist, order = bfs(comp[0])
            near = last = dist
            fields = []
            for _ in range(6):
                top = max(near.values())
                far = [v for v in order if near[v] == top]
                top = max(last[v] for v in far)
                far = [v for v in far if last[v] == top]
                degree = [len(nbrs[v]) for v in far]
                last = bfs(far[degree.index(min(degree))])[0]
                near = ({v: min(near[v], last[v]) for v in order} if fields
                        else last)
                fields.append(last)
            for v in comp:
                X[v] = [fields[j][v] - fields[j + 1][v] for j in (0, 2, 4)]
        dissect(comp, start)
        start += len(comp)
    return perm


class TestNestedDissection:
    @staticmethod
    def star(leaves):
        """A hub joined to each of leaves vertices: every leaf has the same
        distance to every landmark but two, so a part can have no spread."""
        hub = np.zeros(leaves, dtype=int)
        tips = np.arange(1, leaves + 1)
        return sp.csr_matrix((np.ones(2 * leaves), (np.r_[hub, tips],
                                                    np.r_[tips, hub])))

    @pytest.mark.parametrize("pattern", [
        lambda ops: shift_matrix(ops["op3"]),
        lambda ops: ops["two_spheres"].L,
        lambda ops: lb.assemble(merge_meshes(lb.icosphere(3),
                                             lb.torus(20, 10))).L,
        lambda ops: sp.block_diag([ops["op3"].L, sp.csr_matrix((1, 1))]),
        lambda ops: TestNestedDissection.star(200),
        lambda ops: sp.csr_matrix(np.array([[2.0]])),
        lambda ops: sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]])),
        lambda ops: sp.csr_matrix((2, 2)),
    ], ids=["sphere642", "two-spheres", "sphere-and-torus",
            "isolated-vertex", "star", "n1", "n2", "n2-empty"])
    def test_a_deterministic_permutation(self, op3, two_spheres, pattern):
        A = pattern({"op3": op3, "two_spheres": lb.assemble(two_spheres)})
        perm = numerics.nested_dissection(A)
        assert perm.dtype.kind == "i"
        assert np.array_equal(np.sort(perm), np.arange(A.shape[0]))
        assert np.array_equal(numerics.nested_dissection(A), perm)
        # the pattern of A + A^T, whatever triangle A stores
        assert np.array_equal(numerics.nested_dissection(sp.triu(A)), perm)

    @pytest.mark.parametrize("mesh", [
        lambda: lb.icosphere(3),
        lambda: lb.torus(40, 12),
        lambda: lb.grid(30, 30),
        lambda: merge_meshes(lb.bumpy_sphere(3, seed=1), lb.icosphere(2)),
    ], ids=["sphere642", "torus480", "grid900", "two-components"])
    @pytest.mark.parametrize("mass", ["lumped", "consistent"])
    def test_matches_the_recursive_rule(self, mesh, mass):
        A = shift_matrix(lb.assemble(mesh(), mass_mode=mass))
        assert np.array_equal(numerics.nested_dissection(A),
                              reference_dissection(A))

    def test_components_take_consecutive_places(self):
        # each component is ordered on its own, in one block of places
        op = lb.assemble(merge_meshes(lb.icosphere(3), lb.icosphere(2)))
        perm = numerics.nested_dissection(op.L)
        for places in (perm[:642], perm[642:]):
            assert places.max() - places.min() == len(places) - 1

    @pytest.mark.parametrize("mesh", [lambda: lb.icosphere(4),
                                      lambda: lb.bumpy_sphere(4, seed=1)],
                             ids=["icosphere4", "bumpy4"])
    def test_fill_at_most_colamds(self, mesh):
        M = shift_matrix(lb.assemble(mesh()))
        colamd = factor(M, diagonal=True)[0].nnz
        nested = factor(M, numerics.nested_dissection(M), diagonal=True)[0]
        assert nested.nnz <= colamd


class TestCountBelow:
    @pytest.mark.parametrize("mass", ["lumped", "consistent"])
    @pytest.mark.parametrize("mesh", [lambda: lb.icosphere(3),
                                      lambda: lb.bumpy_sphere(3, seed=1),
                                      lambda: lb.torus(40, 12),
                                      lambda: lb.grid(30, 30)],
                             ids=["icosphere3", "bumpy3", "torus480",
                                  "grid900"])
    def test_matches_dense_counts(self, mesh, mass):
        op = lb.assemble(mesh(), mass_mode=mass)
        lam = scipy.linalg.eigh(*dense_lb(op), eigvals_only=True)
        # shifts midway between distinct values, clusters counted whole
        top = np.flatnonzero(np.diff(lam) > 1e-6 * lam[-1])
        shifts = 0.5 * (lam[top] + lam[top + 1])
        shifts = np.r_[-1.0, shifts[::max(1, len(shifts) // 12)],
                       2.0 * lam[-1]]
        orders = [shift_ordering(op),
                  numerics.nested_dissection(shift_matrix(op))]
        for s in shifts:
            want = np.count_nonzero(lam < s)
            assert count_below(op.L, op.B, s) == want, s
            for perm in orders:
                assert count_below(op.L, op.B, s, perm) == want, s

    def test_ordering_keeps_the_fill(self, op3, monkeypatch):
        # the pre-permuted matrix in its natural order has the fill of
        # COLAMD's own LU of the same matrix (the inverse ordering has
        # several times more)
        perm = shift_ordering(op3)
        real, fill = numerics.spla.splu, []

        def splu(M, permc_spec=None, **kwargs):
            lu = real(M, permc_spec=permc_spec, **kwargs)
            fill.append((permc_spec, lu.L.nnz + lu.U.nnz))
            return lu

        monkeypatch.setattr(numerics.spla, "splu", splu)
        s = 20.0
        count_below(op3.L, op3.B, s)
        count_below(op3.L, op3.B, s, perm)
        (spec0, colamd), (spec1, natural) = fill
        assert (spec0, spec1) == ("COLAMD", "NATURAL")
        assert natural <= colamd

    def test_off_diagonal_pivoting_raises(self):
        # [[0, 1], [1, 0]] needs a 2x2 pivot, which an LU with no
        # off-diagonal pivot cannot take
        L = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(NotConverged, match="off-diagonal"):
            count_below(L, sp.identity(2, format="csr"), 0.0)
        with pytest.raises(NotConverged, match="off-diagonal"):
            factor(L, diagonal=True)
        factor(L)  # threshold pivoting takes the off-diagonal pivot


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
