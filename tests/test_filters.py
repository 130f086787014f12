"""Spectral filters: closed forms, partial fractions, the exp table."""

import numpy as np
import pytest

import lapbasis as lb
from lapbasis.errors import (
    DegreeMismatch,
    RepeatedRoots,
    SingularEvaluation,
    UnsupportedDegree,
    UnsupportedFeature,
)
from lapbasis.filters import FilterSpec, PartialFraction, exp_table_error


class TestEvaluate:
    def test_exponential(self):
        spec = FilterSpec.exponential(2.0)
        s = np.array([0.0, 0.5, 3.0])
        assert np.allclose(lb.evaluate(spec, s), np.exp(-2.0 * s))
        assert lb.evaluate(spec, 0.0) == 1.0

    def test_polyharmonic(self):
        # phi(s) = s^(-k/2): k=2 is the harmonic (Green) weight 1/s
        spec = FilterSpec.polyharmonic(2)
        assert lb.evaluate(spec, 4.0) == pytest.approx(0.25)
        assert lb.evaluate(FilterSpec.polyharmonic(4), 4.0) == pytest.approx(
            1 / 16
        )
        with pytest.raises(SingularEvaluation):
            lb.evaluate(spec, 0.0)

    def test_commute_time(self):
        spec = FilterSpec.commute_time()
        assert lb.evaluate(spec, 4.0) == pytest.approx(0.5)
        assert spec.singular_at_zero
        with pytest.raises(SingularEvaluation):
            lb.evaluate(spec, np.array([0.0, 1.0]))

    def test_mexican_hat(self):
        spec = FilterSpec.mexican_hat()
        assert lb.evaluate(spec, 1.0) == pytest.approx(np.exp(-1.0))
        assert lb.evaluate(spec, 0.0) == 0.0

    def test_rational_example(self):
        spec = FilterSpec.rational([1.0], [1.0, 2.0, 1.0])  # 1/(1+s)^2
        assert lb.evaluate(spec, 1.0) == pytest.approx(0.25)
        assert lb.evaluate(spec, 0.0) == pytest.approx(1.0)

    def test_negative_argument_rejected(self):
        spec = FilterSpec.exponential(1.0)
        with pytest.raises(ValueError):
            lb.evaluate(spec, -0.5)

    def test_custom_interpolates(self):
        spec = FilterSpec.custom([(0.0, 1.0), (1.0, 0.5), (2.0, 0.0)])
        assert lb.evaluate(spec, 1.0) == pytest.approx(0.5)
        assert lb.evaluate(spec, 0.5) == pytest.approx(0.75)
        # beyond the last node the tail value holds
        assert lb.evaluate(spec, 5.0) == pytest.approx(0.0)

    def test_describe_mentions_kind(self):
        assert "exp" in FilterSpec.exponential(0.5).describe()


class TestExpTable:
    def test_supported_degrees(self):
        for r in range(3, 15):
            pf = lb.exp_chebyshev_coefficients(r)
            assert pf.degree == r
            # value at 0 is within the sup error of e^0 = 1
            assert abs(pf(0.0) - 1.0) <= exp_table_error(r)

    def test_unsupported_degree(self):
        with pytest.raises(UnsupportedDegree):
            lb.exp_chebyshev_coefficients(2)
        with pytest.raises(UnsupportedDegree):
            lb.exp_chebyshev_coefficients(15)

    def test_sup_error_on_grid(self):
        s = np.logspace(-3, 4, 20000)
        s = np.concatenate([[0.0], s])
        for r in (3, 5, 8, 14):
            pf = lb.exp_chebyshev_coefficients(r)
            err = np.abs([pf(x) for x in s] - np.exp(-s)).max()
            assert err <= 1.05 * exp_table_error(r)

    def test_error_decreases_with_degree(self):
        errs = [exp_table_error(r) for r in range(3, 15)]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_poles_closed_under_conjugation(self):
        for r in (4, 5, 7):
            pf = lb.exp_chebyshev_coefficients(r)
            betas = sorted(
                (complex(b) for _, b, _ in pf.terms),
                key=lambda z: (z.real, z.imag),
            )
            conj = sorted(
                (complex(b).conjugate() for _, b, _ in pf.terms),
                key=lambda z: (z.real, z.imag),
            )
            np.testing.assert_allclose(betas, conj)
            # odd degree keeps exactly one real pole
            n_real = sum(1 for b in betas if abs(b.imag) < 1e-14)
            assert n_real == (r % 2)

    def test_scaling_folds_t_into_poles(self):
        pf = lb.exp_chebyshev_coefficients(5)
        t = 0.37
        scaled = pf.scaled(t)
        for s in (0.0, 0.4, 2.0, 50.0):
            assert scaled(s) == pytest.approx(pf(t * s), abs=1e-15)

    def test_evaluation_is_real(self):
        pf = lb.exp_chebyshev_coefficients(6)
        out = pf(1.3)
        assert isinstance(out, float)


class TestRationalPartialFractions:
    def grid(self):
        return np.concatenate([[0.0], np.logspace(-2, 2, 500)])

    def test_simple_complex_pair(self):
        spec = FilterSpec.rational([1.0], [1.0, 0.0, 1.0])  # 1/(1+s^2)
        pf = lb.rational_partial_fractions(spec)
        assert pf.alpha0 == pytest.approx(0.0)
        assert len(pf.terms) == 2
        for s in self.grid():
            assert pf(s) == pytest.approx(1 / (1 + s * s), abs=1e-12)

    def test_numerator_degree_one(self):
        spec = FilterSpec.rational([1.0, 1.0], [1.0, 0.0, 1.0])
        pf = lb.rational_partial_fractions(spec)
        for s in self.grid():
            assert pf(s) == pytest.approx((1 + s) / (1 + s * s), abs=1e-12)

    def test_equal_degrees_give_constant_term(self):
        spec = FilterSpec.rational([2.0, 1.0], [1.0, 1.0])  # (2+s)/(1+s)
        pf = lb.rational_partial_fractions(spec)
        assert pf.alpha0 == pytest.approx(1.0)
        for s in self.grid():
            assert pf(s) == pytest.approx((2 + s) / (1 + s), abs=1e-12)

    def test_repeated_real_pole(self):
        spec = FilterSpec.rational([1.0], [1.0, 2.0, 1.0])  # 1/(1+s)^2
        pf = lb.rational_partial_fractions(spec)
        assert any(m == 2 for _, _, m in pf.terms)
        for s in self.grid():
            assert pf(s) == pytest.approx(1 / (1 + s) ** 2, abs=1e-12)

    def test_constant_filter(self):
        spec = FilterSpec.rational([3.0], [1.0])
        pf = lb.rational_partial_fractions(spec)
        assert pf.alpha0 == pytest.approx(3.0)
        assert pf.terms == ()

    def test_numerator_degree_too_high(self):
        with pytest.raises(DegreeMismatch):
            FilterSpec.rational([1.0, 0.0, 1.0], [1.0, 1.0])

    def test_repeated_complex_pole_unsupported(self):
        spec = FilterSpec.rational([1.0], [1.0, 0.0, 2.0, 0.0, 1.0])
        with pytest.raises(RepeatedRoots):
            lb.rational_partial_fractions(spec)

    def test_pole_at_zero_rejected(self):
        spec = FilterSpec.rational([1.0], [0.0, 1.0])  # 1/s
        with pytest.raises(ValueError):
            lb.rational_partial_fractions(spec)

    def test_reevaluation_identity_exact(self):
        # evaluating the decomposition reproduces the filter to 1e-12
        spec = FilterSpec.rational([1.0, 0.5], [1.0, 2.0, 1.0])
        pf = lb.rational_partial_fractions(spec)
        s = np.concatenate([[0.0], np.logspace(-3, 3, 2000)])
        want = lb.evaluate(spec, s)
        got = np.array([pf(x) for x in s])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestPartialFractionsDispatch:
    def test_exponential_scales_table(self):
        pf = lb.partial_fractions(FilterSpec.exponential(2.0), r=5)
        s = np.logspace(-2, 2, 200)
        got = np.array([pf(x) for x in s])
        assert np.abs(got - np.exp(-2 * s)).max() <= 5e-5

    def test_rational_is_exact(self):
        pf = lb.partial_fractions(FilterSpec.rational([1.0], [1.0, 1.0]))
        assert pf(1.0) == pytest.approx(0.5, abs=1e-14)

    def test_custom_has_no_rational_form(self):
        spec = FilterSpec.custom([(0.0, 1.0), (1.0, 0.0)])
        with pytest.raises(UnsupportedFeature):
            lb.partial_fractions(spec)

    def test_polyharmonic_has_no_rational_form(self):
        with pytest.raises(UnsupportedFeature):
            lb.partial_fractions(FilterSpec.polyharmonic(2))

    def test_nonconjugate_terms_rejected_at_evaluation(self):
        pf = PartialFraction(
            alpha0=0.0, terms=(((1.0 + 1.0j), (0.5 + 0.5j), 1),), degree=1
        )
        with pytest.raises(ArithmeticError):
            pf(1.0)


class TestParseFilter:
    def test_exponential(self):
        spec = lb.parse_filter("exp:t=0.5")
        assert spec.kind == "exponential"
        assert spec.t == 0.5

    def test_polyharmonic(self):
        spec = lb.parse_filter("poly:k=3")
        assert spec.kind == "polyharmonic"
        assert spec.k == 3

    def test_commute_and_mexican(self):
        assert lb.parse_filter("commute").kind == "commute_time"
        assert lb.parse_filter("mexican").kind == "mexican_hat"

    def test_rational(self):
        spec = lb.parse_filter("rat:num=1;den=1,2,1")
        assert spec.kind == "rational"
        assert lb.evaluate(spec, 1.0) == pytest.approx(0.25)

    def test_garbage_rejected(self):
        for text in ("", "exp", "exp:t=abc", "nosuch:t=1", "rat:num=1"):
            with pytest.raises(ValueError):
                lb.parse_filter(text)
