"""Spectral filters: closed forms, partial fractions, the exp table."""

import importlib.util
import os
import re

import numpy as np
import pytest

import lapbasis as lb
from lapbasis.errors import (
    DegreeMismatch,
    InaccurateDecomposition,
    SingularEvaluation,
    UnsupportedDegree,
    UnsupportedFeature,
)
from lapbasis._exp_cheb import TABLE
from lapbasis.filters import FilterSpec, exp_table_error

GENERATOR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools", "gen_exp_cheb_table.py")


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
        spec = FilterSpec.polyharmonic(1)
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

    @pytest.mark.parametrize("make, shown", [
        (lambda: FilterSpec.exponential(float("nan")), "nan"),
        (lambda: FilterSpec.exponential(float("inf")), "inf"),
        (lambda: FilterSpec.rational([float("nan")], [1.0, 1.0]), "nan"),
        (lambda: FilterSpec.rational([1.0], [float("nan"), 1.0]), "nan"),
        (lambda: FilterSpec.rational([1.0], [1.0, float("-inf")]), "-inf"),
        (lambda: FilterSpec.custom([(0.0, 1.0), (1.0, float("nan"))]), "nan"),
        (lambda: FilterSpec.custom([(0.0, 1.0), (float("inf"), 0.5)]), "inf"),
    ], ids=["exp-nan", "exp-inf", "rat-num-nan", "rat-den-nan",
            "rat-den-inf", "custom-value-nan", "custom-node-inf"])
    def test_non_finite_parameters_rejected(self, make, shown):
        with pytest.raises(ValueError, match="finite") as info:
            make()
        assert shown in str(info.value)

    @pytest.mark.parametrize("k", [2.9, 0.5, True, float("nan"),
                                   float("inf"), 0, -1],
                             ids=["fraction", "half", "bool", "nan", "inf",
                                  "zero", "negative"])
    def test_polyharmonic_order_rejected(self, k):
        # int() once truncated 2.9 to the Green kernel's k = 2, read True
        # as k = 1, and failed on nan with its own message
        with pytest.raises(ValueError, match="integer >= 1") as info:
            FilterSpec.polyharmonic(k)
        assert repr(k) in str(info.value)

    def test_polyharmonic_integral_order_kept(self):
        for k in (3, 3.0, np.int64(3)):
            spec = FilterSpec.polyharmonic(k)
            assert spec == FilterSpec("polyharmonic", k=3)
            assert type(spec.k) is int

    def test_rational_trims_trailing_zeros(self):
        spec = FilterSpec.rational([1.0, 0.0], [1.0, 2.0, 1.0, 0.0, 0.0])
        assert spec.num == (1.0,)
        assert spec.den == (1.0, 2.0, 1.0)
        # trimmed, the numerator may outgrow the denominator
        with pytest.raises(DegreeMismatch):
            FilterSpec.rational([1.0, 1.0], [1.0, 0.0])

    def test_rational_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="identically zero"):
            FilterSpec.rational([1.0], [0.0, 0.0])

    def test_custom_needs_two_samples(self):
        with pytest.raises(ValueError, match="at least two samples"):
            FilterSpec.custom([(0.0, 1.0)])

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
            _, pairs = TABLE[r]
            betas = sorted((b for _, b in pairs),
                           key=lambda z: (z.real, z.imag))
            conj = sorted((b.conjugate() for _, b in pairs),
                          key=lambda z: (z.real, z.imag))
            np.testing.assert_allclose(betas, conj)
            # each pair kept once; odd degree keeps exactly one real pole
            poles = [b for b, _ in lb.exp_chebyshev_coefficients(r).poles]
            assert len(poles) == (r + 1) // 2
            assert sum(isinstance(b, float) for b in poles) == r % 2
            assert all(isinstance(b, float) or b.imag > 0 for b in poles)

    def test_scaling_folds_t_into_poles(self):
        pf = lb.exp_chebyshev_coefficients(5)
        t = 0.37
        scaled = pf.scaled(t)
        for s in (0.0, 0.4, 2.0, 50.0):
            assert scaled(s) == pytest.approx(pf(t * s), abs=1e-15)

    def test_table_reproduced_by_its_generator(self):
        # loaded from its file; main, the one function that writes, not run
        spec = importlib.util.spec_from_file_location("gen_exp_cheb_table",
                                                      GENERATOR)
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        for r in (3, 5, 14):
            alpha0, alpha, beta = gen.to_partial_fraction(
                *gen.cf_exp_negative_axis(r), gen.GRID)
            got = np.array(gen.symmetrize(alpha, beta))
            want_alpha0, pairs = TABLE[r]
            want = np.array(pairs)
            # alpha0 on the scale of exp(-s), at most 1; each column of
            # (alpha, beta) normwise: 1.3e-12 measured at r = 14
            assert abs(alpha0 - want_alpha0) <= 1e-9
            err = np.abs(got - want).max(axis=0) / np.abs(want).max(axis=0)
            assert err.max() <= 1e-9

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
        ((beta, weights),) = pf.poles  # one pair, kept as its upper pole
        assert beta.imag > 0 and len(weights) == 1
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
        assert [len(w) for _, w in pf.poles] == [2]
        for s in self.grid():
            assert pf(s) == pytest.approx(1 / (1 + s) ** 2, abs=1e-12)

    def test_constant_filter(self):
        spec = FilterSpec.rational([3.0], [1.0])
        pf = lb.rational_partial_fractions(spec)
        assert pf.alpha0 == pytest.approx(3.0)
        assert pf.poles == ()

    def test_numerator_degree_too_high(self):
        with pytest.raises(DegreeMismatch):
            FilterSpec.rational([1.0, 0.0, 1.0], [1.0, 1.0])

    @pytest.mark.parametrize("den", [
        [1.0, 0.0, 2.0, 0.0, 1.0],  # 1/(1+s^2)^2
        [1.0, 2.0, 2.0, 1.0, 0.25],  # 1/(1+s+s^2/2)^2
    ])
    def test_repeated_complex_pole(self, den):
        spec = FilterSpec.rational([1.0], den)
        pf = lb.rational_partial_fractions(spec)
        ((beta, weights),) = pf.poles  # one double pair, as its upper pole
        assert beta.imag > 0 and len(weights) == 2
        s = self.grid()
        want = lb.evaluate(spec, s)
        assert np.abs(pf(s) - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("num, den, betas", [
        ([1.0, 1.0], [1.0, 3.0, 2.0], [2.0]),  # (1+s)/((1+s)(1+2s))
        ([2.0, 2.0], [1.0, 1.0], []),  # 2(1+s)/(1+s)
    ], ids=["one-left", "none-left"])
    def test_cancelled_pole_dropped(self, num, den, betas):
        spec = FilterSpec.rational(num, den)
        pf = lb.rational_partial_fractions(spec)
        assert [beta for beta, _ in pf.poles] == pytest.approx(betas)
        s = self.grid()
        want = lb.evaluate(spec, s)
        assert np.abs(pf(s) - want).max() <= 1e-12 * np.abs(want).max()

    def test_pole_at_zero_rejected(self):
        spec = FilterSpec.rational([1.0], [0.0, 1.0])  # 1/s
        with pytest.raises(ValueError):
            lb.rational_partial_fractions(spec)

    @pytest.mark.parametrize("den", [
        [1.0, 2.0],  # 1/(1+2s)
        [1.0, 0.0, 4.0],  # 1/(1+4s^2)
        [3.0, 6.0, 3.0],  # 1/(3(1+s)^2)
        [1.0, 1.0, 0.5],  # a complex pair, leading coefficient 1/2
    ])
    def test_non_monic_denominator(self, den):
        spec = FilterSpec.rational([1.0], den)
        pf = lb.rational_partial_fractions(spec)
        s = self.grid()
        want = lb.evaluate(spec, s)
        assert np.abs(pf(s) - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("m", [3, 4])
    def test_high_multiplicity_real_pole(self, m):
        # np.roots splits an m-fold root by about eps^(1/m)
        den = np.polynomial.polynomial.polypow([1.0, 1.0], m)  # (1+s)^m
        spec = FilterSpec.rational([1.0], den)
        pf = lb.rational_partial_fractions(spec)
        s = self.grid()
        want = lb.evaluate(spec, s)
        assert np.abs(pf(s) - want).max() <= 1e-12 * np.abs(want).max()
        ((beta, weights),) = pf.poles
        assert beta == pytest.approx(1.0) and len(weights) == m

    def test_nearby_simple_poles_stay_apart(self):
        spec = FilterSpec.rational([1.0], [1.0, 2.01, 1.01])  # (1+s)(1+1.01s)
        pf = lb.rational_partial_fractions(spec)
        s = self.grid()
        want = lb.evaluate(spec, s)
        assert np.abs(pf(s) - want).max() <= 1e-12 * np.abs(want).max()
        assert [len(w) for _, w in pf.poles] == [1, 1]

    def test_unresolved_root_cluster_raises(self):
        # an 8-fold root splits by about 1e-2, wider than any grouping
        den = np.polynomial.polynomial.polypow([1.0, 1.0], 8)
        with pytest.raises(InaccurateDecomposition):
            lb.rational_partial_fractions(FilterSpec.rational([1.0], den))

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

    def test_real_form_folds_conjugate_pairs(self):
        pf = lb.exp_chebyshev_coefficients(5)
        form = dict(pf.poles)
        # r=5: one real pole and two pairs, each pair on its upper pole
        assert len(form) == 3
        # the fold is exact: either member of a pair gives the same weight
        for a, b in TABLE[5][1]:
            if b.imag > 0:
                assert form[b] == (2 * a,)
            elif b.imag < 0:
                assert form[b.conjugate()] == (2 * a.conjugate(),)
            else:
                assert isinstance(b.real, float)
                assert form[b.real] == (a.real,)


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
        # commute-time is s^-1/2, the polyharmonic k = 1 filter: no kind
        # of its own, and its fields are tagged poly:k=1
        assert lb.parse_filter("commute") == FilterSpec.polyharmonic(1)
        assert lb.parse_filter("commute").describe() == "poly:k=1"
        assert lb.parse_filter("mexican").kind == "mexican_hat"

    def test_rational(self):
        spec = lb.parse_filter("rat:num=1;den=1,2,1")
        assert spec.kind == "rational"
        assert lb.evaluate(spec, 1.0) == pytest.approx(0.25)

    @pytest.mark.parametrize("spec", [
        FilterSpec.exponential(0.1),
        FilterSpec.polyharmonic(2),
        FilterSpec.polyharmonic(1),
        FilterSpec.mexican_hat(),
        FilterSpec.rational([1.0, 0.5], [1.0, 3.001, 0.1]),
    ], ids=["exponential", "polyharmonic", "commute_time", "mexican_hat",
            "rational"])
    def test_describe_round_trips(self, spec):
        assert lb.parse_filter(spec.describe()) == spec

    def test_garbage_rejected(self):
        for text in ("", "exp", "exp:t=abc", "nosuch:t=1", "rat:num=1"):
            with pytest.raises(ValueError):
                lb.parse_filter(text)

    @pytest.mark.parametrize("text, key", [
        ("rat:num=1", "den"),
        ("rat:den=1,0,1", "num"),
        ("rat:", "num"),
    ], ids=["no-den", "no-num", "neither"])
    def test_rat_names_a_missing_key(self, text, key):
        with pytest.raises(ValueError, match=re.escape(
                f"bad filter expression {text!r}: rat needs {key}="
                "<coefficients>")):
            lb.parse_filter(text)

    @pytest.mark.parametrize("text, message", [
        ("commute:k=3", "commute takes no parameters"),
        ("commute:", "commute takes no parameters"),
        ("mexican:t=2", "mexican takes no parameters"),
        ("rat:num=1;den=1,0,1;foo=3", "not 'foo=3'"),
        ("rat:num=1;den=1,0,1;num=2", "not 'num=2'"),
        ("rat:den=1,0,1;num=1;den=1", "not 'den=1'"),
    ], ids=["commute-param", "commute-colon", "mexican-param", "rat-unknown",
            "rat-repeated-num", "rat-repeated-den"])
    def test_unread_text_rejected(self, text, message):
        # every character of an expression is read, or the parse fails
        with pytest.raises(ValueError, match=re.escape(
                f"bad filter expression {text!r}: ")) as err:
            lb.parse_filter(text)
        assert message in str(err.value)
