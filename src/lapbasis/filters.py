"""Spectral filters and their rational partial-fraction forms.

A filter phi maps eigenvalues s >= 0 to positive weights.  The spectrum-free
evaluation path needs phi as alpha0 + sum alpha_j (1 + beta_j s)^{-m_j}: for
the exponential this comes from a precomputed rational approximation table,
for rational filters from exact partial fractions.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._exp_cheb import SUP_ERROR, TABLE
from .errors import (
    DegreeMismatch,
    RepeatedRoots,
    SingularEvaluation,
    UnsupportedDegree,
    UnsupportedFeature,
)

KINDS = (
    "exponential",
    "polyharmonic",
    "commute_time",
    "mexican_hat",
    "rational",
    "custom",
)

# filters with a pole at s=0; the constant eigenmode must be deflated
SINGULAR_AT_ZERO = ("polyharmonic", "commute_time")


@dataclass(frozen=True)
class FilterSpec:
    """A named filter with its parameters.

    Use the classmethod constructors; params depend on the kind:
    exponential(t) = exp(-t s); polyharmonic(k) = s^{-k/2};
    commute_time = s^{-1/2}; mexican_hat = s^{1/2} exp(-s^2);
    rational(num, den) with coefficients low-to-high degree;
    custom(samples) interpolates a table of (s, phi(s)) points.
    """

    kind: str
    t: float = None
    k: int = None
    num: tuple = None
    den: tuple = None
    table: tuple = None

    @classmethod
    def exponential(cls, t):
        if t <= 0:
            raise ValueError("diffusion scale t must be positive")
        return cls("exponential", t=float(t))

    @classmethod
    def polyharmonic(cls, k):
        if k < 1:
            raise ValueError("polyharmonic order k must be >= 1")
        return cls("polyharmonic", k=int(k))

    @classmethod
    def commute_time(cls):
        return cls("commute_time")

    @classmethod
    def mexican_hat(cls):
        return cls("mexican_hat")

    @classmethod
    def rational(cls, num, den):
        num = tuple(float(c) for c in num)
        den = tuple(float(c) for c in den)
        while len(num) > 1 and num[-1] == 0.0:
            num = num[:-1]
        while len(den) > 1 and den[-1] == 0.0:
            den = den[:-1]
        if len(num) > len(den):
            raise DegreeMismatch("numerator degree exceeds denominator degree")
        if not any(den):
            raise ValueError("denominator is identically zero")
        return cls("rational", num=num, den=den)

    @classmethod
    def custom(cls, samples):
        samples = tuple(sorted((float(s), float(v)) for s, v in samples))
        if len(samples) < 2:
            raise ValueError("custom filter needs at least two samples")
        return cls("custom", table=samples)

    @property
    def singular_at_zero(self):
        return self.kind in SINGULAR_AT_ZERO

    def describe(self):
        if self.kind == "exponential":
            return f"exp:t={self.t!r}"
        if self.kind == "polyharmonic":
            return f"poly:k={self.k}"
        if self.kind == "rational":
            num = ",".join(repr(c) for c in self.num)
            den = ",".join(repr(c) for c in self.den)
            return f"rat:num={num};den={den}"
        return self.kind


def evaluate(spec, s):
    """Evaluate phi(s) elementwise; s must lie in the filter's domain."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    if np.any(s < 0):
        raise ValueError("filters are defined on s >= 0")
    if spec.singular_at_zero and np.any(s == 0.0):
        raise SingularEvaluation(f"{spec.kind} filter is singular at s=0")

    if spec.kind == "exponential":
        out = np.exp(-spec.t * s)
    elif spec.kind == "polyharmonic":
        out = s ** (-spec.k / 2.0)
    elif spec.kind == "commute_time":
        out = s**-0.5
    elif spec.kind == "mexican_hat":
        out = np.sqrt(s) * np.exp(-(s**2))
    elif spec.kind == "rational":
        num = np.polynomial.polynomial.polyval(s, spec.num)
        den = np.polynomial.polynomial.polyval(s, spec.den)
        if np.any(den == 0.0):
            raise SingularEvaluation("denominator vanishes at a requested s")
        out = num / den
    elif spec.kind == "custom":
        xs, ys = zip(*spec.table)
        out = np.interp(s, xs, ys)
    else:
        raise ValueError(f"unknown filter kind {spec.kind!r}")
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class PartialFraction:
    """phi(s) ~ alpha0 + sum alpha (1 + beta s)^{-mult}.

    terms are (alpha, beta, mult) with complex alpha, beta; complex poles
    occur in exact conjugate pairs with conjugate weights.  mult > 1 arises
    only for repeated real poles and is evaluated by chained first-order
    stages on the operator side.
    """

    alpha0: float
    terms: tuple
    degree: int

    def scaled(self, t):
        """Fold a scale into the nodes: phi(t s) has nodes t*beta."""
        return PartialFraction(
            self.alpha0,
            tuple((a, t * b, m) for a, b, m in self.terms),
            self.degree,
        )

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        out = np.full(s.shape, self.alpha0, dtype=complex)
        for a, b, m in self.terms:
            out += a / (1.0 + b * s) ** m
        scale = np.abs(out).max()
        if scale > 0 and np.abs(out.imag).max() > 1e-12 * scale:
            raise ArithmeticError("partial fraction evaluated non-real")
        return float(out[0].real) if scalar else out.real


def exp_chebyshev_coefficients(r=5):
    """Precomputed partial fractions of the uniform rational approximation
    of exp(-s) on [0, inf) at degree r in 3..14.

    The table is validated at generation time on a dense log grid; the
    verified sup error per degree is available as ``exp_table_error(r)``.
    """
    if r not in TABLE:
        raise UnsupportedDegree(f"no table for degree {r}; supported: 3..14")
    alpha0, pairs = TABLE[r]
    terms = tuple((a, b, 1) for a, b in pairs)
    return PartialFraction(alpha0, terms, r)


def exp_table_error(r):
    """Verified uniform error of the degree-r exponential table."""
    if r not in SUP_ERROR:
        raise UnsupportedDegree(f"no table for degree {r}; supported: 3..14")
    return SUP_ERROR[r]


def _taylor_at(coeffs, mu, order):
    """First `order` Taylor coefficients of a polynomial about s = mu."""
    c = np.asarray(coeffs, dtype=complex)
    out = np.zeros(order, dtype=complex)
    for i in range(order):
        if len(c) == 0:
            break
        out[i] = np.polynomial.polynomial.polyval(mu, c)
        c = np.polynomial.polynomial.polyder(c)
        c /= i + 1.0
    return out


def _series_divide(num, den, order):
    """Truncated power-series division num/den (den[0] != 0)."""
    q = np.zeros(order, dtype=complex)
    for i in range(order):
        acc = num[i] if i < len(num) else 0.0
        for j in range(i):
            acc -= q[j] * den[i - j]
        q[i] = acc / den[0]
    return q


def rational_partial_fractions(spec):
    """Exact partial fractions of a rational filter in (1+beta s) form.

    Repeated real denominator roots become higher-multiplicity terms
    (evaluated by chained solves); repeated complex roots are rejected.
    A root at s=0 is not representable in this form.
    """
    if spec.kind != "rational":
        raise ValueError("rational_partial_fractions needs a rational filter")
    num = np.array(spec.num, dtype=float)
    den = np.array(spec.den, dtype=float)
    den_deg = len(den) - 1
    if den_deg == 0:
        return PartialFraction(num[0] / den[0] if len(num) else 0.0, (), 0)

    # alpha0 = limit at infinity: leading-coefficient ratio at equal degree
    if len(num) == len(den):
        alpha0 = num[-1] / den[-1]
        num = num - alpha0 * den
        num = np.trim_zeros(num, "b")
        if len(num) == 0:
            return PartialFraction(alpha0, (), den_deg)
    else:
        alpha0 = 0.0

    roots = np.roots(den[::-1])
    # cluster roots: np.roots splits an exact double root by ~sqrt(eps)
    tol = 1e-6 * max(1.0, np.abs(roots).max())
    groups = []
    for r in roots:
        for g in groups:
            if abs(r - g[0]) < tol:
                g.append(r)
                break
        else:
            groups.append([r])
    terms = []
    for g in groups:
        mu = np.mean(g)
        m = len(g)
        if abs(mu) < tol:
            raise ValueError(
                "denominator root at s=0; use a singular filter kind instead"
            )
        if m > 1 and abs(mu.imag) > tol:
            raise RepeatedRoots("repeated complex denominator roots unsupported")
        if abs(mu.imag) <= tol and np.isreal(den).all():
            mu = complex(mu.real, 0.0)
        # Taylor expansion of num/(den with this root removed) about mu
        reduced = den[::-1]
        for _ in range(m):
            reduced, rem = np.polydiv(reduced, np.array([1.0, -mu]))
        taylor_num = _taylor_at(num, mu, m)
        taylor_den = _taylor_at(reduced[::-1], mu, m)
        series = _series_divide(taylor_num, taylor_den, m)
        lead = den[-1]
        for j in range(m, 0, -1):
            # residue of order j is the series coefficient m-j
            r_j = series[m - j] / lead
            if r_j == 0.0:
                continue
            # r/(s-mu)^j = r*(-mu)^{-j} (1 + beta s)^{-j}, beta = -1/mu
            alpha = r_j * (-mu) ** (-j)
            beta = -1.0 / mu
            terms.append((alpha, beta, j))
    terms.sort(key=lambda t: (t[2], t[1].real, t[1].imag))
    return PartialFraction(float(alpha0), tuple(terms), den_deg)


def partial_fractions(spec, r=5):
    """Rational form of a filter for the spectrum-free path.

    exponential uses the precomputed table (scaled by t); rational filters
    decompose exactly.  Other filters have no rational form and are usable
    only on the truncated path.
    """
    if spec.kind == "exponential":
        return exp_chebyshev_coefficients(r).scaled(spec.t)
    if spec.kind == "rational":
        return rational_partial_fractions(spec)
    raise UnsupportedFeature(
        f"filter {spec.kind!r} has no rational form; use the truncated path"
    )


def parse_filter(text):
    """Parse the CLI filter mini-language.

    Examples: ``exp:t=0.1``, ``poly:k=2``, ``commute``, ``mexican``,
    ``rat:num=1;den=1,0,1`` (coefficients low-to-high degree).
    """
    head, _, rest = text.partition(":")
    head = head.strip()
    try:
        if head == "exp":
            key, _, val = rest.partition("=")
            if key.strip() != "t":
                raise ValueError("exp takes t=<scale>")
            return FilterSpec.exponential(float(val))
        if head == "poly":
            key, _, val = rest.partition("=")
            if key.strip() != "k":
                raise ValueError("poly takes k=<order>")
            return FilterSpec.polyharmonic(int(val))
        if head == "commute":
            return FilterSpec.commute_time()
        if head == "mexican":
            return FilterSpec.mexican_hat()
        if head == "rat":
            parts = dict(
                kv.split("=", 1) for kv in rest.split(";") if kv.strip()
            )
            num = [float(c) for c in parts["num"].split(",")]
            den = [float(c) for c in parts["den"].split(",")]
            return FilterSpec.rational(num, den)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad filter expression {text!r}: {exc}") from exc
    raise ValueError(f"unknown filter {text!r}")
