"""Spectral filters and their rational partial-fraction forms.

A filter phi maps eigenvalues s >= 0 to positive weights.  The spectrum-free
evaluation path needs phi as alpha0 + sum alpha_j (1 + beta_j s)^{-m_j}: for
the exponential this comes from a precomputed rational approximation table,
for rational filters from their denominator's roots and a least-squares
fit of the weights.
"""

from dataclasses import dataclass

import numpy as np

from ._exp_cheb import SUP_ERROR, TABLE
from .errors import (
    DegreeMismatch,
    InaccurateDecomposition,
    SingularEvaluation,
    UnsupportedDegree,
    UnsupportedFeature,
)

# filters with a pole at s=0; the constant eigenmode must be deflated
SINGULAR_AT_ZERO = ("polyharmonic",)
# filters with a partial-fraction form, usable on the spectrum-free route
RATIONAL_FORM = ("exponential", "rational")


@dataclass(frozen=True)
class FilterSpec:
    """A named filter with its parameters.

    Use the classmethod constructors; params depend on the kind:
    exponential(t) = exp(-t s); polyharmonic(k) = s^{-k/2} for an integer
    k >= 1 (k = 1 is the commute-time filter s^{-1/2}, parsed from
    ``commute``); mexican_hat = s^{1/2} exp(-s^2);
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
        if not 0 < t < np.inf:
            raise ValueError(f"diffusion scale t must be finite and positive,"
                             f" got {t!r}")
        return cls("exponential", t=float(t))

    @classmethod
    def polyharmonic(cls, k):
        # int() would truncate 2.9 to the Green kernel's k = 2 unasked
        if isinstance(k, bool) or not float(k).is_integer() or k < 1:
            raise ValueError(f"polyharmonic order k must be an integer >= 1,"
                             f" got {k!r}")
        return cls("polyharmonic", k=int(k))

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
        if not np.isfinite(num + den).all():
            raise ValueError(f"rational coefficients must be finite, got "
                             f"num={num}, den={den}")
        return cls("rational", num=num, den=den)

    @classmethod
    def custom(cls, samples):
        samples = tuple(sorted((float(s), float(v)) for s, v in samples))
        if len(samples) < 2:
            raise ValueError("custom filter needs at least two samples")
        if not np.isfinite(samples).all():
            raise ValueError(f"custom filter samples must be finite, got "
                             f"{samples}")
        return cls("custom", table=samples)

    @property
    def singular_at_zero(self):
        return self.kind in SINGULAR_AT_ZERO

    @property
    def has_rational_form(self):
        return self.kind in RATIONAL_FORM

    def describe(self):
        """The parse_filter expression of this filter (custom has none)."""
        if self.kind == "exponential":
            return f"exp:t={self.t!r}"
        if self.kind == "polyharmonic":
            return f"poly:k={self.k}"
        if self.kind == "rational":
            num = ",".join(repr(c) for c in self.num)
            den = ",".join(repr(c) for c in self.den)
            return f"rat:num={num};den={den}"
        return {"mexican_hat": "mexican"}.get(self.kind, self.kind)


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
    """phi(s) ~ alpha0 + sum Re(w_j (1 + beta s)^{-j}), j = 1..m per pole.

    poles are ((beta, (w_1, ..., w_m)), ...), each distinct pole once: beta
    a float when real, else in the upper half-plane, its conjugate implied.
    The form is real by construction; m > 1 arises for a repeated root,
    real or complex.
    """

    alpha0: float
    poles: tuple
    degree: int

    def scaled(self, t):
        """Fold a scale into the nodes: phi(t s) has nodes t*beta."""
        return PartialFraction(
            self.alpha0, tuple((t * b, w) for b, w in self.poles), self.degree)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = np.full(s.shape, float(self.alpha0))
        for beta, weights in self.poles:
            for j, w in enumerate(weights, 1):
                out += (w / (1.0 + beta * s) ** j).real
        return float(out) if out.ndim == 0 else out


def exp_chebyshev_coefficients(r=5):
    """Precomputed partial fractions of the uniform rational approximation
    of exp(-s) on [0, inf) at degree r in 3..14.

    Each conjugate pair of the table keeps its upper member with twice its
    weight.  The table is validated at generation time on a dense log
    grid; the verified sup error per degree is ``exp_table_error(r)``.
    """
    if r not in TABLE:
        raise UnsupportedDegree(f"no table for degree {r}; supported: 3..14")
    alpha0, pairs = TABLE[r]
    poles = tuple((b.real, (a.real,)) if b.imag == 0 else (b, (2 * a,))
                  for a, b in pairs if b.imag >= 0)
    return PartialFraction(alpha0, poles, r)


def exp_table_error(r):
    """Verified uniform error of the degree-r exponential table."""
    if r not in SUP_ERROR:
        raise UnsupportedDegree(f"no table for degree {r}; supported: 3..14")
    return SUP_ERROR[r]


# np.roots splits an m-fold root by about eps^(1/m) (6e-6 at m = 3): root
# groupings, relative to the largest root, tried until the check passes
CLUSTER_RTOLS = (1e-6, 1e-4, 1e-2)
DECOMPOSITION_RTOL = 1e-10  # relative to max |phi| on the check grid


def _poles(roots, tol):
    """(beta, m) per distinct pole of the roots, those within tol grouped.

    beta = -1/root is a float when real; a complex pair appears once, as
    its upper-half-plane root.
    """
    groups = []
    for r in roots:
        for g in groups:
            if abs(r - g[0]) < tol:
                g.append(r)
                break
        else:
            groups.append([r])
    poles = []
    for g in groups:
        mu = np.mean(g)
        if abs(mu.imag) <= tol:
            poles.append((-1.0 / float(mu.real), len(g)))
        elif mu.imag > 0:  # a lower root is its mirror's conjugate: folded
            poles.append((-1.0 / mu, len(g)))
    return poles


def _fit(poles, s, target):
    """Weights w_j of sum Re(w_j (1 + beta s)^{-j}) ~ target on the grid s.

    One real least-squares fit: a real pole gives one column per order, a
    complex one two, Re and Im of (1 + beta s)^{-j}, and then w = x_re -
    i x_im.
    """
    if not poles:
        return ()
    cols = []
    for beta, m in poles:
        for j in range(1, m + 1):
            z = (1.0 + beta * s) ** -j
            cols += [z.real, z.imag] if isinstance(beta, complex) else [z]
    x = iter(np.linalg.lstsq(np.column_stack(cols), target, rcond=None)[0])
    return tuple(
        (beta, tuple(complex(next(x), -next(x)) if isinstance(beta, complex)
                     else float(next(x)) for _ in range(m)))
        for beta, m in poles)


def rational_partial_fractions(spec):
    """Partial fractions of a rational filter in (1+beta s) form.

    The poles are the denominator's roots, an m-fold root giving orders
    1..m (evaluated by chained solves); the weights are one least-squares
    fit to the filter on a log grid around the roots.  A pole whose weights
    all fit below DECOMPOSITION_RTOL max |phi| (a root the numerator
    cancels) is dropped and the rest refitted, if that still passes the
    check.  A root at s=0 is not representable in this form.  Raises
    InaccurateDecomposition unless the result matches evaluate() on that
    grid to DECOMPOSITION_RTOL for some grouping of the roots
    (CLUSTER_RTOLS).
    """
    if spec.kind != "rational":
        raise ValueError("rational_partial_fractions needs a rational filter")
    num = np.array(spec.num, dtype=float)
    den = np.array(spec.den, dtype=float)
    den_deg = len(den) - 1
    if den_deg == 0:
        return PartialFraction(num[0] / den[0] if len(num) else 0.0, (), 0)

    # alpha0 = limit at infinity: leading-coefficient ratio at equal degree
    alpha0 = num[-1] / den[-1] if len(num) == len(den) else 0.0
    roots = np.roots(den[::-1])
    scale = np.abs(roots).max()  # the filter's own scale, not a unit length
    if np.abs(roots).min() <= CLUSTER_RTOLS[0] * scale:
        raise ValueError(
            "denominator root at s=0; use a singular filter kind instead"
        )
    # every root lies in [1e-6, 1] * scale: three decades beyond both ends
    s = np.r_[0.0, np.logspace(-9, 3, 800) * scale]
    want = evaluate(spec, s)
    tol = DECOMPOSITION_RTOL * np.abs(want).max()
    for rtol in CLUSTER_RTOLS:
        full = _fit(_poles(roots, rtol * scale), s, want - alpha0)
        kept = [(beta, len(w)) for beta, w in full if max(map(abs, w)) > tol]
        for poles in (_fit(kept, s, want - alpha0), full):
            pf = PartialFraction(float(alpha0), poles, den_deg)
            err = np.abs(pf(s) - want).max()
            if err <= tol:
                return pf
    raise InaccurateDecomposition(
        f"partial fractions of {spec.describe()} are off by {err:.1e}"
    )


def partial_fractions(spec, r=5):
    """Rational form of a filter for the spectrum-free path.

    exponential uses the precomputed table (scaled by t); rational filters
    decompose over their roots (rational_partial_fractions).  Other filters
    have no rational form and are usable only on the truncated path.
    """
    if not spec.has_rational_form:
        raise UnsupportedFeature(
            f"filter {spec.kind!r} has no rational form; use the truncated path"
        )
    if spec.kind == "exponential":
        return exp_chebyshev_coefficients(r).scaled(spec.t)
    return rational_partial_fractions(spec)


def parse_filter(text):
    """Parse the CLI filter mini-language.

    Examples: ``exp:t=0.1``, ``poly:k=2``, ``commute``, ``mexican``,
    ``rat:num=1;den=1,0,1`` (coefficients low-to-high degree).
    """
    head, sep, rest = text.partition(":")
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
        if head in ("commute", "mexican"):
            if sep:
                raise ValueError(f"{head} takes no parameters")
            return (FilterSpec.polyharmonic(1) if head == "commute"
                    else FilterSpec.mexican_hat())
        if head == "rat":
            parts = {}
            for kv in filter(str.strip, rest.split(";")):
                key, _, val = kv.partition("=")
                if key not in ("num", "den") or key in parts:
                    raise ValueError(f"rat takes num=...;den=... once each, "
                                     f"not {kv.strip()!r}")
                parts[key] = val
            for key in ("num", "den"):
                if key not in parts:
                    raise ValueError(f"rat needs {key}=<coefficients>")
            num = [float(c) for c in parts["num"].split(",")]
            den = [float(c) for c in parts["den"].split(",")]
            return FilterSpec.rational(num, den)
    except ValueError as exc:
        raise ValueError(f"bad filter expression {text!r}: {exc}") from exc
    raise ValueError(f"unknown filter {text!r}")
