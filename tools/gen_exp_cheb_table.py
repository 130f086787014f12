"""Regenerate the rational approximation table for exp(-s) on [0, inf).

Computes, for each degree r, the near-best uniform rational approximation of
the exponential on the negative real axis via the Caratheodory-Fejer method
(FFT of the Chebyshev expansion, Hankel SVD, Blaschke product), converts the
poles/residues to the alpha0 + sum alpha_j (1 + beta_j s)^{-1} form used by
the shifted-solve evaluator, and writes them as a Python module with exactly
conjugate-symmetric pairs.

Usage: python tools/gen_exp_cheb_table.py [output_path]
Default output: src/lapbasis/_exp_cheb.py (relative to the repo root).
"""

import os
import sys

import numpy as np
from scipy.linalg import hankel, svd

DEGREES = range(3, 15)
# alpha0 is fitted, and each degree's error checked, on this grid
GRID = np.concatenate([[0.0], np.geomspace(1e-8, 1e4, 200001)])


def cf_exp_negative_axis(n, big_k=75, nf=1024, scl=9.0):
    """Poles z_k and residues c_k of the CF approximant of e^x on (-inf, 0]."""
    w = np.exp(2j * np.pi * np.arange(nf) / nf)
    t = w.real
    # exp(x) transplanted to the unit circle: x = scl*(t-1)/(t+1)
    F = np.exp(scl * (t - 1.0) / (t + 1.0 + 1e-16))
    c = np.real(np.fft.fft(F)) / nf
    f = np.polyval(c[big_k::-1], w)
    U, S, Vh = svd(hankel(c[1 : big_k + 1]))
    s_sv = S[n]
    u = U[::-1, n]
    v = Vh[n, :]
    pad = np.zeros(nf - big_k)
    b = np.fft.fft(np.concatenate([u, pad])) / np.fft.fft(np.concatenate([v, pad]))
    rt = f - s_sv * w**big_k * b
    zr = np.roots(v)
    qk = zr[np.abs(zr) > 1.0]  # poles of the Blaschke quotient, outside the disk
    if len(qk) != n:
        raise RuntimeError(f"degree {n}: found {len(qk)} poles")
    qc = np.real(np.poly(qk))
    pt = rt * np.polyval(qc, w)
    ptc = np.real(np.fft.fft(pt) / nf)[n::-1]
    ck = np.zeros(n, dtype=complex)
    for k in range(n):
        others = np.poly(qk[np.arange(n) != k])
        ck[k] = np.polyval(ptc, qk[k]) / np.polyval(others, qk[k])
    # transplant the poles back to the x-plane
    zk = scl * (qk - 1.0) ** 2 / (qk + 1.0) ** 2
    ck = 4.0 * ck * zk / (qk**2 - 1.0)
    return zk, ck


def to_partial_fraction(zk, ck, grid):
    """Convert x-plane poles/residues to the (alpha, beta) form for e^{-s}.

    e^{-s} at s = -x: a pole term ck/(x - zk) becomes alpha/(1 + beta s)
    with beta = 1/zk, alpha = -ck/zk.  alpha0 is fitted as the midpoint of
    the residual range over the grid, which centres the error band.
    """
    beta = 1.0 / zk
    alpha = -ck / zk
    vals = np.zeros_like(grid)
    for a, b in zip(alpha, beta):
        vals += (a / (1.0 + b * grid)).real
    d = np.exp(-grid) - vals
    alpha0 = 0.5 * (d.max() + d.min())
    return alpha0, alpha, beta


def symmetrize(alpha, beta):
    """Force exact conjugate pairing: real poles get zero imaginary part,
    complex poles are emitted as explicit conjugate pairs."""
    pairs = []
    used = np.zeros(len(beta), dtype=bool)
    for i in range(len(beta)):
        if used[i]:
            continue
        if abs(beta[i].imag) < 1e-12 * abs(beta[i]):
            pairs.append((complex(alpha[i].real, 0.0), complex(beta[i].real, 0.0)))
            used[i] = True
            continue
        # find the conjugate partner
        j = np.argmin(np.abs(beta - beta[i].conjugate()))
        a = 0.5 * (alpha[i] + alpha[j].conjugate())
        b = 0.5 * (beta[i] + beta[j].conjugate())
        if b.imag < 0:
            a, b = a.conjugate(), b.conjugate()
        pairs.append((a, b))
        pairs.append((a.conjugate(), b.conjugate()))
        used[i] = used[j] = True
    return pairs


def main(out_path):
    table = {}
    errors = {}
    for n in DEGREES:
        zk, ck = cf_exp_negative_axis(n)
        alpha0, alpha, beta = to_partial_fraction(zk, ck, GRID)
        pairs = symmetrize(alpha, beta)
        vals = np.full_like(GRID, alpha0)
        for a, b in pairs:
            vals += (a / (1.0 + b * GRID)).real
        err = float(np.max(np.abs(vals - np.exp(-GRID))))
        table[n] = (alpha0, pairs)
        errors[n] = err
        print(f"degree {n:2d}: sup error {err:.3e} over [0, 1e4]")

    lines = [
        '"""Partial-fraction tables for the rational approximation of exp(-s).',
        "",
        "Generated by tools/gen_exp_cheb_table.py; do not edit by hand.",
        "Each entry maps degree r to (alpha0, ((alpha, beta), ...)) where the",
        "approximation is alpha0 + sum alpha/(1 + beta*s), poles in exact",
        "conjugate pairs.  SUP_ERROR records the verified uniform error of",
        'each degree over a dense log grid on [0, 1e4]."""',
        "",
        "TABLE = {",
    ]
    for n in DEGREES:
        alpha0, pairs = table[n]
        lines.append(f"    {n}: ({float(alpha0)!r}, (")
        for a, b in pairs:
            lines.append(f"        ({complex(a)!r}, {complex(b)!r}),")
        lines.append("    )),")
    lines.append("}")
    lines.append("")
    lines.append("SUP_ERROR = {")
    for n in DEGREES:
        lines.append(f"    {n}: {float(errors[n])!r},")
    lines.append("}")
    lines.append("")
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines))
    print(f"wrote {out_path}")


if __name__ == "__main__":
    default = os.path.join(
        os.path.dirname(__file__), "..", "src", "lapbasis", "_exp_cheb.py"
    )
    main(sys.argv[1] if len(sys.argv) > 1 else os.path.normpath(default))
