"""Scalar special functions and disc geometry.

Everything here is a pure function of its inputs.  The Marcum Q function is
the tail of a non-central chi-square law with two degrees of freedom,

    Q1(a, b) = int_b^inf  y * exp(-(y^2 + a^2) / 2) * I0(ay) dy
             = P(chi'^2_2(a^2) > b^2),

computed by one of two engines split at x = ab = 50.

Up to x = 50: with t = min(a, b) / max(a, b) and the scaled Bessel functions
Î_k = exp(-x) I_k(x), the Neumann series reads

    Q1 = exp(-(b - a)^2 / 2) sum_{k>=0} t^k Î_k(x)          for b > a,
    1 - Q1 = exp(-(a - b)^2 / 2) sum_{k>=1} t^k Î_k(x)      for a >= b,

and one backward sweep of Miller's Bessel-ratio continued fraction gives both
sums (Gautschi 1967, SIAM Rev. 9) in at most 84 steps.

Past x = 50: the large-x expansion of Temme (1993) in the form of Gil,
Segura & Temme (2014, ACM TOMS Algorithm 939).  With d = b - a, rho = b / a,
sigma = d^2 / (2 x) and E = exp(-d^2 / 2),

    Q1 = H + sum_{n=1}^{11} (-1)^n (rho A_n(0) - A_n(1)) Phi_n / (2 sqrt(2 pi)),
    H = sqrt(rho) erfc(|d| / sqrt 2) / 2          for b >= a (1 - that for b < a),
    A_n(mu) = 2^-n Gamma(1/2 + mu + n) / (n! Gamma(1/2 + mu - n)),
    Phi_1 = 2 (E / sqrt(x) - sqrt(pi sigma) erfc(|d| / sqrt 2)),
    Phi_n = (E x^(1/2 - n) - sigma Phi_(n-1)) / (n - 1/2),

a fixed number of numpy steps per point at any x.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "marcum_q1",
    "cell_radius_pdf",
]

# Nakagami shape of the equal-area cell radius; the scale is fixed to 1.
_NAKAGAMI_M = 3.5
_NAKAGAMI_NORM = 2.0 * _NAKAGAMI_M**_NAKAGAMI_M / math.gamma(_NAKAGAMI_M)


# Past |a - b| = 9.5, Q1 is 0 or 1 to within exp(-9.5^2 / 2) < 3e-20: both sums are <= 1.
_MARCUM_SATURATION = 9.5
# The sweep runs for x = ab <= _MARCUM_SPLIT, the expansion of _MARCUM_TERMS terms above it.
_MARCUM_SPLIT = 50.0
_MARCUM_TERMS = 11


def _temme_coefficients(terms: int) -> np.ndarray:
    """(-1)^n (A_n(0), -A_n(1)) / (2 sqrt(2 pi)) for n = 1 .. terms, as (2, terms), each A_n(mu)
    by the ratio A_n / A_(n-1) = (mu + n - 1/2)(mu - n + 1/2) / (2n) from A_0 = 1."""
    n = np.arange(1, terms + 1)
    a = np.array([np.cumprod((mu + n - 0.5) * (mu - n + 0.5) / (2.0 * n)) for mu in (0, 1)])
    return a * np.array([[1.0], [-1.0]]) * (-1.0) ** n / (2.0 * math.sqrt(2.0 * math.pi))


_TEMME_COEFFS = _temme_coefficients(_MARCUM_TERMS)


def marcum_q1(a, b):
    """First-order Marcum Q function Q1(a, b) for a, b >= 0.

    Accepts scalars or broadcastable arrays.  Q1(a, b) is the upper tail at b^2 of the non-central
    chi-square law with 2 degrees of freedom and non-centrality a^2 (Marcum 1950; Nuttall 1975).
    Points with |a - b| >= 9.5 are 0 or 1; the others take the Bessel-ratio sweep (at most 84
    steps) for ab <= 50 and the 11-term large-ab expansion above, so no point costs more than a
    fixed number of numpy steps.
    """
    a_arr, b_arr = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if np.any(~np.isfinite(a_arr)) or np.any(~np.isfinite(b_arr)):
        raise DomainError("marcum_q1 requires finite arguments")
    if np.any(a_arr < 0) or np.any(b_arr < 0):
        raise DomainError("marcum_q1 requires a >= 0 and b >= 0")
    out = np.where(a_arr > b_arr, 1.0, 0.0)
    near = np.abs(a_arr - b_arr) < _MARCUM_SATURATION
    large = near & (a_arr * b_arr > _MARCUM_SPLIT)
    small = near & ~large
    if np.any(small):
        out[small] = _marcum_sweep(a_arr[small], b_arr[small])
    if np.any(large):
        out[large] = _marcum_expansion(a_arr[large], b_arr[large])
    if np.isscalar(a) and np.isscalar(b):
        return float(out)
    return out


def _marcum_sweep(a, b):
    """Q1 at 1-D arrays of points with ab <= 50 from the Neumann series of the module docstring.

    The ratios rho_k = Î_k / Î_(k-1) follow the continued fraction rho_k = x / (2k + x rho_(k+1)),
    started at rho = 0 about 9 sqrt(x) + 20 steps above k = 1, where Î_k / Î_0 ~ exp(-k^2 / 2x)
    is below 3e-18.  The same backward sweep runs two Horner sums,

        D_k = 1 + rho_k D_(k+1)        (Î_0 (2 D_1 - 1) = 1, from exp(x) = Î_0 + 2 sum Î_k),
        G_k = 1 + t rho_k G_(k+1)      (G_1 = sum_k t^k Î_k / Î_0),

    and each rho lies in [0, 1), so every value stays in [0, k + 1].  Every point starts at the
    depth of the largest x; a deeper start only lets the recurrence converge further.
    """
    x = a * b
    hi = np.maximum(a, b)
    t = np.divide(np.minimum(a, b), hi, out=np.zeros_like(hi), where=hi > 0)
    top = int(9.0 * np.sqrt(x.max()) + 20.0)
    rho = np.zeros_like(x)    # rho_(k+1)
    norm = np.ones_like(x)    # D_(k+1)
    horner = np.ones_like(x)  # G_(k+1)
    work = np.empty_like(x)
    for k in range(top, 1, -1):
        np.multiply(x, rho, out=work)
        work += 2.0 * k
        np.divide(x, work, out=rho)
        norm *= rho
        norm += 1.0
        horner *= rho
        horner *= t
        horner += 1.0
    rho = x / (2.0 + x * rho)
    i0 = 1.0 / (1.0 + 2.0 * rho * norm)   # 1 / (2 D_1 - 1)
    damp = np.exp(-0.5 * (a - b) ** 2) * i0
    tail = t * rho * horner   # G_1 - 1, kept apart so 1 - Q1 keeps its relative precision
    q = np.where(b > a, damp * (1.0 + tail), 1.0 - damp * tail)
    return np.clip(q, 0.0, 1.0)


def _marcum_expansion(a, b):
    """Q1 at 1-D arrays of points with ab > 50 from the large-x expansion of the module docstring.

    erfc is math.erfc mapped over the points, numpy having none.  Phi_n runs forward from Phi_1,
    with E x^(1/2 - n) carried as a running quotient.
    """
    x = a * b
    d = b - a
    rho = b / a
    sigma = d * d / (2.0 * x)
    erfc = np.fromiter(map(math.erfc, (np.abs(d) * math.sqrt(0.5)).tolist()), float, d.size)
    half = 0.5 * np.sqrt(rho) * erfc
    q = np.where(b >= a, half, 1.0 - half)
    power = np.exp(-0.5 * d * d) / np.sqrt(x)   # E x^(1/2 - n)
    phi = 2.0 * (power - np.sqrt(math.pi * sigma) * erfc)
    for n, (c_rho, c_one) in enumerate(_TEMME_COEFFS.T, start=1):
        if n > 1:
            power /= x
            phi *= -sigma
            phi += power
            phi /= n - 0.5
        q += (c_rho * rho + c_one) * phi
    return np.clip(q, 0.0, 1.0)


def _lens_area_arrays(r1, r2, d):
    """Vectorized intersection area of discs (r1, d=0 origin) and (r2, at d)."""
    r1, r2, d = np.broadcast_arrays(
        np.asarray(r1, dtype=float), np.asarray(r2, dtype=float), np.asarray(d, dtype=float)
    )
    out = np.zeros(d.shape)
    small = np.minimum(r1, r2)
    contained = d <= np.abs(r1 - r2)
    disjoint = d >= r1 + r2
    lens = ~(contained | disjoint)
    out[contained] = np.pi * small[contained] ** 2
    if np.any(lens):
        a, b, s = r1[lens], r2[lens], d[lens]
        # t = 2 * area of the triangle with sides a, b, s (Heron), kept >= 0
        # against roundoff at tangency
        t = np.sqrt(np.maximum((a + b + s) * (a + b - s) * (a - b + s) * (-a + b + s), 0.0))
        out[lens] = (
            a**2 * np.arctan2(t, s**2 + a**2 - b**2)
            + b**2 * np.arctan2(t, s**2 - a**2 + b**2)
            - 0.5 * t
        )
    return out


def cell_radius_pdf(r):
    """PDF of the normalized equal-area radius of the typical cell.

    sqrt(pi * lam_b) * R_c follows a Nakagami(3.5, 1) law, equivalently the
    cell area scaled by lam_b follows Gamma(3.5, 1/3.5).
    """
    arr = np.asarray(r, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0):
        raise DomainError("cell_radius_pdf requires finite r >= 0")
    out = _NAKAGAMI_NORM * arr**6 * np.exp(-_NAKAGAMI_M * arr**2)
    return float(out) if np.isscalar(r) or arr.ndim == 0 else out
