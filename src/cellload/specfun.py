"""Scalar special functions and disc geometry.

Everything here is a pure function of its inputs.  The Marcum Q function is
the tail of a non-central chi-square law with two degrees of freedom,

    Q1(a, b) = int_b^inf  y * exp(-(y^2 + a^2) / 2) * I0(ay) dy
             = P(chi'^2_2(a^2) > b^2).

With x = ab, t = min(a, b) / max(a, b) and the scaled Bessel functions
Î_k = exp(-x) I_k(x), its Neumann series reads

    Q1 = exp(-(b - a)^2 / 2) sum_{k>=0} t^k Î_k(x)          for b > a,
    1 - Q1 = exp(-(a - b)^2 / 2) sum_{k>=1} t^k Î_k(x)      for a >= b,

and one backward sweep of Miller's Bessel-ratio continued fraction gives both
sums (Gautschi 1967, SIAM Rev. 9).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "marcum_q1",
    "cell_radius_pdf",
]

# Nakagami shape of the equal-area cell radius; the scale is fixed to 1.
_NAKAGAMI_M = 3.5
_NAKAGAMI_NORM = 2.0 * _NAKAGAMI_M**_NAKAGAMI_M / math.gamma(_NAKAGAMI_M)


# Past |a - b| = 9.5, Q1 is 0 or 1 to within exp(-9.5^2 / 2) < 3e-20: both sums are <= 1.
_MARCUM_SATURATION = 9.5


def marcum_q1(a, b):
    """First-order Marcum Q function Q1(a, b) for a, b >= 0.

    Accepts scalars or broadcastable arrays.  Q1(a, b) is the upper tail at b^2 of the non-central
    chi-square law with 2 degrees of freedom and non-centrality a^2 (Marcum 1950; Nuttall 1975).
    A point costs about 9 sqrt(ab) steps of the sweep, verified against scipy's chndtr up to
    a = 3000, so a > 3000 raises ConvergenceError.
    """
    a_arr, b_arr = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if np.any(~np.isfinite(a_arr)) or np.any(~np.isfinite(b_arr)):
        raise DomainError("marcum_q1 requires finite arguments")
    if np.any(a_arr < 0) or np.any(b_arr < 0):
        raise DomainError("marcum_q1 requires a >= 0 and b >= 0")
    if np.any(a_arr > 3000.0):
        raise ConvergenceError(f"marcum_q1: a = {a_arr.max():.4g} exceeds 3000, the verified range "
                               "of its Bessel-ratio sweep (a Thomas sigma below about "
                               "5.6e-4 / sqrt(lambda_b))")
    out = np.where(a_arr > b_arr, 1.0, 0.0)
    near = np.abs(a_arr - b_arr) < _MARCUM_SATURATION
    if np.any(near):
        out[near] = _marcum_sweep(a_arr[near], b_arr[near])
    if np.isscalar(a) and np.isscalar(b):
        return float(out)
    return out


def _marcum_sweep(a, b):
    """Q1 at 1-D arrays of points from the Neumann series of the module docstring.

    The ratios rho_k = Î_k / Î_(k-1) follow the continued fraction rho_k = x / (2k + x rho_(k+1)),
    started at rho = 0 about 9 sqrt(x) + 20 steps above k = 1, where Î_k / Î_0 ~ exp(-k^2 / 2x)
    is below 3e-18.  The same backward sweep runs two Horner sums,

        D_k = 1 + rho_k D_(k+1)        (Î_0 (2 D_1 - 1) = 1, from exp(x) = Î_0 + 2 sum Î_k),
        G_k = 1 + t rho_k G_(k+1)      (G_1 = sum_k t^k Î_k / Î_0),

    and each rho lies in [0, 1), so every value stays in [0, k + 1].  The points run longest-first,
    so step k updates the prefix of points whose sweep has begun.
    """
    x = a * b
    hi = np.maximum(a, b)
    t = np.divide(np.minimum(a, b), hi, out=np.zeros_like(hi), where=hi > 0)
    steps = (9.0 * np.sqrt(x) + 20.0).astype(np.intp)
    order = np.argsort(-steps, kind="stable")
    a, b, x, t = a[order], b[order], x[order], t[order]
    top = int(steps[order[0]])
    ks = np.arange(top, 1, -1)
    live = np.searchsorted(-steps[order], -ks, side="right")   # points with steps >= k
    rho = np.zeros_like(x)    # rho_(k+1); 0 above a point's start
    norm = np.ones_like(x)    # D_(k+1)
    horner = np.ones_like(x)  # G_(k+1)
    work = np.empty_like(x)
    for k, n in zip(ks.tolist(), live.tolist()):
        xs, rs, ws, ds, gs = x[:n], rho[:n], work[:n], norm[:n], horner[:n]
        np.multiply(xs, rs, out=ws)
        ws += 2.0 * k
        np.divide(xs, ws, out=rs)
        ds *= rs
        ds += 1.0
        gs *= rs
        gs *= t[:n]
        gs += 1.0
    rho = x / (2.0 + x * rho)
    i0 = 1.0 / (1.0 + 2.0 * rho * norm)   # 1 / (2 D_1 - 1)
    damp = np.exp(-0.5 * (a - b) ** 2) * i0
    tail = t * rho * horner   # G_1 - 1, kept apart so 1 - Q1 keeps its relative precision
    q = np.where(b > a, damp * (1.0 + tail), 1.0 - damp * tail)
    out = np.empty_like(q)
    out[order] = np.clip(q, 0.0, 1.0)
    return out


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
