"""Scalar special functions and disc geometry.

Everything here is a pure function of its inputs.  The Marcum Q function is
evaluated by adaptive quadrature of its defining integral with the scaled
Bessel factor pulled inside the Gaussian envelope,

    Q1(a, b) = int_b^inf  y * exp(-(y - a)^2 / 2) * [e^{-ay} I0(ay)] dy,

which is overflow-free for every (a, b) and needs no series-selection logic.
Adaptivity is by panel doubling of a composite Gauss-Legendre rule, so the
routine accepts scalars or arrays of parameters at the same cost structure.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

from .errors import DomainError

__all__ = [
    "bessel_i0_scaled",
    "marcum_q1",
    "cell_radius_pdf",
]

# Nakagami shape of the equal-area cell radius; the scale is fixed to 1.
_NAKAGAMI_M = 3.5
_NAKAGAMI_NORM = 2.0 * _NAKAGAMI_M**_NAKAGAMI_M / math.gamma(_NAKAGAMI_M)


def bessel_i0_scaled(x):
    """e^{-x} I0(x) for x >= 0; bounded in (0, 1] for all finite x."""
    arr = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0):
        raise DomainError("bessel_i0_scaled requires finite x >= 0")
    out = _sp.i0e(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
# exp(-t^2/2) < 1e-22 beyond |t| = 10, far below the quadrature tolerance
_GAUSS_REACH = 10.0


def marcum_q1(a, b, tol: float = 1e-13):
    """First-order Marcum Q function Q1(a, b) for a, b >= 0.

    Accepts scalars or broadcastable arrays.  The defining integral is
    truncated where the Gaussian envelope is below 1e-22 and evaluated with a
    composite Gauss-Legendre rule whose panel count doubles until the result
    is stable to `tol` (absolute).
    """
    a_arr, b_arr = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if np.any(~np.isfinite(a_arr)) or np.any(~np.isfinite(b_arr)):
        raise DomainError("marcum_q1 requires finite arguments")
    if np.any(a_arr < 0) or np.any(b_arr < 0):
        raise DomainError("marcum_q1 requires a >= 0 and b >= 0")

    lo = np.maximum(b_arr, a_arr - _GAUSS_REACH)
    hi = np.maximum(b_arr + 2.0, a_arr + _GAUSS_REACH)

    def composite(f_lo, f_hi, f_a, n_panels):
        edges = np.linspace(0.0, 1.0, n_panels + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        halves = 0.5 * (edges[1] - edges[0])
        s = (mids[:, None] + halves * _GL_X).ravel()          # nodes in (0,1)
        w = np.tile(halves * _GL_W, n_panels)
        width = (f_hi - f_lo)[:, None]
        y = f_lo[:, None] + width * s
        g = y * np.exp(-0.5 * (y - f_a[:, None]) ** 2) * _sp.i0e(f_a[:, None] * y)
        return (g * (width * w)).sum(axis=1)

    def solve_chunk(f_lo, f_hi, f_a):
        n_panels = 12
        prev = composite(f_lo, f_hi, f_a, n_panels)
        for _ in range(6):
            n_panels *= 2
            cur = composite(f_lo, f_hi, f_a, n_panels)
            done = np.max(np.abs(cur - prev)) <= tol
            prev = cur
            if done:
                break
        return prev

    flat_lo, flat_hi, flat_a = lo.ravel(), hi.ravel(), a_arr.ravel()
    chunk = 16384  # bounds peak memory of the (chunk, panels*16) node matrix
    parts = [
        solve_chunk(flat_lo[i:i + chunk], flat_hi[i:i + chunk], flat_a[i:i + chunk])
        for i in range(0, flat_lo.size, chunk)
    ]
    out = np.clip(np.concatenate(parts).reshape(a_arr.shape), 0.0, 1.0)
    out = np.where(b_arr == 0.0, 1.0, out)  # integral of the full Rician density
    if np.isscalar(a) and np.isscalar(b):
        return float(out)
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


def _union_area_arrays(r1, r2, d):
    """Vectorized union area of the same two discs: pi r1^2 + pi r2^2 - lens."""
    return np.pi * (np.asarray(r1, dtype=float) ** 2 + np.asarray(r2, dtype=float) ** 2) - _lens_area_arrays(r1, r2, d)


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


def cell_radius_quantile(tail_mass: float) -> float:
    """Radius beyond which the normalized cell-radius law has `tail_mass`."""
    if not 0 < tail_mass < 1:
        raise DomainError("tail_mass must be in (0, 1)")
    return float(np.sqrt(_sp.gammainccinv(_NAKAGAMI_M, tail_mass) / _NAKAGAMI_M))
