"""Scalar special functions and disc geometry.

Everything here is a pure function of its inputs.  The Marcum Q function is
the tail of a non-central chi-square law with two degrees of freedom,

    Q1(a, b) = int_b^inf  y * exp(-(y^2 + a^2) / 2) * I0(ay) dy
             = P(chi'^2_2(a^2) > b^2),

so it is read off scipy's non-central chi-square CDF.
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


def marcum_q1(a, b):
    """First-order Marcum Q function Q1(a, b) for a, b >= 0.

    Accepts scalars or broadcastable arrays.  Q1(a, b) is the upper tail at b^2 of the non-central
    chi-square law with 2 degrees of freedom and non-centrality a^2 (Marcum 1950; Nuttall 1975).
    chndtr is verified up to a = 3000 and costs O(a) per point, so a > 3000 raises ConvergenceError.
    """
    from scipy import special as _sp  # here, not at import: it doubles `import cellload`
    a_arr, b_arr = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if np.any(~np.isfinite(a_arr)) or np.any(~np.isfinite(b_arr)):
        raise DomainError("marcum_q1 requires finite arguments")
    if np.any(a_arr < 0) or np.any(b_arr < 0):
        raise DomainError("marcum_q1 requires a >= 0 and b >= 0")
    if np.any(a_arr > 3000.0):
        raise ConvergenceError(f"marcum_q1: a = {a_arr.max():.4g} exceeds 3000, the verified range "
                               "of chndtr (a Thomas sigma below about 5.6e-4 / sqrt(lambda_b))")
    out = np.clip(1.0 - _sp.chndtr(b_arr**2, 2.0, a_arr**2), 0.0, 1.0)
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
