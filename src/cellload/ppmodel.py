"""Spatial model: clustered users over a Poisson network of base stations.

Users form a Poisson cluster process: parents are a PPP of intensity
lambda_p, each parent spawns Poisson(m_bar) offspring displaced by an
isotropic kernel.  Two kernels are supported:

* Thomas: Gaussian displacement with standard deviation sigma,
* Matern: uniform displacement in a disc of the given radius.

This module holds the model value types plus the derived first- and
second-order densities every analytic formula consumes: the conditional
distance PDF/CDF of an offspring seen from the origin given its parent's
distance, and the pair-correlation (second-order product) density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError
from .specfun import _lens_area_arrays, bessel_i0_scaled, marcum_q1

__all__ = [
    "Thomas",
    "Matern",
    "ClusterKind",
    "UserModel",
    "NetworkModel",
    "conditional_distance_pdf",
    "cluster_cdf",
    "pair_correlation_density",
]


@dataclass(frozen=True)
class Thomas:
    """Gaussian displacement kernel; sigma is the per-axis std deviation."""

    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise DomainError(f"Thomas.sigma must be positive, got {self.sigma!r}")


@dataclass(frozen=True)
class Matern:
    """Uniform-in-disc displacement kernel."""

    radius: float

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise DomainError(f"Matern.radius must be positive, got {self.radius!r}")


ClusterKind = Union[Thomas, Matern]


@dataclass(frozen=True)
class UserModel:
    lambda_p: float
    m_bar: float
    kind: ClusterKind

    def __post_init__(self):
        if not (np.isfinite(self.lambda_p) and self.lambda_p > 0):
            raise DomainError(f"UserModel.lambda_p must be positive, got {self.lambda_p!r}")
        if not (np.isfinite(self.m_bar) and self.m_bar > 0):
            raise DomainError(f"UserModel.m_bar must be positive, got {self.m_bar!r}")

    @property
    def intensity(self) -> float:
        """Stationary user intensity lambda_u = m_bar * lambda_p."""
        return self.m_bar * self.lambda_p

    @property
    def cluster_scale(self) -> float:
        return self.kind.sigma if isinstance(self.kind, Thomas) else self.kind.radius

    def rescaled(self, length_factor: float) -> "UserModel":
        """Model after multiplying all lengths by length_factor."""
        if isinstance(self.kind, Thomas):
            kind = Thomas(self.kind.sigma * length_factor)
        else:
            kind = Matern(self.kind.radius * length_factor)
        return UserModel(self.lambda_p / length_factor**2, self.m_bar, kind)


@dataclass(frozen=True)
class NetworkModel:
    lambda_b: float
    users: UserModel

    def __post_init__(self):
        if not (np.isfinite(self.lambda_b) and self.lambda_b > 0):
            raise DomainError(f"NetworkModel.lambda_b must be positive, got {self.lambda_b!r}")

    def normalized(self) -> "NetworkModel":
        """Equivalent model with lambda_b = 1 (lengths in units of 1/sqrt(lambda_b)).

        Cell loads are counts, so every load statistic of the normalized model
        equals that of the original.
        """
        factor = math.sqrt(self.lambda_b)
        return NetworkModel(1.0, self.users.rescaled(factor))


def _check_nonneg(name, arr):
    if np.any(~np.isfinite(arr)) or np.any(arr < 0):
        raise DomainError(f"{name} must be finite and non-negative")


def conditional_distance_pdf(model: UserModel, x, z):
    """PDF f_d(x | z) of the origin distance of an offspring whose parent sits
    at distance z.

    Thomas kernel: Rician, written with the scaled Bessel so it stays finite
    for x*z >> sigma^2.  Matern kernel: 2x/R^2 while the circle of radius x
    lies inside the cluster disc, then the arccos wedge up to x = R + z.
    """
    x_arr, z_arr = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(z, dtype=float))
    _check_nonneg("x", x_arr)
    _check_nonneg("z", z_arr)

    if isinstance(model.kind, Thomas):
        s2 = model.kind.sigma**2
        out = (x_arr / s2) * np.exp(-0.5 * (x_arr - z_arr) ** 2 / s2) * bessel_i0_scaled(
            x_arr * z_arr / s2
        )
    else:
        big_r = model.kind.radius
        out = np.zeros(x_arr.shape)
        inner = (z_arr <= big_r) & (x_arr <= big_r - z_arr)
        out[inner] = 2.0 * x_arr[inner] / big_r**2
        wedge = (x_arr > np.abs(big_r - z_arr)) & (x_arr <= big_r + z_arr) & (x_arr > 0) & (z_arr > 0)
        if np.any(wedge):
            xw, zw = x_arr[wedge], z_arr[wedge]
            cosarg = np.clip((xw**2 + zw**2 - big_r**2) / (2.0 * xw * zw), -1.0, 1.0)
            out[wedge] = 2.0 * xw / (math.pi * big_r**2) * np.arccos(cosarg)
    if np.isscalar(x) and np.isscalar(z):
        return float(out)
    return out


# Nodes of the wedge integral after u = lo + (hi - lo) sin^2(pi s / 2); the
# substitution flattens the square-root cusps of the arccos term at both
# integration limits, so a fixed Gauss-Legendre rule reaches ~1e-12.
_WEDGE_S, _WEDGE_W = np.polynomial.legendre.leggauss(48)
_WEDGE_S = 0.5 * (_WEDGE_S + 1.0)
_WEDGE_W = 0.5 * _WEDGE_W
_WEDGE_POS = np.sin(0.5 * math.pi * _WEDGE_S) ** 2
_WEDGE_JAC = 0.5 * math.pi * np.sin(math.pi * _WEDGE_S) * _WEDGE_W


def _matern_cdf_batch(big_r, r_arr, v_arr):
    head = np.minimum(r_arr, np.maximum(big_r - v_arr, 0.0)) ** 2
    lo = np.minimum(r_arr, np.abs(big_r - v_arr))
    hi = np.minimum(r_arr, big_r + v_arr)
    width = np.maximum(hi - lo, 0.0)
    u = lo[..., None] + width[..., None] * _WEDGE_POS
    vv = v_arr[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cosarg = np.where(
            u * vv > 0.0, (u**2 + vv**2 - big_r**2) / (2.0 * u * vv), 1.0
        )
    wedge = u * np.arccos(np.clip(cosarg, -1.0, 1.0))
    tail = width * (wedge @ _WEDGE_JAC)
    return (head + 2.0 / math.pi * tail) / big_r**2


def cluster_cdf(model: UserModel, r, v):
    """P(offspring within distance r of the origin | parent at distance v).

    Thomas: 1 - Q1(v/sigma, r/sigma) in closed Marcum form.  Matern: the
    contained-disc term plus the one remaining 1-D arccos integral; the
    min/max limits absorb every geometric case without branching.
    """
    r_arr, v_arr = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(v, dtype=float))
    _check_nonneg("r", r_arr)
    _check_nonneg("v", v_arr)

    if isinstance(model.kind, Thomas):
        sig = model.kind.sigma
        out = 1.0 - marcum_q1(v_arr / sig, r_arr / sig)
    else:
        out = np.clip(_matern_cdf_batch(model.kind.radius, r_arr, v_arr), 0.0, 1.0)
    if np.isscalar(r) and np.isscalar(v):
        return float(out)
    return out


def pair_correlation_density(model: UserModel, r):
    """Second-order product density rho2(r) of the user process.

    Equals lambda_u^2 plus a same-cluster excess: a Gaussian bump of total
    pair mass lambda_p * m_bar^2 (Thomas) or the normalized disc-overlap
    area, vanishing identically beyond 2R (Matern).
    """
    r_arr = np.asarray(r, dtype=float)
    _check_nonneg("r", r_arr)
    out = np.full(r_arr.shape, (model.lambda_p * model.m_bar) ** 2)
    out += pair_correlation_excess(model, r_arr)
    if np.isscalar(r):
        return float(out)
    return out


def pair_correlation_excess(model: UserModel, r):
    """Clustering excess rho2(r) - lambda_u^2 (vectorized, >= 0)."""
    r_arr = np.asarray(r, dtype=float)
    lam_p, m_bar = model.lambda_p, model.m_bar
    if isinstance(model.kind, Thomas):
        s2 = model.kind.sigma**2
        return lam_p * m_bar**2 / (4.0 * math.pi * s2) * np.exp(-0.25 * r_arr**2 / s2)
    big_r = model.kind.radius
    overlap = _lens_area_arrays(big_r, big_r, r_arr)
    return lam_p * m_bar**2 * overlap / (math.pi**2 * big_r**4)
