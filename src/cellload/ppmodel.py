"""Spatial model: clustered users over a Poisson network of base stations.

Users form a Poisson cluster process: parents are a PPP of intensity
lambda_p, each parent spawns Poisson(m_bar) offspring displaced by an
isotropic kernel.  Two kernels are supported:

* Thomas: Gaussian displacement with standard deviation sigma,
* Matern: uniform displacement in a disc of the given radius.

This module holds the model value types plus the two derived quantities the
analytic formulas consume: the cluster CDF, the chance that an offspring
lies within a distance of the origin given its parent's distance, and the
clustering excess of the pair-correlation (second-order product) density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError
from .specfun import _lens_area_arrays, marcum_q1

__all__ = [
    "Thomas",
    "Matern",
    "ClusterKind",
    "UserModel",
    "NetworkModel",
    "cluster_reach",
    "cluster_plateau",
    "cluster_cdf",
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


# Gaussian clusters are truncated at this many standard deviations: an
# offspring lands farther from its parent with probability exp(-18) ~ 1.5e-8.
_CLUSTER_SIGMAS = 6.0


def cluster_reach(model: UserModel) -> float:
    """Distance from its parent within which (almost) every offspring lands:
    6 sigma for Thomas, the cluster radius for Matern."""
    if isinstance(model.kind, Thomas):
        return _CLUSTER_SIGMAS * model.kind.sigma
    return model.kind.radius


def cluster_plateau(model: UserModel, r):
    """(lo, xi) with cluster_cdf(model, r, v) = xi for v <= lo.  Thomas: max(r - 6 sigma, 0), empty
    below the reach, and 1 up to the e^-18 tail the reach truncates.  Matern: |r - R|, within which
    one of b(o, r) and the parent's disc contains the other, and min(r, R)^2 / R^2 exactly."""
    if isinstance(model.kind, Thomas):
        return np.maximum(r - cluster_reach(model), 0.0), np.ones_like(r)
    big_r = model.kind.radius
    return np.abs(r - big_r), np.minimum(r, big_r) ** 2 / big_r**2


def _check_nonneg(name, arr):
    if np.any(~np.isfinite(arr)) or np.any(arr < 0):
        raise DomainError(f"{name} must be finite and non-negative")


def cluster_cdf(model: UserModel, r, v):
    """P(offspring within distance r of the origin | parent at distance v).

    Thomas: 1 - Q1(v/sigma, r/sigma) in closed Marcum form.  Matern: the
    offspring is uniform on the disc b(parent, R), so the CDF is the area of
    b(o, r) intersected with that disc over pi R^2; the lens formula covers
    the contained, disjoint and overlapping cases.
    """
    r_arr, v_arr = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(v, dtype=float))
    _check_nonneg("r", r_arr)
    _check_nonneg("v", v_arr)

    if isinstance(model.kind, Thomas):
        sig = model.kind.sigma
        out = 1.0 - marcum_q1(v_arr / sig, r_arr / sig)
    else:
        big_r = model.kind.radius
        out = np.clip(_lens_area_arrays(r_arr, big_r, v_arr) / (math.pi * big_r**2), 0.0, 1.0)
    if np.isscalar(r) and np.isscalar(v):
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
