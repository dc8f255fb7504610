"""Closed-form and quadrature results: load moments, PGF, PMF, rate coverage.

All computations run on the normalized model (BS density scaled to 1, lengths
in units of 1/sqrt(lambda_b)); cell loads are counts and therefore identical
for the original and normalized models.  The normalization keeps every
integrand O(1) and matches the normalized cell-radius law used by the PGF.

Second moment of the typical-cell load (exact):

    E[L^2] = lam_u + 2*pi * I[rho2]          (normalized units)
    I[rho2] = int_0^{2pi} int_0^inf int_0^inf exp(-A_u(x1, x2, d(x1,x2,th)))
              * rho2(d) * x1 * x2  dx1 dx2 dth

split into the constant part lam_u^2 * E[V^2] (a universal constant, stored
as a literal) and the clustering excess, which is evaluated in separation
coordinates where the excess density provides a natural truncation radius.

The PGF of the load under the equal-area-circle approximation is a double
integral whose inner kernel (the cluster CDF) does not depend on the PGF
argument; a shared Gauss-Legendre grid therefore evaluates the PGF at all
DFT nodes at once, with panel doubling until the node values stabilize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import special as _sp
from scipy import stats as _st

from . import quadrature
from .errors import ConvergenceError, DomainError, InfeasibleModelError, InversionQualityError
from .ppmodel import Matern, NetworkModel, Thomas, cluster_cdf, pair_correlation_excess
from .quadrature import QuadSpec
# Unused here; kept because perfbench/spans.py wraps analytic.integrate_finite.
from .quadrature import integrate_finite  # noqa: F401
from .specfun import _union_area_arrays, cell_radius_pdf, cell_radius_quantile

__all__ = [
    "LoadMoments",
    "NegBinParams",
    "LoadPmf",
    "RateConfig",
    "mean_load",
    "second_moment_load",
    "variance_load",
    "load_moments",
    "ppp_baseline_variance",
    "nb_fit",
    "nb_pmf",
    "load_pgf",
    "invert_pgf",
    "dft_invert_pgf",
    "sir_ccdf",
    "rate_coverage",
    "E_V2",
]

_TRUNC_SIGMAS = 6.0          # Gaussian cluster reach in standard deviations
_NAKAGAMI_TAIL = 1e-10       # truncation mass of the cell-radius law


@dataclass(frozen=True)
class LoadMoments:
    mean: float
    second_moment: float
    variance: float
    error_estimates: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mean < 0 or self.second_moment < 0:
            raise DomainError("moments must be non-negative")
        residual = abs(self.variance - (self.second_moment - self.mean**2))
        if residual > 1e-6 * max(1.0, self.second_moment):
            raise DomainError("variance must equal second_moment - mean^2")
        if self.variance < -1e-9:
            raise DomainError("variance must be non-negative")


@dataclass(frozen=True)
class NegBinParams:
    r: int
    t: float

    def __post_init__(self):
        if self.r < 1:
            raise DomainError("NegBinParams.r must be >= 1")
        if not (0.0 < self.t <= 1.0):
            raise DomainError("NegBinParams.t must be in (0, 1]")


@dataclass(frozen=True)
class LoadPmf:
    """Finite-support PMF with the inversion metadata that produced it."""

    probs: np.ndarray
    inversion_radius: float
    dft_size: int
    raw_sum: float = 1.0
    min_raw: float = 0.0
    alias_bound: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if self.inversion_radius <= 0:
            raise DomainError("inversion_radius must be positive")

    def mean(self) -> float:
        return float(np.dot(np.arange(self.probs.size), self.probs))

    def conditional_tail(self) -> np.ndarray:
        """p_n / (1 - p_0) for n >= 1."""
        p0 = self.probs[0]
        if p0 >= 1.0:
            raise InfeasibleModelError("conditional distribution undefined: p0 = 1")
        return self.probs[1:] / (1.0 - p0)


@dataclass(frozen=True)
class RateConfig:
    alpha: float
    bandwidth_w: float
    backhaul_rb: float = math.inf
    thresholds: Sequence[float] = ()

    def __post_init__(self):
        if not self.alpha > 2:
            raise DomainError("pathloss exponent alpha must exceed 2")
        if not self.bandwidth_w > 0:
            raise DomainError("bandwidth must be positive")
        if self.backhaul_rb < 0:
            raise DomainError("backhaul cap must be non-negative (inf for unbounded)")
        if any(t <= 0 for t in self.thresholds):
            raise DomainError("rate thresholds must be positive")
        object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds))


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

def mean_load(net: NetworkModel) -> float:
    """E[load] = m_bar * lambda_p / lambda_b, exact for any cluster kernel."""
    return net.users.intensity / net.lambda_b


# Second moment of the area of the typical Poisson-Voronoi cell at unit BS
# density, a universal constant (Gilbert 1962: ~1.28018):
#     E[V^2] = 2*pi * int_0^{2pi} int_0^inf int_0^inf exp(-A_u(x1, x2, d)) x1 x2,
# with A_u the union area of the two association discs.  The literal is the
# double the panel-doubled tensor Gauss-Legendre rule returns on the truncated
# box [0, pi] x [0, _KERNEL_REACH]^2 (tests/test_analytic.py reruns it), and
# _E_V2_ERROR is that rule's last refinement change.
E_V2 = 1.2801762065782523
_E_V2_ERROR = 1.1614207704150463e-06

# exp(-pi x^2) < 1e-24 beyond this radius; the union area of the two
# association discs is at least pi * max(x1, x2)^2, so truncating the
# semi-infinite axes here stays far below every tolerance in use.
_KERNEL_REACH = 4.2


def _excess_reach(net: NetworkModel) -> float:
    users = net.users
    if isinstance(users.kind, Thomas):
        return 2.0 * _TRUNC_SIGMAS * users.kind.sigma
    return 2.0 * users.kind.radius


def _pair_excess_integral(net: NetworkModel, rel_tol: float = 1e-6) -> quadrature.IntegrationResult:
    """Clustering contribution to E[L^2] in separation coordinates.

    4*pi * int_0^inf dx int_0^pi dth int_0^rmax dr
        x * r * rho_excess(r) * exp(-A_u(x, |x + r e^{i th}|, r)),
    with rmax the excess support (2R for Matern, 12 sigma for Thomas).
    """
    norm = net.normalized()
    users = norm.users
    rmax = _excess_reach(norm)
    spec = QuadSpec(rel_tol=rel_tol, abs_tol=1e-12, max_subdivisions=4000)

    def f(x, theta, r):
        x2 = np.sqrt(x**2 + r**2 + 2.0 * x * r * np.cos(theta))
        a_u = _union_area_arrays(x, x2, r)
        return x * r * pair_correlation_excess(users, r) * np.exp(-a_u)

    res = quadrature.tensor_triple(
        f,
        [(0.0, _KERNEL_REACH), (0.0, math.pi), (0.0, rmax)],
        spec,
        start_panels=(5, 4, 5),
    )
    return quadrature.IntegrationResult(
        4.0 * math.pi * res.value, 4.0 * math.pi * res.error_estimate, res.evaluations
    )


def second_moment_load(net: NetworkModel) -> float:
    return load_moments(net).second_moment


def variance_load(net: NetworkModel) -> float:
    return load_moments(net).variance


def load_moments(net: NetworkModel) -> LoadMoments:
    """Exact first two moments of the typical-cell load."""
    norm = net.normalized()
    lam_u = norm.users.intensity
    mean = lam_u  # lambda_u / lambda_b with lambda_b = 1
    excess = _pair_excess_integral(net)
    second = mean + lam_u**2 * E_V2 + excess.value
    err2 = lam_u**2 * _E_V2_ERROR + excess.error_estimate
    variance = second - mean**2
    if variance < 0:
        raise ConvergenceError("negative variance from quadrature", best_estimate=variance)
    return LoadMoments(
        mean=mean,
        second_moment=second,
        variance=variance,
        error_estimates={"mean": 0.0, "second_moment": err2, "variance": err2},
    )


def ppp_baseline_variance(net: NetworkModel) -> float:
    """Load variance if users formed a PPP of the same intensity.

    mean + (E[V^2] - 1) * mean^2 in normalized units; this is the clustering
    excess set to zero and serves as the floor every cluster model exceeds.
    """
    mean = mean_load(net)
    return mean + (E_V2 - 1.0) * mean**2


# ---------------------------------------------------------------------------
# Negative binomial moment matching
# ---------------------------------------------------------------------------

def nb_fit(m: LoadMoments) -> NegBinParams:
    """Match NB(r, t) to (mean, variance): t = 1 - mean/var, r = floor((1-t)mean/t).

    Requires a super-Poissonian input (variance > mean); the fit is undefined
    otherwise.
    """
    if m.variance <= m.mean:
        raise InfeasibleModelError(
            f"negative binomial requires variance > mean (got {m.variance:.4g} <= {m.mean:.4g})"
        )
    t = 1.0 - m.mean / m.variance
    r = math.floor((1.0 - t) * m.mean / t)
    if r < 1:
        raise InfeasibleModelError("moment matching yields r < 1")
    return NegBinParams(r=r, t=t)


def nb_pmf(params: NegBinParams, n) -> np.ndarray:
    """PMF of NB(r, t): C(r+n-1, n) (1-t)^r t^n."""
    return _st.nbinom.pmf(np.asarray(n), params.r, 1.0 - params.t)


# ---------------------------------------------------------------------------
# PGF of the load and its DFT inversion
# ---------------------------------------------------------------------------

def _panel_nodes(edges: np.ndarray, order: int = 12):
    x, w = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


class _PgfGrid:
    """Shared quadrature grid for the load PGF under the circle approximation.

    The cluster CDF does not depend on the PGF argument, so it is tabulated
    once on an (r, v) product grid; evaluating the PGF at any set of complex
    nodes is then a pair of vectorized exponentials.  `refined` doubles every
    panel count, which the driver uses for error control.
    """

    def __init__(self, net: NetworkModel, n_r: int = 12, n_plateau: int = 3, n_trans: int = 6):
        norm = net.normalized()
        users = norm.users
        self.lambda_p = users.lambda_p
        self.m_bar = users.m_bar
        self.levels = (n_r, n_plateau, n_trans)
        self._net = net

        reach = (
            _TRUNC_SIGMAS * users.kind.sigma
            if isinstance(users.kind, Thomas)
            else users.kind.radius
        )
        r_max = cell_radius_quantile(_NAKAGAMI_TAIL)
        r_nodes, r_weights = _panel_nodes(np.linspace(0.0, r_max, n_r + 1))
        self.r_weights = r_weights * cell_radius_pdf(r_nodes)
        r_phys = r_nodes / math.sqrt(math.pi)

        v_nodes = np.empty((r_nodes.size, (n_plateau + n_trans) * 12))
        v_weights = np.empty_like(v_nodes)
        for i, rp in enumerate(r_phys):
            lo = max(rp - reach, 0.0)
            hi = rp + reach
            edges = np.concatenate(
                [np.linspace(0.0, lo, n_plateau + 1)[:-1], np.linspace(lo, hi, n_trans + 1)]
            )
            v_nodes[i], v_weights[i] = _panel_nodes(edges)
        self.v_nodes = v_nodes
        self.vw = v_weights * v_nodes          # weights folded with the v d v measure
        self.xi = np.empty_like(v_nodes)
        for i, rp in enumerate(r_phys):
            self.xi[i] = cluster_cdf(users, rp, v_nodes[i])

    def refined(self) -> "_PgfGrid":
        n_r, n_p, n_t = self.levels
        return _PgfGrid(self._net, 2 * n_r, 2 * n_p, 2 * n_t)

    def eval(self, thetas) -> np.ndarray:
        thetas = np.atleast_1d(np.asarray(thetas, dtype=complex))
        out = np.empty(thetas.shape, dtype=complex)
        for k, theta in enumerate(thetas):
            c = self.m_bar * (1.0 - theta)
            inner = ((1.0 - np.exp(-c * self.xi)) * self.vw).sum(axis=1)
            out[k] = np.dot(self.r_weights, np.exp(-2.0 * math.pi * self.lambda_p * inner))
        return out


_GRID_CACHE: dict = {}


def _pgf_values(net: NetworkModel, thetas, tol: float = 1e-8, max_levels: int = 3) -> np.ndarray:
    """PGF values checked on a coarse/fine grid pair, refining until stable.

    The converged pair is cached per model, so later calls only re-evaluate
    the two tabulated grids (the costly cluster-CDF tables are reused).
    """
    pair = _GRID_CACHE.get(net)
    if pair is None:
        coarse = _PgfGrid(net)
        pair = (coarse, coarse.refined())
        _GRID_CACHE[net] = pair
    coarse, fine = pair
    vals, fine_vals = coarse.eval(thetas), fine.eval(thetas)
    for _ in range(max_levels):
        delta = float(np.max(np.abs(fine_vals - vals)))
        if delta <= tol:
            return fine_vals
        coarse, fine = fine, fine.refined()
        _GRID_CACHE[net] = (coarse, fine)
        vals, fine_vals = fine_vals, fine.eval(thetas)
    raise ConvergenceError(f"PGF grid did not stabilize to {tol:g}", best_estimate=fine_vals)


def load_pgf(net: NetworkModel, theta) -> complex:
    """PGF G(theta) = E[theta^load] under the equal-area-circle approximation.

    G(1) = 1 up to the truncated cell-radius tail mass (1e-10); G(0) is the
    void probability of the typical cell.
    """
    return complex(_pgf_values(net, theta)[0])


def dft_invert_pgf(pgf: Callable, n_points: int, radius: float = 1.0) -> LoadPmf:
    """Invert any PGF sampled on a circle of the given radius via inverse DFT.

    p_n = R^{-n}/N * sum_m G(R e^{2 pi i m / N}) e^{-2 pi i n m / N},
    which recovers p_n exactly up to the aliasing terms sum_{l>=1} p_{n+lN} R^{lN}.
    """
    if n_points < 2 or (n_points & (n_points - 1)) != 0:
        raise DomainError(f"n_points must be a power of two >= 2, got {n_points}")
    if radius <= 0:
        raise DomainError("inversion radius must be positive")
    nodes = radius * np.exp(2j * math.pi * np.arange(n_points) / n_points)
    values = np.asarray(pgf(nodes), dtype=complex)
    coeff = np.fft.fft(values) / n_points
    if radius != 1.0:
        coeff *= radius ** (-np.arange(n_points, dtype=float))
    raw = coeff.real
    imag_max = float(np.max(np.abs(coeff.imag)))
    raw_sum = float(raw.sum())
    min_raw = float(raw.min())
    if abs(raw_sum - 1.0) > 1e-3:
        raise InversionQualityError(
            f"inverted PMF sums to {raw_sum:.6f}; inversion grid inadequate"
        )
    if imag_max > 1e-8:
        raise InversionQualityError(f"inverted PMF has imaginary residue {imag_max:.2e}")
    return LoadPmf(
        probs=np.clip(raw, 0.0, None),
        inversion_radius=radius,
        dft_size=n_points,
        raw_sum=raw_sum,
        min_raw=min_raw,
    )


def _next_pow2(x: float) -> int:
    n = 128
    while n < x:
        n *= 2
    return n


def invert_pgf(
    net: NetworkModel,
    n_points: Optional[int] = None,
    radius: float = 1.0,
    moments: Optional[LoadMoments] = None,
) -> LoadPmf:
    """PMF of the typical-cell load by inverse DFT of the load PGF.

    When n_points is omitted it defaults to the smallest power of two covering
    mean + 10 std deviations (minimum 128), which keeps aliasing below the
    Cantelli tail bound reported in the result metadata.
    """
    if n_points is None:
        moments = moments or load_moments(net)
        n_points = _next_pow2(moments.mean + 10.0 * math.sqrt(moments.variance))
    pmf = dft_invert_pgf(lambda th: _pgf_values(net, th), n_points, radius)
    alias = None
    if moments is not None and n_points > moments.mean:
        gap = n_points - moments.mean
        alias = moments.variance / (moments.variance + gap**2)
    return LoadPmf(
        probs=pmf.probs,
        inversion_radius=pmf.inversion_radius,
        dft_size=pmf.dft_size,
        raw_sum=pmf.raw_sum,
        min_raw=pmf.min_raw,
        alias_bound=alias,
    )


# ---------------------------------------------------------------------------
# SIR distribution and rate coverage
# ---------------------------------------------------------------------------

def _power_tail(x, m: float):
    """int_x^inf du / (1 + u^m) for x >= 0 and m > 1, via hypergeometric branches."""
    x = np.asarray(x, dtype=float)
    total = (math.pi / m) / math.sin(math.pi / m)
    out = np.empty(x.shape)
    low = x < 1.0
    if np.any(low):
        xl = x[low]
        out[low] = total - xl * _sp.hyp2f1(1.0, 1.0 / m, 1.0 + 1.0 / m, -(xl**m))
    if np.any(~low):
        xh = x[~low]
        out[~low] = (
            xh ** (1.0 - m) / (m - 1.0)
            * _sp.hyp2f1(1.0, 1.0 - 1.0 / m, 2.0 - 1.0 / m, -(xh ** (-m)))
        )
    return out


def _beta_factor(t, m: float):
    """beta(t) = t * int_{1/t}^inf du / (1 + u^m) for t > 0 (infinite at t = inf)."""
    t = np.asarray(t, dtype=float)
    return t * _power_tail(1.0 / t, m)


def sir_ccdf(alpha: float, tau):
    """CCDF of the SIR of a uniformly random user of the typical cell.

    P_c(tau) = tau^{-2/alpha} int_0^{tau^{2/alpha}} (1 + beta(t))^{-2} / (1 + t^{alpha/2}) dt
             = 1 / (1 + beta(tau^{2/alpha})),
    beta(t)  = t int_{1/t}^inf du / (1 + u^{alpha/2}),

    because the integrand is d/dt [t / (1 + beta(t))].  tau may be a scalar
    (returns a float) or an array (returns an array); tau = inf gives 0.
    """
    if not alpha > 2:
        raise DomainError("alpha must exceed 2")
    tau_arr = np.asarray(tau, dtype=float)
    if not np.all(tau_arr > 0):
        raise DomainError("tau must be positive")
    out = 1.0 / (1.0 + _beta_factor(tau_arr ** (2.0 / alpha), alpha / 2.0))
    return float(out) if out.ndim == 0 else out


def rate_coverage(net: NetworkModel, cfg: RateConfig, pmf: LoadPmf, rho: float) -> float:
    """P(rate > rho | load > 0) with equal bandwidth sharing and backhaul cap.

    P_r(rho) = sum_{n=1}^{floor(R_b/rho)} P_c(2^{n rho / W} - 1) p_n / (1 - p_0).
    """
    if not rho > 0:
        raise DomainError("rho must be positive")
    weights = pmf.conditional_tail()
    n_cap = weights.size
    if math.isfinite(cfg.backhaul_rb):
        n_cap = min(n_cap, math.floor(cfg.backhaul_rb / rho))
    exponent = np.arange(1, n_cap + 1) * rho / cfg.bandwidth_w
    # expm1 keeps tau > 0 for thresholds far below one bit; past 2^1024 the
    # SIR threshold overflows to inf, whose coverage is 0
    with np.errstate(over="ignore"):
        tau = np.expm1(exponent * math.log(2.0))
    total = float(np.dot(weights[:n_cap], sir_ccdf(cfg.alpha, tau)))
    return min(max(total, 0.0), 1.0)
