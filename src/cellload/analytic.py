"""Closed-form and quadrature results: load moments, PGF, PMF, rate coverage.

All computations run on the normalized model (BS density scaled to 1, lengths
in units of 1/sqrt(lambda_b)); cell loads are counts and therefore identical
for the original and normalized models.  The normalization keeps every
integrand O(1) and matches the normalized cell-radius law used by the PGF.

Second moment of the typical-cell load (exact, normalized units):

    E[L^2] = lam_u + lam_u^2 * E[V^2] + 2*pi * int_0^inf r * rho_exc(r) * gamma(r) dr

with E[V^2] and gamma(r) the second moment and the mean set covariance of the
typical Poisson-Voronoi cell, both universal and stored, so the clustering
term is a 1-D integral over the model's pair-correlation excess rho_exc.

The PGF of the load under the equal-area-circle approximation is a double
integral whose inner kernel exp(-m_bar xi (1 - theta)) is the PGF of a
Poisson(m_bar xi) count: a power series in theta whose coefficients are
tabulated once on a Gauss-Legendre grid.  On that grid the PGF is a mixture
of compound Poisson PGFs, so the load PMF follows from them exactly by
recursion; the same coefficients give the PGF at any nodes for the DFT route.
Panel counts double until two grids agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.chebyshev import chebval
from scipy import special as _sp

from . import quadrature
from .errors import ConvergenceError, DomainError, InfeasibleModelError, InversionQualityError
from .ppmodel import NetworkModel, cluster_cdf, cluster_reach, pair_correlation_excess
# integrate_finite is unused here; kept because perfbench/spans.py wraps analytic.integrate_finite.
from .quadrature import _panel_nodes, integrate_finite  # noqa: F401
from .specfun import cell_radius_pdf

__all__ = [
    "LoadMoments",
    "NegBinParams",
    "LoadPmf",
    "DftPmf",
    "RateConfig",
    "mean_load",
    "load_moments",
    "ppp_baseline_variance",
    "nb_fit",
    "nb_pmf",
    "load_pgf",
    "load_pmf",
    "invert_pgf",
    "dft_invert_pgf",
    "sir_ccdf",
    "rate_coverage",
    "E_V2",
]

# The cell-radius law leaves mass 1e-10 beyond this normalized radius:
# sqrt(gammainccinv(3.5, 1e-10) / 3.5) (tests/test_specfun.py reruns it).
_R_MAX = 2.949459886746101


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
    """Finite-support PMF p_0 .. p_(n-1) of the cell load."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))

    def mean(self) -> float:
        return float(np.dot(np.arange(self.probs.size), self.probs))

    def tail_mass(self) -> float:
        """1 - sum_n p_n: the probability the listed terms leave out."""
        return max(0.0, 1.0 - math.fsum(self.probs))

    def conditional_tail(self) -> np.ndarray:
        """p_n / (1 - p_0) for n >= 1."""
        p0 = self.probs[0]
        if p0 >= 1.0:
            raise InfeasibleModelError("conditional distribution undefined: p0 = 1")
        return self.probs[1:] / (1.0 - p0)


@dataclass(frozen=True)
class DftPmf(LoadPmf):
    """PMF from an inverse DFT, with the inversion that produced it: DFT
    size, and the sum and minimum of the terms before clipping."""

    dft_size: int
    raw_sum: float
    min_raw: float


@dataclass(frozen=True)
class RateConfig:
    alpha: float
    bandwidth_w: float
    backhaul_rb: float = math.inf
    thresholds: Sequence[float] = ()

    def __post_init__(self):
        if not 2 < self.alpha < math.inf:
            raise DomainError("pathloss exponent alpha must be finite and exceed 2")
        if not 0 < self.bandwidth_w < math.inf:
            raise DomainError("bandwidth must be finite and positive")
        if not self.backhaul_rb >= 0:
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


# Two universal functionals of the typical Poisson-Voronoi cell V at unit BS
# density, with A_u the union area of the two association discs: the second
# moment of its area (Gilbert 1962: ~1.28018)
#     E[V^2] = 2*pi * int_0^{2pi} int_0^inf int_0^inf exp(-A_u(x1, x2, d)) x1 x2,
# and its mean set covariance gamma(r) = E|V cap (V + r e)| (Matheron 1975)
#     gamma(r) = 2 * int_0^inf x int_0^pi exp(-A_u(x, |x + r e^{i th}|, r)) dth dx.
# E_V2 is the double the panel-doubled tensor Gauss-Legendre rule returns on
# [0, pi] x [0, 4.2]^2, and _E_V2_ERROR its last refinement change.  _GAMMA_CHEB
# is gamma's degree-40 Chebyshev interpolant on [0, _GAMMA_SPAN] from the tensor
# rule on [0, 4.2] x [0, pi] in 80 x 48 panels; _GAMMA_FIT_ERROR bounds its gap
# to a 240 x 144-panel rule (3.8e-11 at r = 0.15), and gamma(7) ~ 2e-34 is taken
# as 0 beyond.  tests/test_analytic.py reruns both rules and checks gamma(0) = 1,
# gamma'(0) = -4/pi and 2 pi int r gamma = E_V2.
E_V2 = 1.2801762065782523
_E_V2_ERROR = 1.1614207704150463e-06
_GAMMA_SPAN = 7.0
_GAMMA_CHEB = np.array([
    0.16154689104367248, -0.30201687358271095, 0.24541718798940337, -0.1702231569084254,
    0.09640506981312366, -0.0392923937997919, 0.0051548654190039745, 0.008504599476802434,
    -0.0091772945448897, 0.004779535648412648, -0.0006098290842073424, -0.0013475121814241757,
    0.0014062100955789282, -0.0006787722237331779, 3.218071450059915e-05, 0.00023080644438971005,
    -0.0002020765709121775, 7.992837866439399e-05, 7.81177105150704e-06, -3.351600598407269e-05,
    2.2985307985769437e-05, -6.344852042774679e-06, -2.5663294616983545e-06, 3.7661503807741267e-06,
    -1.8806197312001365e-06, 2.1171448242778982e-07, 3.797805290142663e-07, -3.068838527417258e-07,
    9.902188398786388e-08, 1.466693690077028e-08, -3.312880568789189e-08, 1.664622489172811e-08,
    -2.413390950498829e-09, -2.21551867908531e-09, 1.789551964609528e-09, -5.864473351380184e-10,
    -9.8608384330585e-13, 1.0227251024383715e-10, -5.7881027883900616e-11, 1.903744370817948e-11,
    -4.2855637737724595e-12,
])
_GAMMA_FIT_ERROR = 5e-11


def _pair_excess_integral(net: NetworkModel) -> quadrature.IntegrationResult:
    """Clustering contribution to E[L^2], 2*pi * int_0^rmax r rho_excess(r) gamma(r) dr with
    rmax the excess support (2R, or 12 sigma) capped at _GAMMA_SPAN, on Gauss-Legendre panels
    doubled from 32 until two values agree; the error adds the fit error times lambda_p m_bar^2."""
    users = net.normalized().users
    rmax = min(2.0 * cluster_reach(users), _GAMMA_SPAN)
    fit = users.lambda_p * users.m_bar**2 * _GAMMA_FIT_ERROR
    value, evals = None, 0
    for panels in (32, 64, 128, 256):
        r, w = _panel_nodes(np.linspace(0.0, rmax, panels + 1))
        gamma = chebval(r * (2.0 / _GAMMA_SPAN) - 1.0, _GAMMA_CHEB)
        refined = 2.0 * math.pi * float(w @ (r * pair_correlation_excess(users, r) * gamma))
        evals += r.size
        if value is not None and abs(refined - value) <= max(1e-12, 1e-6 * abs(refined)):
            return quadrature.IntegrationResult(refined, abs(refined - value) + fit, evals)
        value = refined
    raise ConvergenceError("pair-excess rule did not stabilize", best_estimate=value)


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
    # imported here: scipy.stats costs about a second per cold process
    from scipy import stats as _st

    return _st.nbinom.pmf(np.asarray(n), params.r, 1.0 - params.t)


# ---------------------------------------------------------------------------
# PGF of the load and its DFT inversion
# ---------------------------------------------------------------------------

_BASE_LEVELS = (12, 3, 6)    # panels of the coarsest grid: r, v plateau, v transition
_TAIL_TOL = 1e-12            # probability load_pmf may leave beyond its last term


def _pgf_table(net: NetworkModel, levels):
    """Radius weights w_r and series coefficients c[r, j-1] = c_j(r) of one
    quadrature grid of the circle approximation, on which the load PGF is

        G(theta) = sum_r w_r exp(-sum_j c_j(r) (1 - theta^j)).

    levels = (n_r, n_plateau, n_trans) panel counts.  The outer integral runs
    over the normalized cell radius r; for each r node the inner one runs over
    the parent distance v, on a plateau up to r - reach and the transition
    band [r - reach, r + reach] where the cluster CDF xi moves.  With
    mu = m_bar xi, 1 - exp(-mu (1 - theta)) is one minus the PGF of a
    Poisson(mu) count, so the inner integral is sum_j A_j(r) (1 - theta^j),
    A_j(r) = sum_v w_v v pi_j(mu(r, v)), and c_j = 2 pi lambda_p A_j.
    pi_j = exp(j log mu - mu - log j!) is taken in log space (exp(-mu)
    underflows for mu > 745).  The series stops at the first j with
    j + 1 > max mu and max pi_j / (1 - max mu / (j + 1)) < 1e-17, which bounds
    the truncated tail sum_{k>j} pi_k on the whole grid.
    """
    n_r, n_plateau, n_trans = levels
    users = net.normalized().users
    reach = cluster_reach(users)
    r_nodes, r_weights = _panel_nodes(np.linspace(0.0, _R_MAX, n_r + 1))
    r_weights = r_weights * cell_radius_pdf(r_nodes)
    r_phys = r_nodes / math.sqrt(math.pi)

    lo = np.maximum(r_phys - reach, 0.0)
    edges = np.concatenate(
        [
            np.linspace(0.0, lo, n_plateau + 1, axis=-1)[:, :-1],
            np.linspace(lo, r_phys + reach, n_trans + 1, axis=-1),
        ],
        axis=1,
    )
    v_nodes, v_weights = _panel_nodes(edges)
    vw = v_weights * v_nodes          # weights folded with the v dv measure
    mu = users.m_bar * cluster_cdf(users, r_phys[:, None], v_nodes)
    mu_max = float(mu.max())
    if not math.isfinite(mu_max):     # the stopping rule below needs a finite bound
        raise ConvergenceError("cluster CDF is not finite on the PGF grid")
    with np.errstate(divide="ignore"):
        log_mu = np.log(mu)
    coeffs, j = [], 0
    while True:
        j += 1
        pi_j = np.exp(j * log_mu - mu - _sp.gammaln(j + 1))
        coeffs.append((pi_j * vw).sum(axis=1))
        if j + 1 > mu_max and pi_j.max() < 1e-17 * (1.0 - mu_max / (j + 1)):
            break
    return r_weights, 2.0 * math.pi * users.lambda_p * np.array(coeffs).T


def _on_refined_grids(net: NetworkModel, output, tol: float = 1e-8, max_levels: int = 3):
    """output(r_weights, c) on grids of doubling panel counts, until two
    successive grids agree within tol; at most max_levels + 1 grids are built.
    Outputs of different lengths are compared zero-padded."""
    levels = _BASE_LEVELS
    vals = output(*_pgf_table(net, levels))
    for _ in range(max_levels):
        levels = tuple(2 * n for n in levels)
        fine_vals = output(*_pgf_table(net, levels))
        size = max(vals.size, fine_vals.size)
        gap = np.pad(fine_vals, (0, size - fine_vals.size)) - np.pad(vals, (0, size - vals.size))
        if float(np.max(np.abs(gap))) <= tol:
            return fine_vals
        vals = fine_vals
    raise ConvergenceError(f"PGF grid did not stabilize to {tol:g}", best_estimate=vals)


def _pgf_from_table(r_weights, c, thetas) -> np.ndarray:
    """The table's PGF at complex nodes: each node is a row of one matrix
    product over the series coefficients, and G(1) = sum_r w_r exactly."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=complex))
    inner = (1.0 - thetas[:, None] ** np.arange(1, c.shape[1] + 1)) @ c.T
    return (np.exp(-inner) * r_weights).sum(axis=1)


def _pgf_values(net: NetworkModel, thetas, tol: float = 1e-8, max_levels: int = 3) -> np.ndarray:
    """PGF values at complex nodes on the first grid that agrees with the one before."""
    return _on_refined_grids(net, lambda w, c: _pgf_from_table(w, c, thetas), tol, max_levels)


def _compound_poisson_pmf(r_weights, c) -> np.ndarray:
    """PMF sum_r w_r p_n(r) of the table's mixture of compound Poisson laws.

    Row r's PGF exp(-sum_j c_j (1 - theta^j)) is compound Poisson, so Panjer's
    recursion (Panjer 1981) gives its PMF exactly:
        p_0 = exp(-sum_j c_j),  p_n = (1/n) sum_{j <= min(n, J)} j c_j p_{n-j}.
    Every term is non-negative and the recursion is forward-stable (Panjer &
    Wang 1993).  It stops once the mass it has not yet placed,
    sum_r w_r - sum_n p_n, is at most _TAIL_TOL.
    """
    n_r, n_j = c.shape
    p0 = np.exp(-c.sum(axis=1))
    if p0.min() < np.finfo(float).tiny:
        raise ConvergenceError(
            "p_0 = exp(-sum_j c_j) underflows on the PGF grid: the cell sees too many clusters"
        )
    jc = (np.arange(1, n_j + 1) * c).T[::-1].copy()    # row k holds j c_j for j = J - k
    # p_n sits in row `top`, after the J rows that hold p_(n-J) .. p_(n-1)
    # (zeros before p_0); when the buffer is full its last J rows move to the front
    window = np.zeros((n_j + 512, n_r))
    top = n_j
    window[top] = p0
    probs = [float(r_weights @ p0)]
    mass = float(r_weights.sum()) - probs[0]
    n = 0
    while mass > _TAIL_TOL:
        n += 1
        if top + 1 == window.shape[0]:
            window[:n_j] = window[top + 1 - n_j :]
            top = n_j - 1
        top += 1
        window[top] = np.einsum("jr,jr->r", jc, window[top - n_j : top]) / n
        q = float(r_weights @ window[top])
        if q == 0.0:
            raise ConvergenceError(
                f"load PMF recursion stalled with {mass:.3g} of its mass unplaced"
            )
        probs.append(q)
        mass -= q
    return np.array(probs)


def load_pgf(net: NetworkModel, theta) -> complex:
    """PGF G(theta) = E[theta^load] under the equal-area-circle approximation.

    G(1) = 1 up to the truncated cell-radius tail mass (1e-10); G(0) is the
    void probability of the typical cell.  theta is one real or complex
    number.
    """
    if np.ndim(theta) != 0:
        raise DomainError("load_pgf takes one theta; evaluate an array point by point")
    return complex(_pgf_values(net, theta)[0])


def load_pmf(net: NetworkModel) -> LoadPmf:
    """PMF of the typical-cell load under the equal-area-circle approximation.

    Exact on each quadrature grid of the PGF (compound Poisson recursion on
    its series coefficients), with no DFT size, radius or aliasing; the terms
    run until at most 1e-12 of the grid's mass lies beyond the last one.
    Raises ConvergenceError when the void probability of some cell radius
    underflows (many more clusters per cell than the paper's models).
    """
    return LoadPmf(probs=_on_refined_grids(net, _compound_poisson_pmf))


def dft_invert_pgf(pgf: Callable, n_points: int) -> DftPmf:
    """Invert any PGF sampled on the unit circle via inverse DFT.

    p_n = 1/N * sum_m G(e^{2 pi i m / N}) e^{-2 pi i n m / N},
    which recovers p_n exactly up to the aliasing terms sum_{l>=1} p_{n+lN}.
    """
    if n_points < 2 or (n_points & (n_points - 1)) != 0:
        raise DomainError(f"n_points must be a power of two >= 2, got {n_points}")
    nodes = np.exp(2j * math.pi * np.arange(n_points) / n_points)
    values = np.asarray(pgf(nodes), dtype=complex)
    coeff = np.fft.fft(values) / n_points
    if not (np.isfinite(values).all() and np.isfinite(coeff).all()):
        raise InversionQualityError("PGF values or DFT coefficients are not finite")
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
    return DftPmf(
        probs=np.clip(raw, 0.0, None),
        dft_size=n_points,
        raw_sum=raw_sum,
        min_raw=min_raw,
    )


def invert_pgf(
    net: NetworkModel,
    n_points: Optional[int] = None,
    moments: Optional[LoadMoments] = None,
) -> DftPmf:
    """PMF of the typical-cell load by inverse DFT of the load PGF.

    When n_points is omitted it defaults to the smallest power of two covering
    mean + 10 std deviations (minimum 128).  load_pmf gives the same PMF
    without aliasing; this is the paper's inversion route.
    """
    if n_points is None:
        moments = moments or load_moments(net)
        reach = moments.mean + 10.0 * math.sqrt(moments.variance)
        n_points = 128
        while n_points < reach:
            n_points *= 2
    return dft_invert_pgf(lambda th: _pgf_values(net, th), n_points)


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
