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
of compound Poisson PGFs exp(C_r(theta) - C_r(1)), C_r a polynomial: one real
FFT per radius node gives the PGF at the N-th roots of unity, whose inverse DFT
is the load PMF up to the mass beyond N that a Chernoff bound from the same
coefficients limits.  Panel counts double until two grids agree.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import quadrature
from .errors import ConvergenceError, DomainError, InfeasibleModelError, InversionQualityError
from .ppmodel import NetworkModel, cluster_cdf, cluster_plateau, cluster_reach, pair_correlation_excess
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
        """p_n / sum_{k >= 1} p_k for n >= 1: the listed mass above 0, so mass
        the terms leave out (1 - sum_n p_n) does not count as loads above 0."""
        busy = math.fsum(self.probs[1:])
        if busy <= 0.0:
            raise InfeasibleModelError("conditional distribution undefined: no mass above load 0")
        return self.probs[1:] / busy


@dataclass(frozen=True)
class DftPmf(LoadPmf):
    """PMF from an inverse DFT, with the inversion that produced it: DFT
    size, the sum and minimum of the terms before clipping, and a bound on
    the mass sum_{n >= N} p_n folded onto the terms (inf when unknown)."""

    dft_size: int
    raw_sum: float
    min_raw: float
    alias_bound: float = math.inf


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


def _chebval(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_k c[k] T_k(x) for len(c) >= 2 by Clenshaw's recurrence, in the operation order of
    numpy.polynomial.chebyshev.chebval (bitwise equal to it; that module is not imported)."""
    x2 = 2.0 * x
    c0, c1 = c[-2], c[-1]
    for ck in c[-3::-1]:
        c0, c1 = ck - c1, c0 + c1 * x2
    return c0 + c1 * x


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
        gamma = _chebval(r * (2.0 / _GAMMA_SPAN) - 1.0, _GAMMA_CHEB)
        refined = 2.0 * math.pi * float(w @ (r * pair_correlation_excess(users, r) * gamma))
        evals += r.size
        if value is not None and abs(refined - value) <= max(1e-12, 1e-6 * abs(refined)):
            return quadrature.IntegrationResult(refined, abs(refined - value) + fit, evals)
        value = refined
    raise ConvergenceError("pair-excess rule did not stabilize", best_estimate=value)


def load_moments(net: NetworkModel) -> LoadMoments:
    """Exact first two moments of the typical-cell load.  Moments beyond the
    float range (a second moment or error that overflows, or a mean load whose
    square is not a normal float) raise ConvergenceError."""
    norm = net.normalized()
    lam_u = norm.users.intensity
    mean = lam_u  # lambda_u / lambda_b with lambda_b = 1
    try:   # Python floats raise on a ** that overflows and on / 0, numpy does here
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            excess = _pair_excess_integral(net)
        second = mean + lam_u**2 * E_V2 + excess.value
        err2 = lam_u**2 * _E_V2_ERROR + excess.error_estimate
    except ArithmeticError:
        second = err2 = math.inf
    if not (math.isfinite(second + err2) and mean * mean >= sys.float_info.min):
        raise ConvergenceError(f"load moments beyond the float range (mean load {mean:.3g})")
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
    """PMF of NB(r, t): C(r+n-1, n) (1-t)^r t^n, 0 for n < 0.

    Taken in log space, log p_n = r log(1-t) + n log t + sum_{k<n} log((r+k) / (k+1)), with one
    running sum up to max(n), so no term underflows on the way to a small p_n.
    """
    n = np.asarray(n)
    r, t = params.r, params.t
    top = int(n.max(initial=0))
    k = np.arange(top)
    log_binom = np.concatenate(([0.0], np.cumsum(np.log1p((r - 1.0) / (k + 1.0)))))
    log_p = r * math.log1p(-t) + np.arange(top + 1) * math.log(t) + log_binom
    return np.where(n >= 0, np.exp(log_p)[np.clip(n, 0, top)], 0.0)


# ---------------------------------------------------------------------------
# PGF of the load and its DFT inversion
# ---------------------------------------------------------------------------

_BASE_LEVELS = (12, 6)       # panels of the coarsest grid: r, v transition band
_GRID_TOL = 1e-8             # largest change between two grids' outputs that ends the refinement
_GRID_REFINEMENTS = 3        # panel doublings after the base grid before refinement gives up
_TAIL_TOL = 1e-12            # load mass load_pmf may alias, and may leave beyond its last term
_MEAN_RTOL = 1e-6            # largest relative gap of the N-term mean to mean_load in load_pmf
_MAX_DFT_SIZE = 2**20        # largest DFT size tried, and the m_bar the grids refuse
_FFT_BLOCK = 2**18           # PGF values per block of radius rows


def _pgf_table(net: NetworkModel, levels):
    """Radius weights w_r and series coefficients c[r, j-1] = c_j(r) of one
    quadrature grid of the circle approximation, on which the load PGF is

        G(theta) = sum_r w_r exp(-sum_j c_j(r) (1 - theta^j)).

    levels = (n_r, n_trans) panel counts.  The outer integral runs over the
    normalized cell radius r; for each r node the inner one runs over the
    parent distance v.  With mu = m_bar xi, 1 - exp(-mu (1 - theta)) is one
    minus the PGF of a Poisson(mu) count, so the inner integral is
    sum_j A_j(r) (1 - theta^j) with A_j(r) = int v pi_j(mu(r, v)) dv, and
    c_j = 2 pi lambda_p A_j.  On the plateau v <= lo of cluster_plateau, xi is
    a constant (1 for Thomas, min(r, R)^2 / R^2 for Matern), so that part of
    A_j is one exact node of weight lo^2 / 2 ahead of each row's v rule, and
    quadrature runs only on the band [lo, r + reach] where xi moves.  pi_j =
    exp(j log mu - mu - log j!) is taken in log space (exp(-mu) underflows for mu > 745).
    The series stops on m_bar alone, at the first j with j + 1 > m_bar and
    pi_j(m_bar) / (1 - m_bar / (j + 1)) < 1e-17; pi_j(mu) increases in mu below
    j, so that bounds the truncated tail sum_{k>j} pi_k(mu) at every mu <= m_bar.
    """
    n_r, n_trans = levels
    users = net.normalized().users
    m_bar = users.m_bar
    reach = cluster_reach(users)
    r_nodes, r_weights = _panel_nodes(np.linspace(0.0, _R_MAX, n_r + 1))
    r_weights = r_weights * cell_radius_pdf(r_nodes)
    r_phys = r_nodes / math.sqrt(math.pi)

    lo, xi_lo = cluster_plateau(users, r_phys)
    v_nodes, v_weights = _panel_nodes(np.linspace(lo, r_phys + reach, n_trans + 1, axis=-1))
    vw = np.column_stack([0.5 * lo * lo, v_weights * v_nodes])  # plateau node, then v dv
    mu = m_bar * np.column_stack([xi_lo, cluster_cdf(users, r_phys[:, None], v_nodes)])
    if not np.isfinite(mu).all():     # a NaN would run silently into every coefficient
        raise ConvergenceError("cluster CDF is not finite on the PGF grid")
    with np.errstate(divide="ignore"):
        log_mu = np.log(mu)
    coeffs, j = [], 0
    while True:
        j += 1
        log_fact = math.lgamma(j + 1)
        pi_j = np.exp(j * log_mu - mu - log_fact)
        pi_bar = math.exp(j * math.log(m_bar) - m_bar - log_fact)
        coeffs.append((pi_j * vw).sum(axis=1))
        if j + 1 > m_bar and pi_bar < 1e-17 * (1.0 - m_bar / (j + 1)):
            break
    return r_weights, 2.0 * math.pi * users.lambda_p * np.array(coeffs).T


def _on_refined_grids(net: NetworkModel, output):
    """output(r_weights, c) on grids of doubling panel counts, until two
    successive grids agree within _GRID_TOL; at most _GRID_REFINEMENTS + 1
    grids are built.  Outputs (arrays, or PMFs by their terms) of different
    lengths are compared zero-padded.  m_bar >= _MAX_DFT_SIZE raises
    ConvergenceError before any table: the series runs past m_bar terms,
    more than any DFT size tried, and each term costs a pass over the grid."""
    if net.users.m_bar >= _MAX_DFT_SIZE:
        raise ConvergenceError(f"mbar {net.users.m_bar:.6g} needs more series terms than "
                               f"{_MAX_DFT_SIZE}, the largest DFT size")
    levels = _BASE_LEVELS
    out = output(*_pgf_table(net, levels))
    for _ in range(_GRID_REFINEMENTS):
        levels = tuple(2 * n for n in levels)
        fine = output(*_pgf_table(net, levels))
        vals, fine_vals = (getattr(x, "probs", x) for x in (out, fine))
        size = max(vals.size, fine_vals.size)
        gap = np.pad(fine_vals, (0, size - fine_vals.size)) - np.pad(vals, (0, size - vals.size))
        if float(np.max(np.abs(gap))) <= _GRID_TOL:
            return fine
        out = fine
    raise ConvergenceError(f"PGF grid did not stabilize to {_GRID_TOL:g}", best_estimate=out)


def _pgf_from_table(r_weights, c, thetas) -> np.ndarray:
    """The table's PGF at complex nodes: each node is a row of one matrix
    product over the series coefficients, and G(1) = sum_r w_r exactly."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=complex))
    inner = (1.0 - thetas[:, None] ** np.arange(1, c.shape[1] + 1)) @ c.T
    return (np.exp(-inner) * r_weights).sum(axis=1)


def load_pgf(net: NetworkModel, theta) -> complex:
    """PGF G(theta) = E[theta^load] under the equal-area-circle approximation.

    G(1) = 1 up to the truncated cell-radius tail mass (1e-10); G(0) is the
    void probability of the typical cell.  theta is one real or complex
    number, evaluated on the first grid that agrees with the one before.
    """
    if np.ndim(theta) != 0:
        raise DomainError("load_pgf takes one theta; evaluate an array point by point")
    return complex(_on_refined_grids(net, lambda w, c: _pgf_from_table(w, c, theta))[0])


def _alias_bound(r_weights, c, sizes):
    """Chernoff bounds P(load >= N) <= min_{theta > 1} G(theta) theta^-N of the
    table's law, one per DFT size N in sizes, with log G(e^s) = logsumexp_r
    (log w_r + sum_j c_j (e^(j s) - 1)) on 32 log-spaced s: below
    1 / _MAX_DFT_SIZE the bound stays above G(1) / e at every size tried, and
    j s <= 700 keeps e^(j s) finite.  Fewer theta only loosen the bound."""
    j = np.arange(1, c.shape[1] + 1)
    s = np.geomspace(1.0 / _MAX_DFT_SIZE, 700.0 / j[-1], 32)
    log_g = np.logaddexp.reduce(np.log(r_weights)[:, None] + c @ np.expm1(np.outer(j, s)), axis=0)
    return np.exp(np.min(log_g - np.multiply.outer(sizes, s), axis=-1))


def _pgf_at_roots(r_weights, c, n_points) -> np.ndarray:
    """The table's PGF at the N-th roots of unity e^(2 pi i m / N).  Row r's
    PGF is exp(C_r(theta) - C_r(1)) with C_r(theta) = sum_j c_j theta^j, and
    C_r at the roots is the conjugate of one real FFT of the row 0, c_1 .. c_J,
    summed modulo N first when J >= N (exact at the roots, where a size-N FFT
    would drop c_N ..).  Rows go in blocks of about _FFT_BLOCK values."""
    n_r, n_j = c.shape
    rows = max(1, _FFT_BLOCK // (n_points // 2 + 1))
    half = np.zeros(n_points // 2 + 1, dtype=complex)
    for start in range(0, n_r, rows):
        row = np.pad(c[start : start + rows], ((0, 0), (1, 0)))
        if n_j >= n_points:
            row = np.pad(row, ((0, 0), (0, -(n_j + 1) % n_points)))
            row = row.reshape(len(row), -1, n_points).sum(axis=1)
        spectrum = np.fft.rfft(row, n=n_points)
        spectrum -= spectrum[:, :1].real
        half += r_weights[start : start + rows] @ np.exp(spectrum, out=spectrum)
    return np.concatenate([half.conj(), half[-2:0:-1]])  # G at e^(-i t) is conj G(e^(i t))


def _dft_pmf(r_weights, c, n_points=None) -> DftPmf:
    """The table's p_0 .. p_(N-1) by inverse DFT, each with its aliased tail
    sum_{l >= 1} p_(n + lN), whose total alias_bound bounds.  N defaults to
    the smallest power of two above J whose bound is at most _TAIL_TOL."""
    if n_points is None:
        sizes = 2 ** np.arange(c.shape[1].bit_length(), _MAX_DFT_SIZE.bit_length())
        bounds = _alias_bound(r_weights, c, sizes)
        fits = np.flatnonzero(bounds <= _TAIL_TOL)
        if not fits.size:
            raise ConvergenceError(
                f"no DFT size up to {_MAX_DFT_SIZE} bounds the aliased mass by {_TAIL_TOL:g}")
        n_points, bound = int(sizes[fits[0]]), bounds[fits[0]]
    else:
        bound = _alias_bound(r_weights, c, n_points)
    pmf = dft_invert_pgf(lambda nodes: _pgf_at_roots(r_weights, c, n_points), n_points)
    return replace(pmf, alias_bound=float(bound))


def load_pmf(net: NetworkModel) -> DftPmf:
    """PMF of the typical-cell load under the equal-area-circle approximation:
    invert_pgf's N terms, cut where at most 1e-12 of the mass lies beyond the
    last one.  A PMF whose N terms miss the exact mean_load(net) by more than
    1e-6 relative (or 1e-12, for loads near 0) raises ConvergenceError before
    the cut: the table's cluster CDF has lost mean."""
    pmf = invert_pgf(net)
    exact = mean_load(net)
    if not abs(pmf.mean() - exact) <= max(_MEAN_RTOL * exact, _TAIL_TOL):
        raise ConvergenceError(f"PMF mean {pmf.mean():.10g} misses the exact mean {exact:.10g} "
                               f"by more than {_MEAN_RTOL:g} relative", best_estimate=pmf)
    size = max(1, int(np.count_nonzero(np.cumsum(pmf.probs[::-1]) > _TAIL_TOL)))
    return replace(pmf, probs=pmf.probs[:size])


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
        raise InversionQualityError(f"inverted PMF sums to {raw_sum:.6f}; inversion grid inadequate")
    if imag_max > 1e-8:
        raise InversionQualityError(f"inverted PMF has imaginary residue {imag_max:.2e}")
    return DftPmf(np.clip(raw, 0.0, None), dft_size=n_points, raw_sum=raw_sum, min_raw=min_raw)


def invert_pgf(
    net: NetworkModel,
    n_points: Optional[int] = None,
    moments: Optional[LoadMoments] = None,
) -> DftPmf:
    """The inverse DFT of the PGF on each quadrature grid until two grids
    agree, all N terms kept: the path load_pmf gates and cuts.  N = n_points,
    or by default the smallest power of two above the series length J whose
    bound on the aliased mass is at most 1e-12; n_points may be below J.
    moments is accepted for existing callers and not read."""
    return _on_refined_grids(net, lambda r_weights, c: _dft_pmf(r_weights, c, n_points))


# ---------------------------------------------------------------------------
# SIR distribution and rate coverage
# ---------------------------------------------------------------------------

_PFAFF_TERMS = 64   # series terms of _hyp2f1_pfaff; each is below half the one before


def _hyp2f1_pfaff(s: float, z: np.ndarray) -> np.ndarray:
    """2F1(1, s; 1 + s; -z) for a 1-D array 0 <= z <= 1 and 0 < s < 1, by Pfaff's transformation

        2F1(1, s; 1 + s; -z) = (1 + z)^-1 2F1(1, 1; 1 + s; w),   w = z / (1 + z) <= 1/2
                                                                   (DLMF 15.8.1),

    whose series has positive terms n! / (1 + s)_n w^n with ratios n / (n + s) w < 1/2, taken as
    one running product over _PFAFF_TERMS terms: the tail left out is below 2^-63 of the sum.
    """
    w = z / (1.0 + z)
    n = np.arange(1, _PFAFF_TERMS)
    terms = np.cumprod(n / (n + s) * w[:, None], axis=1)
    return (1.0 + terms.sum(axis=1)) / (1.0 + z)


def sir_ccdf(alpha: float, tau):
    """CCDF of the SIR of a uniformly random user of the typical cell,

    P_c(tau) = tau^{-d} int_0^{tau^d} (1 + beta(t))^{-2} / (1 + t^{1/d}) dt = 1 / (1 + beta(tau^d)),

    with d = 2/alpha and beta(t) = t int_{1/t}^inf du / (1 + u^{1/d}), since the integrand is
    d/dt [t / (1 + beta(t))]; beta(tau^d) = 2 tau / (alpha - 2) 2F1(1, c; 1 + c; -tau) with
    c = 1 - d for every tau > 0 (Andrews, Baccelli & Ganti 2011).  For tau > 1 the connection
    formula (DLMF 15.8.2) turns it into

        beta(tau^d) = pi d / sin(pi c) tau^d - 2F1(1, d; 1 + d; -1/tau),

    so both branches sum a Pfaff series in an argument <= 1/2.  tau may be a scalar (returns a
    float) or an array (returns an array); tau = inf gives 0.
    """
    if not alpha > 2:
        raise DomainError("alpha must exceed 2")
    tau_arr = np.asarray(tau, dtype=float)
    if not np.all(tau_arr > 0):
        raise DomainError("tau must be positive")
    d = 2.0 / alpha
    c = (alpha - 2.0) / alpha   # 1 - d, without the cancellation of 1 - 2/alpha near alpha = 2
    low = tau_arr <= 1.0
    beta = np.empty(tau_arr.shape)
    small, large = tau_arr[low], tau_arr[~low]
    beta[low] = 2.0 * small / (alpha - 2.0) * _hyp2f1_pfaff(c, small)
    beta[~low] = math.pi * d / math.sin(math.pi * c) * large**d - _hyp2f1_pfaff(d, 1.0 / large)
    out = 1.0 / (1.0 + beta)
    return float(out) if out.ndim == 0 else out


def rate_coverage(net: NetworkModel, cfg: RateConfig, pmf: LoadPmf, rho: float) -> float:
    """P(rate > rho | load > 0) with equal bandwidth sharing and backhaul cap,

    P_r(rho) = sum_{n >= 1: R_b / n > rho} P_c(2^{n rho / W} - 1) p_n / sum_{k >= 1} p_k,

    the simulator's event min(W/n log2(1 + SIR), R_b/n) > rho; R_b / n falls, so n runs up to a cap.
    """
    if not rho > 0:
        raise DomainError("rho must be positive")
    weights = pmf.conditional_tail()
    loads = np.arange(1, weights.size + 1)
    loads = loads[cfg.backhaul_rb / loads > rho]
    exponent = loads * rho / cfg.bandwidth_w
    # expm1 keeps tau > 0 for thresholds far below one bit; past 2^1024 the
    # SIR threshold overflows to inf, whose coverage is 0
    with np.errstate(over="ignore"):
        tau = np.expm1(exponent * math.log(2.0))
    total = float(np.dot(weights[:loads.size], sir_ccdf(cfg.alpha, tau)))
    return min(max(total, 0.0), 1.0)
