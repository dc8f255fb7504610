"""Shared oracles for the test suite, independent of the library code paths."""

import math

import numpy as np
from scipy import special

from cellload.analytic import _R_MAX
from cellload.errors import DomainError
from cellload.ppmodel import Thomas, UserModel, _check_nonneg, pair_correlation_excess
from cellload.quadrature import IntegrationResult, QuadSpec, _panel_nodes, integrate_finite
from cellload.specfun import _lens_area_arrays

# exp(-pi x^2) < 1e-24 beyond this radius; the union area of the two
# association discs is at least pi * max(x1, x2)^2, so truncating the
# semi-infinite axes here stays far below every tolerance in use.
_KERNEL_REACH = 4.2


def integrate_semi_infinite(f, a: float, spec: QuadSpec = QuadSpec()) -> IntegrationResult:
    """Integrate f over [a, inf) via the rational transform u = a + s/(1-s).

    The integrand must decay at least like a power with exponent < -1.
    """
    if not np.isfinite(a):
        raise ValueError("lower bound must be finite")

    def g(s):
        one_minus = 1.0 - s
        # beyond u ~ 1e50 any admissible tail contributes < 1e-25; zeroing
        # there avoids 0 * inf once f underflows while the Jacobian overflows
        safe = np.maximum(one_minus, 1e-50)
        u = a + s / safe
        vals = np.asarray(f(u), dtype=float) / safe**2
        return np.where(one_minus > 1e-50, vals, 0.0)

    return integrate_finite(g, 0.0, 1.0, spec)


def quad_any(f, lo, hi, spec=None):
    spec = spec or QuadSpec()
    if math.isinf(hi):
        return integrate_semi_infinite(f, lo, spec)
    return integrate_finite(f, lo, hi, spec)


def integrate_nested(f, bounds, spec: QuadSpec = QuadSpec()) -> IntegrationResult:
    """Iterated integration over 2 or 3 axes, outermost axis first.

    bounds is a sequence of (lo, hi) pairs ordered outermost-first.  Each
    bound may be a number, +inf for a semi-infinite axis, or a callable of
    the outer variables fixed so far.  f receives the outer variables as
    scalars and the innermost variable as a numpy array, e.g. for three axes
    f(t, x, r_array).

    Inner integrations run at a tightened tolerance; the reported error is
    the outer estimate plus a conservative allowance for the inner passes
    (validated against closed forms in test_quadrature.py).
    """
    if len(bounds) not in (2, 3):
        raise ValueError("integrate_nested supports 2 or 3 axes")

    inner_spec = QuadSpec(
        rel_tol=spec.rel_tol * 0.1,
        abs_tol=spec.abs_tol * 0.1,
        max_subdivisions=spec.max_subdivisions,
    )
    evaluations = [0]

    def resolve(bound, outer):
        return float(bound(*outer)) if callable(bound) else float(bound)

    def level(axis, outer):
        lo = resolve(bounds[axis][0], outer)
        hi_raw = bounds[axis][1]
        hi = hi_raw if (not callable(hi_raw) and np.isinf(hi_raw)) else resolve(hi_raw, outer)
        if axis == len(bounds) - 1:
            def innermost(arr):
                vals = np.asarray(f(*outer, arr), dtype=float)
                evaluations[0] += arr.size
                return vals

            return quad_any(innermost, lo, hi, inner_spec)

        def middle(arr):
            return np.array([level(axis + 1, outer + (x,)).value for x in arr])

        sp = spec if axis == 0 else inner_spec
        return quad_any(middle, lo, hi, sp)

    res = level(0, ())
    pad = abs(res.value) * inner_spec.rel_tol * 10.0 + spec.abs_tol
    return IntegrationResult(res.value, res.error_estimate + pad, evaluations[0])


def _union_area_arrays(r1, r2, d):
    """Vectorized union area of two discs (r1 at the origin, r2 at distance d):
    pi r1^2 + pi r2^2 - lens."""
    return np.pi * (np.asarray(r1, dtype=float) ** 2 + np.asarray(r2, dtype=float) ** 2) - _lens_area_arrays(r1, r2, d)


def cell_covariogram(r, x_panels: int = 80, theta_panels: int = 48) -> np.ndarray:
    """Mean set covariance gamma(r) of the typical Poisson-Voronoi cell at unit
    density, by a tensor Gauss-Legendre rule (12 nodes per panel):

        gamma(r) = 2 int_0^_KERNEL_REACH x int_0^pi exp(-A_u(x, |x + r e^{i th}|, r)) dth dx.
    """
    x, wx = _panel_nodes(np.linspace(0.0, _KERNEL_REACH, x_panels + 1))
    th, wt = _panel_nodes(np.linspace(0.0, math.pi, theta_panels + 1))
    x, cos = x[:, None], np.cos(th)[None, :]
    out = []
    for d in np.atleast_1d(np.asarray(r, dtype=float)):
        x2 = np.sqrt(x**2 + d**2 + 2.0 * x * d * cos)
        out.append(2.0 * (wx * x[:, 0]) @ np.exp(-_union_area_arrays(x, x2, d)) @ wt)
    return np.array(out)


def bessel_i0_scaled_series(x: float, terms: int = 60) -> float:
    """e^{-x} I0(x) from the defining power series sum (x/2)^{2k} / (k!)^2."""
    half = x / 2.0
    contributions = []
    term = 1.0
    for k in range(terms):
        if k > 0:
            term *= (half / k) ** 2
        contributions.append(term)
    return math.exp(-x) * math.fsum(contributions)


def bessel_i0_scaled_asymptotic(x: float) -> float:
    """Scaled large-x expansion: (2 pi x)^{-1/2} (1 + 1/(8x) + 9/(128x^2) + 75/(1024x^3))."""
    inv = 1.0 / x
    series = 1.0 + inv / 8.0 + 9.0 * inv**2 / 128.0 + 75.0 * inv**3 / 1024.0
    return series / math.sqrt(2.0 * math.pi * x)


def bessel_i0_scaled(x):
    """e^{-x} I0(x) for x >= 0; bounded in (0, 1] for all finite x."""
    arr = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0):
        raise DomainError("bessel_i0_scaled requires finite x >= 0")
    out = special.i0e(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


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


def marcum_q1_quadrature(a: float, b: float) -> float:
    """Adaptive quadrature of the defining Marcum integral (independent engine).

    The integrand y exp(-(y - a)^2 / 2) I0e(ay) is at most y exp(-(y - a)^2 / 2),
    so past y = max(a, b) + 40 it holds below (a + 1) e^-800 and the rule runs on
    the finite interval up to there, where the peak at y ~ a keeps its width 1
    at any a.
    """
    def integrand(y):
        return y * np.exp(-0.5 * (y - a) ** 2) * bessel_i0_scaled(a * y)

    spec = QuadSpec(rel_tol=1e-12, abs_tol=1e-14, max_subdivisions=4000)
    return integrate_finite(integrand, b, max(a, b) + 40.0, spec).value


def disc_overlap_hit_or_miss(r1, r2, d, samples, seed):
    """Monte Carlo lens-area oracle: uniform points in the bounding box of the
    first disc, counting those inside both.  Returns (estimate, stderr)."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-r1, r1, size=(samples, 2))
    box = (2.0 * r1) ** 2
    inside1 = np.einsum("ij,ij->i", pts, pts) <= r1 * r1
    shifted = pts - np.array([d, 0.0])
    inside2 = np.einsum("ij,ij->i", shifted, shifted) <= r2 * r2
    p = np.mean(inside1 & inside2)
    return box * p, box * math.sqrt(p * (1 - p) / samples)


# (integrand, lower, upper, exact value) with upper possibly inf; the suite
# covers polynomials, Gaussians and power tails per the error-bound contract.
CLOSED_FORM_SUITE = [
    (lambda x: np.ones_like(x), 0.0, 1.0, 1.0),
    (lambda x: x, 0.0, 1.0, 0.5),
    (lambda x: x**2, 0.0, 3.0, 9.0),
    (lambda x: x**5, -1.0, 1.0, 0.0),
    (lambda x: x**7 - 2 * x**3, 0.0, 2.0, 24.0),
    (lambda x: np.polyval([3, 0, -4, 1], x), -2.0, 2.0, 4.0),
    (lambda x: np.exp(x), 0.0, 1.0, math.e - 1.0),
    (lambda x: np.sin(x), 0.0, math.pi, 2.0),
    (lambda x: np.cos(x) ** 2, 0.0, 2.0 * math.pi, math.pi),
    (lambda x: 1.0 / (1.0 + x**2), 0.0, 1.0, math.pi / 4.0),
    (lambda x: np.exp(-0.5 * x**2), -8.0, 8.0, math.sqrt(2.0 * math.pi)),
    (lambda x: x * np.exp(-0.5 * x**2), 0.0, 10.0, 1.0 - math.exp(-50.0)),
    (lambda x: np.exp(-((x - 3.0) ** 2) / 0.02), 0.0, 6.0, math.sqrt(0.02 * math.pi)),
    (lambda x: np.sqrt(np.abs(x)), 0.0, 4.0, 16.0 / 3.0),
    (lambda x: np.log(x), 0.0, 1.0, -1.0),
    (lambda x: np.exp(-x), 0.0, math.inf, 1.0),
    (lambda x: np.exp(-3.0 * x) * x, 0.0, math.inf, 1.0 / 9.0),
    (lambda x: 1.0 / (1.0 + x**2), 1.0, math.inf, math.pi / 4.0),
    (lambda x: x ** (-2.5), 1.0, math.inf, 2.0 / 3.0),
    (lambda x: x * np.exp(-0.5 * x**2), 0.0, math.inf, 1.0),
]


def pgf_by_nested_quadrature(net, theta: float) -> float:
    """Load PGF at a real theta in [0, 1] via the adaptive engine only.

    Independent of the shared-grid evaluator: the outer integral runs over
    the normalized cell radius, the inner over the parent distance, both with
    the generic adaptive rules and the cluster CDF evaluated directly.
    """
    from cellload.ppmodel import cluster_cdf, cluster_reach
    from cellload.specfun import cell_radius_pdf

    norm = net.normalized()
    users = norm.users
    reach = cluster_reach(users)
    spec = QuadSpec(rel_tol=1e-9, abs_tol=1e-12)

    def outer_integrand(r_arr):
        out = np.empty_like(r_arr)
        for i, r in enumerate(r_arr):
            r_phys = r / math.sqrt(math.pi)

            def inner(v):
                xi = cluster_cdf(users, r_phys, v)
                return (1.0 - np.exp(-users.m_bar * (1.0 - theta) * xi)) * v

            val = integrate_finite(inner, 0.0, r_phys + reach, spec).value
            out[i] = math.exp(-2.0 * math.pi * users.lambda_p * val)
        return out * cell_radius_pdf(r_arr)

    return integrate_finite(outer_integrand, 0.0, _R_MAX, QuadSpec(rel_tol=1e-8, abs_tol=1e-12)).value


def pgf_grid(net, levels):
    """The quadrature grid of analytic._pgf_table, rebuilt independently.

    Returns (users, r_weights, lo, xi_lo, vw, xi): the normalized user model,
    the outer weights folded with the cell-radius density, per radius node the
    plateau end lo and the constant cluster CDF xi_lo on v <= lo, the inner
    weights of the band [lo, r + reach] folded with the v dv measure, and the
    cluster CDF tabulated on the (r, v) band grid.  The plateau is read off
    the kernel's geometry here: for Thomas the cluster's 6-sigma disc lies
    within b(o, r) while v <= r - 6 sigma, so xi = 1; for Matern b(o, r) lies
    within the parent's disc while v <= R - r (xi = r^2 / R^2), and the disc
    within b(o, r) while v <= r - R (xi = 1).
    """
    from cellload.ppmodel import cluster_cdf
    from cellload.quadrature import _panel_nodes
    from cellload.specfun import cell_radius_pdf

    n_r, n_trans = levels
    users = net.normalized().users
    r_nodes, r_weights = _panel_nodes(np.linspace(0.0, _R_MAX, n_r + 1))
    r_weights = r_weights * cell_radius_pdf(r_nodes)
    r_phys = r_nodes / math.sqrt(math.pi)
    if isinstance(users.kind, Thomas):
        reach = 6.0 * users.kind.sigma
        lo, xi_lo = np.maximum(r_phys - reach, 0.0), np.ones_like(r_phys)
    else:
        reach = users.kind.radius
        inside = r_phys < reach
        lo = np.where(inside, reach - r_phys, r_phys - reach)
        xi_lo = np.where(inside, (r_phys / reach) ** 2, 1.0)
    v_nodes, v_weights = _panel_nodes(np.linspace(lo, r_phys + reach, n_trans + 1, axis=-1))
    xi = cluster_cdf(users, r_phys[:, None], v_nodes)
    return users, r_weights, lo, xi_lo, v_weights * v_nodes, xi


def pgf_on_grid_direct(net, levels, thetas):
    """Load PGF on one grid of the circle approximation, node by node.

    The direct reading of the double integral: for each node theta one
    complex exponential exp(-m_bar (1 - theta) xi) over the band grid, plus
    the plateau v <= lo where xi = xi_lo, lo^2 / 2 (1 - exp(-m_bar (1 - theta) xi_lo)).
    1 - exp(-x) is taken as -expm1(-x): for a wide Matern disc xi ~ r^2 / R^2
    is tiny over an area ~ R^2, and 1 - exp(-x) would lose its digits there.
    Oracle for the Poisson-series evaluation of analytic._pgf_from_table.
    """
    users, r_weights, lo, xi_lo, vw, xi = pgf_grid(net, levels)
    thetas = np.atleast_1d(np.asarray(thetas, dtype=complex))
    out = np.empty(thetas.shape, dtype=complex)
    for k, theta in enumerate(thetas):
        c = users.m_bar * (1.0 - theta)
        plateau = -0.5 * lo * lo * np.expm1(-c * xi_lo)
        inner = (-np.expm1(-c * xi) * vw).sum(axis=1) + plateau
        out[k] = np.dot(r_weights, np.exp(-2.0 * math.pi * users.lambda_p * inner))
    return out


def matern_cdf_quadrature(big_r, r, v, spec=None):
    """Matern cluster CDF by adaptive quadrature of the arccos wedge integral."""
    spec = spec or QuadSpec(rel_tol=1e-10, abs_tol=1e-12)
    head = min(r, max(big_r - v, 0.0)) ** 2
    lo = min(r, abs(big_r - v))
    hi = min(r, big_r + v)
    if hi <= lo:
        return head / big_r**2

    def wedge(u):
        cosarg = np.clip((u**2 + v**2 - big_r**2) / (2.0 * u * v), -1.0, 1.0)
        return u * np.arccos(cosarg)

    tail = integrate_finite(wedge, lo, hi, spec).value
    return (head + 2.0 / math.pi * tail) / big_r**2


def power_tail(x, m: float):
    """int_x^inf du / (1 + u^m) for x >= 0 and m > 1, from two hypergeometric
    branches split at x = 1 (each series argument stays in [-1, 0]).

    An independent reference for the library's single-call SIR closed form.
    """
    x = np.asarray(x, dtype=float)
    # sin(pi / m) = sin(pi (m - 1) / m): near m = 1 the first form rounds pi / m
    # next to pi and loses digits
    total = (math.pi / m) / math.sin(math.pi * (m - 1.0) / m)
    out = np.empty(x.shape)
    low = x < 1.0
    if np.any(low):
        xl = x[low]
        out[low] = total - xl * special.hyp2f1(1.0, 1.0 / m, 1.0 + 1.0 / m, -(xl**m))
    if np.any(~low):
        xh = x[~low]
        out[~low] = (
            xh ** (1.0 - m) / (m - 1.0)
            * special.hyp2f1(1.0, 1.0 - 1.0 / m, 2.0 - 1.0 / m, -(xh ** (-m)))
        )
    return out


def beta_factor(t, m: float):
    """beta(t) = t * int_{1/t}^inf du / (1 + u^m) for t > 0, from power_tail."""
    t = np.asarray(t, dtype=float)
    return t * power_tail(1.0 / t, m)


def sir_ccdf_by_quadrature(alpha: float, tau, delta: float):
    """SIR CCDF with the coverage kernel shifted by delta, by adaptive quadrature:

        P_c(tau) = delta^2 tau^{-2/alpha} int_0^{tau^{2/alpha}}
                   (delta + beta(t))^{-2} / (1 + t^{alpha/2}) dt.

    delta = 1 is the shipped closed form 1 / (1 + beta(tau^{2/alpha})); other
    values are perturbed readings (9/7 is the Gamma(3.5) area-weighted
    constant).  Accepts a scalar or an array of tau, like sir_ccdf.
    """
    m = alpha / 2.0
    spec = QuadSpec(rel_tol=1e-9, abs_tol=1e-12, max_subdivisions=3000)

    def one(t):
        if math.isinf(t):
            return 0.0
        t_hi = t ** (2.0 / alpha)

        def integrand(x):
            return (delta + beta_factor(x, m)) ** (-2.0) / (1.0 + x**m)

        value = delta**2 * t ** (-2.0 / alpha) * integrate_finite(integrand, 0.0, t_hi, spec).value
        return min(max(value, 0.0), 1.0)

    tau_arr = np.asarray(tau, dtype=float)
    out = np.array([one(float(t)) for t in tau_arr.ravel()]).reshape(tau_arr.shape)
    return float(out) if out.ndim == 0 else out
