import math
import time
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebder, chebinterpolate, chebval
from scipy.special import hyp2f1
from scipy.stats import nbinom, poisson

from cellload import analytic, quadrature
from cellload.analytic import (
    LoadMoments,
    LoadPmf,
    NegBinParams,
    RateConfig,
    dft_invert_pgf,
    invert_pgf,
    load_moments,
    load_pgf,
    load_pmf,
    mean_load,
    nb_fit,
    nb_pmf,
    ppp_baseline_variance,
    rate_coverage,
    sir_ccdf,
)
from cellload.analytic import (
    E_V2,
    _E_V2_ERROR,
    _GAMMA_CHEB,
    _GAMMA_FIT_ERROR,
    _GAMMA_SPAN,
    _chebval,
    _pair_excess_integral,
)
from cellload.errors import (
    ConvergenceError,
    DomainError,
    InfeasibleModelError,
    InversionQualityError,
)
from cellload.montecarlo import points_in_typical_cell, sample_ppp, tv_distance, _rng_for
from cellload.ppmodel import Matern, NetworkModel, Thomas, UserModel
from cellload.quadrature import QuadSpec, _panel_nodes, tensor_triple

from helpers import (
    _KERNEL_REACH,
    _union_area_arrays,
    beta_factor,
    cell_covariogram,
    integrate_nested,
    integrate_semi_infinite,
    pgf_by_nested_quadrature,
    pgf_grid,
    pgf_on_grid_direct,
    sir_ccdf_by_quadrature,
)

TCP_NET = NetworkModel(1.0, UserModel(5.0, 5.0, Thomas(0.05)))
MCP_NET = NetworkModel(1.0, UserModel(5.0, 5.0, Matern(0.1)))


class TestMeanLoad:
    def test_paper_parameters(self):
        assert mean_load(TCP_NET) == 25.0

    def test_unit_case(self):
        net = NetworkModel(2.0, UserModel(2.0, 1.0, Thomas(0.1)))
        assert mean_load(net) == 1.0

    def test_scale_invariance(self):
        net = NetworkModel(7.3, UserModel(5.0, 5.0, Matern(0.1)))
        assert mean_load(net) == pytest.approx(mean_load(net.normalized()))


class TestSecondMoment:
    def test_cell_area_kernel_against_gamma_oracle(self):
        # E[V^2] is Gilbert's (1962) ~1.28018 and sits within 1% of the
        # Gamma(3.5, 1/3.5) second moment 1 + 1/3.5 used by the PGF model
        assert E_V2 == pytest.approx(1.28018, abs=1e-5)
        assert E_V2 == pytest.approx(1.0 + 1.0 / 3.5, rel=0.01)

    def test_cell_area_kernel_reproduced_by_tensor_rule(self):
        # 2*pi * int_0^{2pi} int int exp(-A_u(x1, x2, d)) x1 x2 on the
        # truncated box, the theta range halved by symmetry
        def f(theta, x1, x2):
            d = np.sqrt(np.maximum(x1**2 + x2**2 - 2.0 * x1 * x2 * np.cos(theta), 0.0))
            return np.exp(-_union_area_arrays(x1, x2, d)) * x1 * x2

        res = tensor_triple(
            f,
            [(0.0, math.pi), (0.0, _KERNEL_REACH), (0.0, _KERNEL_REACH)],
            QuadSpec(rel_tol=1e-6, abs_tol=1e-12, max_subdivisions=4000),
            start_panels=(3, 5, 5),
        )
        assert 4.0 * math.pi * res.value == pytest.approx(E_V2, abs=1e-6)

    def test_cell_area_kernel_against_nested_engine(self):
        def f(theta, x1, x2):
            d = np.sqrt(np.maximum(x1**2 + x2**2 - 2.0 * x1 * x2 * math.cos(theta), 0.0))
            return np.exp(-_union_area_arrays(np.full_like(x2, x1), x2, d)) * x1 * x2

        res = integrate_nested(
            f,
            [(0.0, math.pi), (0.0, 4.2), (0.0, 4.2)],
            QuadSpec(rel_tol=1e-5, abs_tol=1e-9),
        )
        assert 4.0 * math.pi * res.value == pytest.approx(E_V2, rel=1e-4)

    def test_ppp_limit_against_monte_carlo(self):
        # PPP users: second moment = lam_u + lam_u^2 E[V^2] exactly
        lam_u = 10.0
        analytic_val = lam_u + lam_u**2 * E_V2
        window = 9.6
        cut = math.sqrt(math.log(lam_u * 1e7) / math.pi)
        n = 20_000
        sq = np.empty(n)
        for k in range(n):
            rng = _rng_for(99, k)
            stations = sample_ppp(1.0, window, rng)
            users = sample_ppp(lam_u, cut, rng)
            near = stations[np.einsum("ij,ij->i", stations, stations) <= 4 * cut * cut]
            sq[k] = float(np.count_nonzero(points_in_typical_cell(users, near))) ** 2
        stderr = sq.std() / math.sqrt(n)
        assert abs(sq.mean() - analytic_val) <= 4.0 * stderr

    def test_cauchy_schwarz_and_integer_bounds(self):
        m = load_moments(TCP_NET)
        assert m.second_moment >= m.mean**2
        assert m.second_moment >= m.mean

    def test_symmetry_of_distance_argument(self):
        # d(x1, x2, th) is symmetric in (x1, x2) and about th = pi
        rng = np.random.default_rng(5)
        for _ in range(20):
            x1, x2 = rng.uniform(0.1, 3.0, 2)
            th = rng.uniform(0.0, math.pi)
            d = lambda a, b, t: math.sqrt(a**2 + b**2 - 2 * a * b * math.cos(t))
            assert d(x1, x2, th) == pytest.approx(d(x2, x1, th))
            assert d(x1, x2, 2 * math.pi - th) == pytest.approx(d(x1, x2, th))


def stored_covariogram(r):
    return chebval(np.asarray(r, dtype=float) * (2.0 / _GAMMA_SPAN) - 1.0, _GAMMA_CHEB)


class TestCovariogram:
    """The stored Chebyshev series of the typical cell's mean set covariance."""

    def test_series_rebuilt_from_tensor_rule(self):
        rebuilt = chebinterpolate(
            lambda u: cell_covariogram(0.5 * _GAMMA_SPAN * (u + 1.0)), _GAMMA_CHEB.size - 1
        )
        u = np.random.default_rng(11).uniform(0.0, _GAMMA_SPAN, 50) * (2.0 / _GAMMA_SPAN) - 1.0
        assert np.max(np.abs(chebval(u, rebuilt) - chebval(u, _GAMMA_CHEB))) <= 1e-10

    def test_clenshaw_sum_is_chebval(self):
        # the runtime sum is numpy's, without importing numpy.polynomial
        u = np.concatenate([np.linspace(-1.0, 1.0, 1001),
                            np.random.default_rng(13).uniform(-1.0, 1.0, 1000)])
        assert _chebval(u, _GAMMA_CHEB).tobytes() == chebval(u, _GAMMA_CHEB).tobytes()

    def test_fit_error_bounds_gap_to_finer_rule(self):
        # the gap peaks at small r, where the theta = pi slice kinks at x = r
        r = np.random.default_rng(12).uniform(0.0, 1.0, 8)
        gap = np.abs(stored_covariogram(r) - cell_covariogram(r, 160, 96))
        assert gap.max() <= _GAMMA_FIT_ERROR

    def test_unit_area_at_zero(self):
        # gamma(0) = E|V| = 1 at unit density
        assert stored_covariogram(0.0) == pytest.approx(1.0, abs=1e-9)

    def test_slope_at_zero_is_mean_perimeter_over_pi(self):
        # gamma'(0) = -E[perimeter] / pi, with E[perimeter] = 4 at unit density
        slope = chebval(-1.0, chebder(_GAMMA_CHEB)) * (2.0 / _GAMMA_SPAN)
        assert slope == pytest.approx(-4.0 / math.pi, rel=1e-6)

    def test_integral_is_cell_area_second_moment(self):
        # 2 pi int_0^inf r gamma(r) dr = E[V^2] (Gilbert 1962)
        r, w = _panel_nodes(np.linspace(0.0, _GAMMA_SPAN, 65))
        assert abs(2.0 * math.pi * float(w @ (r * stored_covariogram(r))) - E_V2) <= _E_V2_ERROR


class TestClusteringTermLimits:
    """Closed-form cluster-size limits of 2 pi int r rho_excess gamma dr (lambda_b = 1)."""

    @pytest.mark.parametrize("kind", [Thomas(1e-6), Matern(1e-6)], ids=["tcp", "mcp"])
    def test_small_clusters_see_every_pair(self, kind):
        # offspring pairs at separation ~0 count gamma(0) = 1 each
        net = NetworkModel(1.0, UserModel(5.0, 5.0, kind))
        assert _pair_excess_integral(net).value == pytest.approx(5.0 * 5.0**2, rel=1e-5)

    def test_large_thomas_clusters_see_the_cell_area_moment(self):
        # rho_excess ~ lambda_p m_bar^2 / (4 pi sigma^2) across the support of gamma
        sigma = 30.0
        net = NetworkModel(1.0, UserModel(5.0, 5.0, Thomas(sigma)))
        ratio = _pair_excess_integral(net).value * 4.0 * math.pi * sigma**2 / (5.0 * 5.0**2 * E_V2)
        assert ratio == pytest.approx(1.0, rel=1e-3)

    def test_no_tensor_rule_at_runtime(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("load_moments must not run the 3-D tensor rule")

        monkeypatch.setattr(quadrature, "tensor_triple", forbidden)
        for net in (TCP_NET, MCP_NET):
            assert load_moments(net).variance > ppp_baseline_variance(net)


class TestVariance:
    def test_printed_tcp_equation_cross_check(self):
        # the printed TCP variance integral in normalized units equals the
        # separation-coordinate excess integral
        net = NetworkModel(1.0, UserModel(5.0, 5.0, Thomas(0.2)))
        sigma = 0.2
        lam_p = 5.0

        def f(theta, x1, x2):
            d2 = np.maximum(x1**2 + x2**2 - 2.0 * x1 * x2 * math.cos(theta), 0.0)
            a_u = _union_area_arrays(np.full_like(x2, x1), x2, np.sqrt(d2))
            return np.exp(-a_u - d2 / (4.0 * sigma**2)) * x1 * x2

        j = integrate_nested(
            f,
            [(0.0, math.pi), (0.0, 4.5), (0.0, lambda th, x1: x1)],
            QuadSpec(rel_tol=1e-5, abs_tol=1e-10),
        )
        printed_excess = mean_load(net) ** 2 * (2.0 / (lam_p * sigma**2)) * j.value
        assert printed_excess == pytest.approx(_pair_excess_integral(net).value, rel=2e-3)

    def test_variance_consistency(self):
        m = load_moments(TCP_NET)
        assert m.variance == pytest.approx(m.second_moment - m.mean**2, rel=1e-9)

    def test_exceeds_ppp_baseline_and_028_floor(self):
        for net in (TCP_NET, MCP_NET):
            var = load_moments(net).variance
            mean = mean_load(net)
            assert var > ppp_baseline_variance(net)
            assert var >= 0.28 * mean**2

    def test_ppp_limit_of_baseline(self):
        # excess removed: variance reduces to shot noise + cell-area part
        mean = mean_load(TCP_NET)
        assert ppp_baseline_variance(TCP_NET) == pytest.approx(
            mean + (E_V2 - 1.0) * mean**2, rel=1e-12
        )

    def test_normalized_variance_decreasing_in_cluster_size(self):
        sizes = [0.05, 0.2, 1.0]
        nv = []
        for s in sizes:
            net = NetworkModel(1.0, UserModel(5.0, 5.0, Thomas(s)))
            m = load_moments(net)
            nv.append(m.variance / m.mean**2)
        assert nv[0] > nv[1] > nv[2]
        assert nv[-1] > 0.28 + 1.0 / 25.0 - 1e-3  # floor: ppp baseline level

    def test_scale_invariance_of_counts(self):
        a = load_moments(NetworkModel(1.0, UserModel(5.0, 5.0, Thomas(0.1))))
        b = load_moments(NetworkModel(4.0, UserModel(20.0, 5.0, Thomas(0.05))))
        assert a.mean == pytest.approx(b.mean)
        assert a.variance == pytest.approx(b.variance, rel=1e-6)


class TestNegBinFit:
    def test_textbook_case(self):
        fit = nb_fit(LoadMoments(mean=25.0, second_moment=675.0, variance=50.0))
        assert fit.t == pytest.approx(0.5)
        assert fit.r == 25

    def test_poisson_boundary_rejected(self):
        with pytest.raises(InfeasibleModelError):
            nb_fit(LoadMoments(mean=25.0, second_moment=650.0, variance=25.0))

    def test_moment_recovery_with_floor_slack(self):
        # flooring r loses up to one unit of r, worth t/(1-t) of mean and
        # t/(1-t)^2 of variance; the fit cannot be closer than that
        m = load_moments(TCP_NET)
        fit = nb_fit(m)
        nb_mean = fit.r * fit.t / (1.0 - fit.t)
        nb_var = fit.r * fit.t / (1.0 - fit.t) ** 2
        assert fit.r >= 1
        assert 0.0 <= m.mean - nb_mean <= fit.t / (1.0 - fit.t)
        assert 0.0 <= m.variance - nb_var <= fit.t / (1.0 - fit.t) ** 2

    def test_moment_recovery_exact_when_r_is_integral(self):
        fit = nb_fit(LoadMoments(mean=25.0, second_moment=675.0, variance=50.0))
        assert fit.r * fit.t / (1.0 - fit.t) == pytest.approx(25.0)
        assert fit.r * fit.t / (1.0 - fit.t) ** 2 == pytest.approx(50.0)

    def test_pmf_normalization(self):
        fit = NegBinParams(25, 0.5)
        assert nb_pmf(fit, np.arange(400)).sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("r", [1, 3, 40])
    @pytest.mark.parametrize("t", [0.1, 0.5, 0.95])
    def test_pmf_matches_scipy(self, r, t):
        # atol = the smallest normal double: subnormal terms carry fewer digits on either side
        n = np.arange(401)
        np.testing.assert_allclose(nb_pmf(NegBinParams(r, t), n), nbinom.pmf(n, r, 1.0 - t),
                                   rtol=1e-12, atol=np.finfo(float).tiny)

    def test_pmf_is_zero_below_zero(self):
        out = nb_pmf(NegBinParams(3, 0.5), np.array([-2, -1, 0, 1]))
        assert out[:2].tolist() == [0.0, 0.0]
        np.testing.assert_allclose(out[2:], [0.125, 0.1875], rtol=1e-15, atol=0.0)

    def test_params_validation(self):
        with pytest.raises(DomainError):
            NegBinParams(0, 0.5)
        with pytest.raises(DomainError):
            NegBinParams(3, 0.0)


class TestLoadPgf:
    def test_at_one(self):
        assert load_pgf(TCP_NET, 1.0) == pytest.approx(1.0, abs=1e-9)
        assert load_pgf(MCP_NET, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_no_users_limit(self):
        net = NetworkModel(1.0, UserModel(5.0, 1e-9, Thomas(0.05)))
        for theta in (0.0, 0.3, 0.9):
            assert load_pgf(net, theta) == pytest.approx(1.0, abs=1e-6)

    def test_against_nested_quadrature_oracle(self):
        for net in (TCP_NET, MCP_NET):
            for theta in (0.0, 0.5):
                oracle = pgf_by_nested_quadrature(net, theta)
                assert complex(load_pgf(net, theta)).real == pytest.approx(oracle, abs=2e-7)

    @pytest.mark.parametrize("m_bar", [5.0, 300.0, 2000.0])
    @pytest.mark.parametrize("kernel", [Thomas(0.05), Matern(0.1), Matern(100.0)],
                             ids=["tcp", "mcp", "mcp-wide"])
    def test_series_matches_direct_oracle(self, kernel, m_bar):
        # the Poisson series against one complex exponential per node; at
        # m_bar = 2000 exp(-m_bar xi) underflows, so a series that starts
        # from it drops the mass of the grid cells with m_bar xi > 745
        net = NetworkModel(1.0, UserModel(5.0, m_bar, kernel))
        roots = np.exp(2j * np.pi * np.arange(64) / 64)
        thetas = np.concatenate([[0.0, 1.0, -1.0, 0.5 + 0.3j], roots, 0.9 * roots])
        got = analytic._pgf_from_table(*analytic._pgf_table(net, analytic._BASE_LEVELS), thetas)
        want = pgf_on_grid_direct(net, analytic._BASE_LEVELS, thetas)
        assert np.max(np.abs(got - want)) <= 1e-13
        # 1 - theta^j vanishes at theta = 1: no cancellation in G(1)
        r_weights = pgf_grid(net, analytic._BASE_LEVELS)[1]
        assert got[1] == got[4] == r_weights.sum()

    @pytest.mark.parametrize("m_bar", [0.5, 5.0, 20.0])
    def test_series_length_set_by_m_bar_alone(self, m_bar):
        # the Poisson(m_bar) tail rule on its own; pi_j(mu) increases in mu
        # below j, so no grid value mu = m_bar xi <= m_bar asks for more terms
        j = 1
        while not (j + 1 > m_bar and poisson.pmf(j, m_bar) < 1e-17 * (1.0 - m_bar / (j + 1))):
            j += 1
        for kernel in (Thomas(0.01), Thomas(0.5), Matern(0.1), Matern(1.0)):
            net = NetworkModel(1.0, UserModel(5.0, m_bar, kernel))
            assert analytic._pgf_table(net, analytic._BASE_LEVELS)[1].shape[1] == j

    def test_non_finite_cluster_cdf_raises(self, monkeypatch):
        # a NaN xi would run into every series coefficient and from there
        # into the PGF and the PMF
        real = analytic.cluster_cdf

        def with_nan(*args):
            xi = real(*args)
            xi[-1, -1] = np.nan
            return xi

        monkeypatch.setattr(analytic, "cluster_cdf", with_nan)
        with pytest.raises(ConvergenceError):
            analytic._pgf_table(TCP_NET, analytic._BASE_LEVELS)

    def test_conjugate_symmetry_and_modulus_bound(self):
        thetas = 0.8 * np.exp(2j * np.pi * np.linspace(0.07, 0.93, 7))
        for net in (TCP_NET,):
            for th in thetas:
                g = load_pgf(net, th)
                g_conj = load_pgf(net, np.conj(th))
                assert g_conj == pytest.approx(np.conj(g), abs=1e-10)
                assert abs(g) <= complex(load_pgf(net, abs(th))).real + 1e-10

    def test_array_theta_rejected(self):
        # one value per call: an array must not be reduced to its first entry
        with pytest.raises(DomainError):
            load_pgf(TCP_NET, np.array([0.5, 0.9]))
        with pytest.raises(DomainError):
            load_pgf(TCP_NET, np.array([0.5]))

    def test_void_probability_bounds(self):
        g0 = complex(load_pgf(TCP_NET, 0.0)).real
        # clustered users leave more cells empty than PPP users of the same
        # intensity (Gamma-mixed Poisson void probability)
        ppp_void = (1.0 + 25.0 / 3.5) ** (-3.5)
        assert ppp_void < g0 < 1.0


class TestInvertPgf:
    def test_negative_binomial_oracle(self):
        nb = NegBinParams(25, 0.5)
        pgf = lambda th: ((1.0 - nb.t) / (1.0 - nb.t * th)) ** nb.r
        pmf = dft_invert_pgf(pgf, 128)
        exact = nb_pmf(nb, np.arange(128))
        assert np.max(np.abs(pmf.probs - exact)) < 1e-10

    def test_power_of_two_required(self):
        with pytest.raises(DomainError):
            dft_invert_pgf(lambda th: th, 100)
        with pytest.raises(DomainError):
            invert_pgf(TCP_NET, 96)

    def test_non_finite_pgf_rejected(self):
        # NaN slips through both quality checks (every comparison with NaN is
        # False), so non-finite values are rejected explicitly
        with pytest.raises(InversionQualityError):
            dft_invert_pgf(lambda th: np.full(np.shape(th), np.nan + 0j), 128)

    def test_imaginary_residue_rejected(self):
        # p_1 = e^(1e-6 i): the real parts sum to 1 - 5e-13, the imaginary part is 1e-6
        with pytest.raises(InversionQualityError, match="imaginary residue"):
            dft_invert_pgf(lambda th: th * np.exp(1e-6j), 128)

    def test_lost_mass_rejected(self):
        with pytest.raises(InversionQualityError, match="sums to 0.500000"):
            dft_invert_pgf(lambda th: 0.5 * th, 128)

    def test_distribution_sanity(self):
        pmf = invert_pgf(TCP_NET, 128)
        assert abs(pmf.raw_sum - 1.0) <= 1e-4
        assert pmf.min_raw >= -1e-6
        assert np.all(pmf.probs >= 0.0)
        assert pmf.dft_size == 128

    def test_degenerate_model_collapses_to_zero(self):
        net = NetworkModel(1.0, UserModel(5.0, 1e-9, Thomas(0.05)))
        pmf = invert_pgf(net, 128)
        assert pmf.probs[0] == pytest.approx(1.0, abs=1e-6)
        assert pmf.probs[1:].max() < 1e-6

    def test_mean_consistency_with_moments(self):
        m = load_moments(TCP_NET)
        pmf = invert_pgf(TCP_NET, 128, moments=m)
        rel = abs(pmf.mean() - m.mean) / m.mean
        assert rel <= 0.10  # 5% empirically; 10% flags a bug

    def test_default_size_selection(self):
        # load_pmf's size: the smallest power of two above the series length J
        # whose Chernoff bound on the aliased mass is at most _TAIL_TOL
        pmf = invert_pgf(TCP_NET)
        r_weights, c = analytic._pgf_table(TCP_NET, analytic._BASE_LEVELS)
        n = pmf.dft_size
        assert n & (n - 1) == 0 and n > c.shape[1]
        assert pmf.alias_bound <= analytic._TAIL_TOL
        assert analytic._alias_bound(r_weights, c, n // 2) > analytic._TAIL_TOL
        assert load_pmf(TCP_NET).dft_size == n

    @pytest.mark.parametrize(
        "rows", [((1, 3.0), (1, 7.0)), ((1, 3.0), (10, 0.5))], ids=["poisson", "batches"]
    )
    def test_alias_bound_on_poisson_mixture(self, rows):
        # row r of a hand-built table is b_r times a Poisson(lam_r) count
        # (c_j = lam_r at j = b_r); at N = 8 the "batches" row has J >= N and
        # is summed modulo N.  Each term carries its aliased tail
        # sum_l p_(n + lN), whose total the Chernoff bound must cover.
        n_points, weights = 8, np.array([0.4, 0.6])
        c = np.zeros((2, max(b for b, _ in rows)))
        for r, (b, lam) in enumerate(rows):
            c[r, b - 1] = lam
        pmf = analytic._dft_pmf(weights, c, n_points)
        loads = np.arange(25 * n_points)
        exact = sum(
            w * np.where(loads % b == 0, poisson.pmf(loads // b, lam), 0.0)
            for w, (b, lam) in zip(weights, rows)
        )
        assert pmf.dft_size == n_points
        assert np.max(np.abs(pmf.probs - exact.reshape(-1, n_points).sum(axis=0))) <= 1e-15
        assert pmf.alias_bound >= exact[n_points:].sum()

    def test_failed_refinement_builds_no_extra_grid(self, monkeypatch):
        # one refinement compares the base grid with the next and then gives
        # up: two cluster-CDF tables, no third grid built and discarded
        calls = []
        real = analytic.cluster_cdf

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(analytic, "cluster_cdf", counting)
        monkeypatch.setattr(analytic, "_GRID_TOL", 0.0)
        monkeypatch.setattr(analytic, "_GRID_REFINEMENTS", 1)
        net = NetworkModel(1.0, UserModel(5.0, 5.0, Thomas(0.07)))
        with pytest.raises(ConvergenceError) as err:
            load_pgf(net, 0.5)
        assert len(calls) == 2
        assert err.value.best_estimate.shape == (1,)


class TestLoadPmf:
    @pytest.mark.parametrize("net", [TCP_NET, MCP_NET], ids=["tcp", "mcp"])
    def test_matches_dft_at_large_size(self, net):
        # load_pmf's cut DFT and a 4096-point DFT of the same PGF, per term;
        # the longer DFT's terms past load_pmf's last one are its < 1e-12 tail
        pmf = load_pmf(net)
        ref = invert_pgf(net, 4096).probs
        assert pmf.probs.size < ref.size
        assert np.max(np.abs(pmf.probs - ref[: pmf.probs.size])) <= 1e-12
        assert np.max(ref[pmf.probs.size :]) <= 1e-12

    @pytest.mark.parametrize("net", [TCP_NET, MCP_NET], ids=["tcp", "mcp"])
    def test_cut_of_invert_pgf(self, net):
        # load_pmf is invert_pgf's DFT cut at its 1e-12 tail: the same terms,
        # DFT size and alias bound, bit for bit
        pmf, full = load_pmf(net), invert_pgf(net)
        assert pmf.probs.size < full.probs.size
        assert np.array_equal(pmf.probs, full.probs[: pmf.probs.size])
        assert (pmf.dft_size, pmf.alias_bound) == (full.dft_size, full.alias_bound)

    @pytest.mark.parametrize("lambda_p, kind", [(1e-7, Matern(0.1)), (1e-6, Thomas(0.05))],
                             ids=["mcp", "tcp"])
    def test_sparse_models_pass_the_mean_gate(self, lambda_p, kind):
        # the 1e-12 cut drops 5-7.5e-12 of mean at loads 18-20, more than the
        # gate's 1e-12 floor; the gate reads all N terms, whose mean is right
        net = NetworkModel(1.0, UserModel(lambda_p, 5.0, kind))
        exact = mean_load(net)
        assert invert_pgf(net).mean() == pytest.approx(exact, rel=1e-6)
        pmf = load_pmf(net)
        assert pmf.probs.size < pmf.dft_size
        assert abs(pmf.mean() - exact) <= 1e-11

    @pytest.mark.parametrize("entry", [lambda net: load_pgf(net, 0.5), invert_pgf, load_pmf],
                             ids=["load_pgf", "invert_pgf", "load_pmf"])
    def test_large_mbar_refused_before_any_table(self, entry, monkeypatch):
        # the series runs past mbar terms, one pass over the grid each: every
        # entry point of the grid ladder refuses mbar >= 2^20 at once
        def forbidden(*args):
            raise AssertionError("no PGF table may be built")

        monkeypatch.setattr(analytic, "_pgf_table", forbidden)
        net = NetworkModel(1.0, UserModel(5.0, 2.0**20, Thomas(0.05)))
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="series terms"):
            entry(net)
        assert time.perf_counter() - start < 1.0

    def test_exact_mean_and_tail(self):
        # the cell-radius truncation (1e-10) is most of the missing mass
        pmf = load_pmf(TCP_NET)
        assert np.all(pmf.probs >= 0.0)
        assert pmf.mean() == pytest.approx(25.0, abs=1e-6)
        assert pmf.tail_mass() < 1e-9

    def test_degenerate_model_collapses_to_zero(self):
        net = NetworkModel(1.0, UserModel(5.0, 1e-9, Thomas(0.05)))
        pmf = load_pmf(net)
        assert pmf.probs[0] == pytest.approx(1.0, abs=1e-6)
        assert pmf.probs[1:].max() < 1e-6

    def test_cluster_cdf_only_on_the_transition_band(self, monkeypatch):
        # the plateau is closed form: each grid evaluates xi on its
        # 12 n_r x 12 n_trans band nodes only, 51,840 points over the two
        # grids the paper model builds
        sizes = []
        real = analytic.cluster_cdf

        def counting(*args):
            xi = real(*args)
            sizes.append(xi.size)
            return xi

        monkeypatch.setattr(analytic, "cluster_cdf", counting)
        load_pmf(TCP_NET)
        n_r, n_trans = analytic._BASE_LEVELS
        assert sizes == [144 * n_r * n_trans * 4**k for k in range(len(sizes))]
        assert sum(sizes) == 51_840

    def test_unreachable_tolerance_stops(self, monkeypatch):
        # no DFT size up to the cap can meet the tolerance: the size search
        # raises before any FFT, whose spectrum alone would take 8 MB at the
        # cap of 2^20
        monkeypatch.setattr(analytic, "_TAIL_TOL", -1.0)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ConvergenceError, match="no DFT size"):
                load_pmf(MCP_NET)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 4 * 2**20

    def test_heavy_load_scales_rows(self):
        # mean 750: p_0 = exp(-sum_j c_j) underflows on the largest cells; the
        # DFT never forms it, only exp(C_r(theta) - C_r(1)) at the roots of unity
        net = NetworkModel(1.0, UserModel(150.0, 5.0, Thomas(0.05)))
        pmf = load_pmf(net)
        assert np.all(pmf.probs >= 0.0)
        assert pmf.mean() == pytest.approx(750.0, rel=1e-6)
        assert pmf.tail_mass() <= 1e-9


class TestWideClusterLimit:
    # As the cluster size grows, the users of one cell come from ever more
    # clusters and form a PPP in the limit, whose load law under the circle
    # approximation has G(theta) = (1 + lambda_u (1 - theta) / 3.5)^-3.5:
    # NB(3.5, q) with q = 3.5 / (3.5 + lambda_u).  The variance of the
    # cluster-sum intensity is lambda_p pi m_bar^2 r^4 / R^2, so the TV gap
    # falls as 1 / R^2 (5.2e-4, 2.1e-5, 5.2e-6, 5.2e-8 for Matern R = 10, 50,
    # 100, 1000; 1.3e-6 and 1.9e-8 for Thomas sigma = 100, 1000).
    @pytest.mark.parametrize("kernel,tv_bound", [
        (Matern(50.0), 1e-4), (Matern(100.0), 1e-5), (Matern(1000.0), 1e-7),
        (Thomas(100.0), 1e-5), (Thomas(1000.0), 1e-7),
    ], ids=["mcp-50", "mcp-100", "mcp-1000", "tcp-100", "tcp-1000"])
    def test_load_tends_to_ppp_law(self, kernel, tv_bound):
        net = NetworkModel(1.0, UserModel(5.0, 5.0, kernel))
        start = time.perf_counter()
        pmf = load_pmf(net)
        assert time.perf_counter() - start < 2.0
        assert np.all(pmf.probs >= 0.0)
        assert pmf.mean() == pytest.approx(25.0, rel=1e-6)
        ppp = nbinom.pmf(np.arange(pmf.probs.size + 200), 3.5, 3.5 / (3.5 + 25.0))
        assert tv_distance(pmf, ppp) <= tv_bound


class TestSirCcdf:
    def test_identity_with_closed_form(self):
        # delta^2 tau^{-2/a} int (delta+beta)^{-2}/(1+t^{a/2}) equals
        # 1/(1+beta(tau^{2/a})) when delta = 1
        for alpha in (3.0, 4.0, 5.0):
            for tau in (0.01, 0.1, 1.0, 10.0, 1e4):
                oracle = sir_ccdf_by_quadrature(alpha, tau, 1.0)
                assert sir_ccdf(alpha, tau) == pytest.approx(oracle, abs=1e-8)

    def test_array_input_matches_scalar(self):
        taus = np.array([[0.1, 1.0], [10.0, math.inf]])
        out = sir_ccdf(4.0, taus)
        assert out.shape == taus.shape
        assert out.tolist() == [[sir_ccdf(4.0, float(t)) for t in row] for row in taus]
        with pytest.raises(DomainError):
            sir_ccdf(4.0, np.array([1.0, 0.0]))

    def test_alpha4_frozen_value(self):
        # beta(1) = arctan(1) = pi/4 at alpha = 4
        assert sir_ccdf(4.0, 1.0) == pytest.approx(1.0 / (1.0 + math.pi / 4.0), abs=1e-9)

    def test_single_call_matches_two_branch_reference(self):
        # the one-call 2F1 form against the power tail split at x = 1
        taus = np.geomspace(1e-12, 1e12, 97)
        for alpha in (2.001, 2.01, 2.5, 3.0, 4.0, 6.0, 8.0, 20.0, 100.0):
            ref = 1.0 / (1.0 + beta_factor(taus ** (2.0 / alpha), alpha / 2.0))
            np.testing.assert_allclose(sir_ccdf(alpha, taus), ref, rtol=1e-13, atol=0.0)
            assert sir_ccdf(alpha, math.inf) == 0.0
        assert sir_ccdf(4.0, 1.0) == pytest.approx(1.0 / (1.0 + math.pi / 4.0), rel=0, abs=1e-15)

    def test_matches_scipy_hyp2f1(self):
        # the Pfaff series and connection formula against scipy's 2F1 in the docstring's form
        taus = np.concatenate([np.geomspace(1e-12, 1e12, 241), [1.0 - 1e-15, 1.0, 1.0 + 1e-15]])
        for alpha in (2.001, 2.5, 3.0, 4.0, 8.0, 20.0, 100.0):
            d = 2.0 / alpha
            ref = 1.0 / (1.0 + 2.0 * taus / (alpha - 2.0) * hyp2f1(1.0, 1.0 - d, 2.0 - d, -taus))
            np.testing.assert_allclose(sir_ccdf(alpha, taus), ref, rtol=1e-13, atol=0.0)
            # rate_coverage's expm1 overflows to tau = inf past 2^1024
            with np.errstate(over="ignore"):
                overflowed = np.expm1(np.array([1100.0]) * math.log(2.0))
            assert sir_ccdf(alpha, overflowed).tolist() == [0.0]
            assert sir_ccdf(alpha, math.inf) == 0.0

    def test_monotone_in_tau(self):
        vals = [sir_ccdf(4.0, t) for t in (0.1, 1.0, 10.0, 100.0)]
        assert vals == sorted(vals, reverse=True)
        assert 0.0 <= vals[-1] <= 1.0

    def test_tau_limits(self):
        assert sir_ccdf(4.0, 1e-9) == pytest.approx(1.0, abs=1e-3)
        assert sir_ccdf(4.0, 1e12) < 1e-3
        assert sir_ccdf(4.0, math.inf) == 0.0

    def test_beta_factor_against_quadrature(self):
        spec = QuadSpec(rel_tol=1e-9, abs_tol=1e-12, max_subdivisions=4000)
        for alpha in (3.0, 4.0, 6.0):
            m = alpha / 2.0
            for t in (0.05, 0.7, 1.0, 3.0, 40.0):
                direct = float(beta_factor(np.array(t), m))
                tail = integrate_semi_infinite(lambda u: 1.0 / (1.0 + u**m), 1.0 / t, spec).value
                assert direct == pytest.approx(t * tail, rel=1e-7)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sir_ccdf(2.0, 1.0)
        with pytest.raises(DomainError):
            sir_ccdf(4.0, 0.0)
        with pytest.raises(DomainError):
            sir_ccdf(4.0, math.nan)


@pytest.fixture(scope="module")
def tcp_pmf():
    return load_pmf(TCP_NET)


class TestRateCoverage:
    @pytest.mark.parametrize("backhaul", [math.inf, 2e6])
    def test_matches_per_load_sum_by_quadrature(self, tcp_pmf, backhaul):
        # the per-n loop over the quadrature oracle, as the formula reads
        cfg = RateConfig(alpha=4.0, bandwidth_w=1e6, backhaul_rb=backhaul)
        weights = tcp_pmf.conditional_tail()
        for rho in (2e4, 3e5):
            ref = sum(
                weights[n - 1] * sir_ccdf_by_quadrature(4.0, 2.0 ** (n * rho / 1e6) - 1.0, 1.0)
                for n in range(1, weights.size + 1)
                if backhaul / n > rho
            )
            assert rate_coverage(TCP_NET, cfg, tcp_pmf, rho) == pytest.approx(ref, abs=1e-7)

    def test_tiny_threshold_is_full_coverage(self, tcp_pmf):
        # n rho / W below one ulp of 1, where 2^x - 1 rounds to 0: every
        # loaded cell is covered
        cfg = RateConfig(alpha=4.0, bandwidth_w=1e6)
        full = tcp_pmf.conditional_tail().sum()
        assert rate_coverage(TCP_NET, cfg, tcp_pmf, 1e-12) == pytest.approx(full, abs=1e-12)

    @pytest.mark.parametrize("m_bar", [1e-9, 1e-12])
    def test_sparse_load_conditions_on_mass_above_zero(self, m_bar):
        # almost every busy cell holds one user, so the coverage is the
        # single-user P_c(2^(rho / W) - 1); the 1e-10 of mass the cell-radius
        # truncation leaves out is no busy cell
        net = NetworkModel(1.0, UserModel(5.0, m_bar, Thomas(0.05)))
        cfg = RateConfig(alpha=4.0, bandwidth_w=1e6)
        single = sir_ccdf(4.0, 2.0**0.02 - 1.0)
        assert single == pytest.approx(0.98630, abs=1e-5)
        assert rate_coverage(net, cfg, load_pmf(net), 2e4) == pytest.approx(single, abs=1e-6)

    def test_no_mass_above_zero_refused(self):
        # at mbar = 1e-13 the cut PMF is p_0 alone: no busy cell to condition on
        net = NetworkModel(1.0, UserModel(5.0, 1e-13, Thomas(0.05)))
        pmf = load_pmf(net)
        assert pmf.probs.size == 1
        with pytest.raises(InfeasibleModelError):
            rate_coverage(net, RateConfig(alpha=4.0, bandwidth_w=1e6), pmf, 2e4)

    def test_small_threshold_limit(self, tcp_pmf):
        cfg = RateConfig(alpha=4.0, bandwidth_w=1e6)
        assert rate_coverage(TCP_NET, cfg, tcp_pmf, 1e-3) == pytest.approx(1.0, abs=1e-4)

    def test_zero_beyond_backhaul(self, tcp_pmf):
        cfg = RateConfig(alpha=4.0, bandwidth_w=1e6, backhaul_rb=1e6)
        assert rate_coverage(TCP_NET, cfg, tcp_pmf, 1.5e6) == 0.0

    def test_threshold_at_backhaul_is_zero(self, tcp_pmf):
        # a single user gets R_b exactly, which is not above rho = R_b
        cfg = RateConfig(alpha=4.0, bandwidth_w=1e6, backhaul_rb=2e6)
        assert rate_coverage(TCP_NET, cfg, tcp_pmf, 2e6) == 0.0

    def test_half_backhaul_keeps_only_one_user(self, tcp_pmf):
        # two users get R_b / 2 = rho exactly, so only n = 1 counts
        cfg = RateConfig(alpha=4.0, bandwidth_w=1e6, backhaul_rb=2e6)
        one = tcp_pmf.conditional_tail()[0] * sir_ccdf(4.0, 1.0)
        assert rate_coverage(TCP_NET, cfg, tcp_pmf, 1e6) == pytest.approx(one, rel=1e-15)

    def test_zero_backhaul(self, tcp_pmf):
        cfg = RateConfig(alpha=4.0, bandwidth_w=1e6, backhaul_rb=0.0)
        assert rate_coverage(TCP_NET, cfg, tcp_pmf, 1e4) == 0.0

    def test_monotone_in_threshold(self, tcp_pmf):
        cfg = RateConfig(alpha=4.0, bandwidth_w=1e6)
        grid = np.geomspace(1e4, 2e6, 10)
        vals = [rate_coverage(TCP_NET, cfg, tcp_pmf, float(r)) for r in grid]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_backhaul(self, tcp_pmf):
        rho = 2e5
        capped = rate_coverage(
            TCP_NET, RateConfig(alpha=4.0, bandwidth_w=1e6, backhaul_rb=2e6), tcp_pmf, rho
        )
        open_ended = rate_coverage(
            TCP_NET, RateConfig(alpha=4.0, bandwidth_w=1e6), tcp_pmf, rho
        )
        assert capped <= open_ended + 1e-12

    def test_decreasing_in_cluster_count(self, tcp_pmf):
        lighter = NetworkModel(1.0, UserModel(5.0, 3.0, Thomas(0.05)))
        light_pmf = load_pmf(lighter)
        cfg = RateConfig(alpha=4.0, bandwidth_w=1e6)
        for rho in (5e4, 2e5, 5e5):
            assert rate_coverage(lighter, cfg, light_pmf, rho) >= rate_coverage(
                TCP_NET, cfg, tcp_pmf, rho
            )

    def test_all_mass_at_zero_rejected(self):
        pmf = LoadPmf(probs=np.array([1.0, 0.0]))
        cfg = RateConfig(alpha=4.0, bandwidth_w=1e6)
        with pytest.raises(InfeasibleModelError):
            rate_coverage(TCP_NET, cfg, pmf, 1e5)

    def test_threshold_validation(self, tcp_pmf):
        cfg = RateConfig(alpha=4.0, bandwidth_w=1e6)
        with pytest.raises(DomainError):
            rate_coverage(TCP_NET, cfg, tcp_pmf, 0.0)


class TestValueTypes:
    def test_load_moments_invariant(self):
        with pytest.raises(DomainError):
            LoadMoments(mean=5.0, second_moment=30.0, variance=20.0)
        with pytest.raises(DomainError):
            LoadMoments(mean=-1.0, second_moment=1.0, variance=0.0)

    def test_rate_config_validation(self):
        with pytest.raises(DomainError):
            RateConfig(alpha=2.0, bandwidth_w=1e6)
        with pytest.raises(DomainError):
            RateConfig(alpha=4.0, bandwidth_w=0.0)
        with pytest.raises(DomainError):
            RateConfig(alpha=4.0, bandwidth_w=1e6, backhaul_rb=-1.0)
        with pytest.raises(DomainError):
            RateConfig(alpha=4.0, bandwidth_w=1e6, thresholds=(0.0,))
        cfg = RateConfig(alpha=4.0, bandwidth_w=1e6, thresholds=(1e4, 1e5))
        assert cfg.thresholds == (1e4, 1e5)

    @pytest.mark.parametrize("kwargs", [
        {"alpha": math.inf}, {"alpha": math.nan},
        {"bandwidth_w": math.inf}, {"bandwidth_w": math.nan},
        {"backhaul_rb": math.nan},
    ], ids=["alpha-inf", "alpha-nan", "bandwidth-inf", "bandwidth-nan", "backhaul-nan"])
    def test_rate_config_rejects_non_finite(self, kwargs):
        with pytest.raises(DomainError):
            RateConfig(**{"alpha": 4.0, "bandwidth_w": 1e6, **kwargs})
        # an unbounded backhaul is the default, not an error
        assert RateConfig(alpha=4.0, bandwidth_w=1e6).backhaul_rb == math.inf
