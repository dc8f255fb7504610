import math

import numpy as np
import pytest

from cellload.analytic import RateConfig, dft_invert_pgf
from cellload.errors import ConfigurationError
from cellload.montecarlo import (
    LoadSimResult,
    SimConfig,
    empirical_ccdf,
    empirical_pmf,
    points_in_typical_cell,
    required_window_radius,
    run_load_simulation,
    run_sir_simulation,
    sample_pcp,
    sample_ppp,
    tv_distance,
)
from cellload.montecarlo import _rng_for
from cellload.ppmodel import Matern, NetworkModel, Thomas, UserModel, pair_correlation_density

TCP_NET = NetworkModel(1.0, UserModel(5.0, 5.0, Thomas(0.05)))
MCP_NET = NetworkModel(1.0, UserModel(5.0, 5.0, Matern(0.1)))
RATE_CFG = RateConfig(alpha=4.0, bandwidth_w=1e6)


class TestSamplers:
    def test_ppp_zero_intensity(self):
        assert sample_ppp(0.0, 5.0, _rng_for(0, 0)).shape == (0, 2)

    def test_ppp_mean_count(self):
        lam, w = 3.0, 4.0
        counts = [sample_ppp(lam, w, _rng_for(1, k)).shape[0] for k in range(4000)]
        expected = lam * math.pi * w * w
        stderr = math.sqrt(expected / len(counts))
        assert abs(np.mean(counts) - expected) <= 3.0 * stderr

    def test_ppp_points_inside_window(self):
        pts = sample_ppp(5.0, 3.0, _rng_for(2, 0))
        assert np.all(np.einsum("ij,ij->i", pts, pts) <= 9.0 + 1e-12)

    def test_ppp_ripley_k(self):
        # K(r) ~ pi r^2 for a PPP; estimate on pooled samples with an inner
        # margin to avoid edge bias
        lam, w, r_test = 4.0, 5.0, 0.5
        pair_counts, n_inner = 0, 0
        for k in range(300):
            pts = sample_ppp(lam, w, _rng_for(3, k))
            rad2 = np.einsum("ij,ij->i", pts, pts)
            inner = pts[rad2 <= (w - r_test) ** 2]
            if inner.shape[0] == 0:
                continue
            d2 = np.sum((inner[:, None, :] - pts[None, :, :]) ** 2, axis=2)
            within = (d2 <= r_test**2).sum(axis=1) - 1  # drop the point itself
            pair_counts += int(within.sum())
            n_inner += inner.shape[0]
        k_hat = pair_counts / (n_inner * lam)
        expected = math.pi * r_test**2
        assert k_hat == pytest.approx(expected, rel=0.05)

    def test_pcp_intensity(self):
        w = 3.0
        counts = [sample_pcp(TCP_NET.users, w, _rng_for(4, k)).shape[0] for k in range(3000)]
        expected = TCP_NET.users.intensity * math.pi * w * w
        # clustering inflates the count variance, so bound it empirically
        stderr = np.std(counts) / math.sqrt(len(counts))
        assert abs(np.mean(counts) - expected) <= 3.0 * stderr

    def test_pcp_restriction_window(self):
        pts = sample_pcp(MCP_NET.users, 2.0, _rng_for(5, 1))
        assert np.all(np.einsum("ij,ij->i", pts, pts) <= 4.0 + 1e-12)

    def test_pcp_tiny_clusters_empty(self):
        users = UserModel(5.0, 1e-9, Thomas(0.05))
        total = sum(sample_pcp(users, 2.0, _rng_for(6, k)).shape[0] for k in range(200))
        assert total == 0

    def test_pcp_pair_correlation_excess(self):
        # the short-range pair density of pooled samples should match the
        # analytic rho2 well above the Poisson level
        users = TCP_NET.users
        w, r_bin = 2.0, 0.05
        pairs, area_total = 0, 0.0
        n_real = 400
        for k in range(n_real):
            pts = sample_pcp(users, w, _rng_for(7, k))
            rad2 = np.einsum("ij,ij->i", pts, pts)
            inner = pts[rad2 <= (w - r_bin) ** 2]
            if inner.shape[0] == 0:
                continue
            d2 = np.sum((inner[:, None, :] - pts[None, :, :]) ** 2, axis=2)
            pairs += int(((d2 <= r_bin**2) & (d2 > 0)).sum())
            area_total += math.pi * (w - r_bin) ** 2
        # E[pairs] = area * int_0^{r_bin} rho2(r) 2 pi r dr
        from cellload.quadrature import integrate_finite

        ring_mass = integrate_finite(
            lambda r: 2.0 * math.pi * r * pair_correlation_density(users, r), 0.0, r_bin
        ).value
        expected = area_total * ring_mass
        poisson_level = area_total * math.pi * r_bin**2 * users.intensity**2
        assert pairs > 3.0 * poisson_level  # strong clustering excess, right sign
        assert pairs == pytest.approx(expected, rel=0.15)


class TestDeterminism:
    def test_same_seed_identical(self):
        a = run_load_simulation(TCP_NET, SimConfig(realizations=300, seed=11))
        b = run_load_simulation(TCP_NET, SimConfig(realizations=300, seed=11))
        assert np.array_equal(a.loads, b.loads)

    def test_chunking_invariance(self):
        a = run_load_simulation(TCP_NET, SimConfig(realizations=301, seed=12, parallel_chunks=1))
        b = run_load_simulation(TCP_NET, SimConfig(realizations=301, seed=12, parallel_chunks=3))
        assert np.array_equal(a.loads, b.loads)

    def test_sir_run_preserves_load_stream(self):
        cfg = SimConfig(realizations=200, seed=14)
        loads_only = run_load_simulation(TCP_NET, cfg)
        with_sir = run_sir_simulation(TCP_NET, cfg, RATE_CFG)
        assert np.array_equal(loads_only.loads, with_sir.loads)

    def test_distinct_seeds_differ(self):
        a = run_load_simulation(TCP_NET, SimConfig(realizations=200, seed=1))
        b = run_load_simulation(TCP_NET, SimConfig(realizations=200, seed=2))
        assert not np.array_equal(a.loads, b.loads)


class TestWindowInvariants:
    def test_required_window_scales(self):
        assert required_window_radius(4.0) == pytest.approx(required_window_radius(1.0) / 2.0)

    def test_small_window_rejected(self):
        cfg = SimConfig(realizations=10, seed=0, window_radius=3.0)
        with pytest.raises(ConfigurationError):
            run_load_simulation(TCP_NET, cfg)

    def test_window_enlargement_unbiased(self):
        n = 20_000
        base = run_load_simulation(TCP_NET, SimConfig(realizations=n, seed=15))
        wide = run_load_simulation(
            TCP_NET, SimConfig(realizations=n, seed=16, window_radius=2.0 * base.window_radius)
        )
        se = math.sqrt(base.loads.var() / n + wide.loads.var() / n)
        assert abs(base.loads.mean() - wide.loads.mean()) <= 3.0 * se

    def test_interference_window_guard(self):
        with pytest.raises(ConfigurationError):
            run_sir_simulation(
                TCP_NET,
                SimConfig(realizations=10, seed=0),
                RateConfig(alpha=2.5, bandwidth_w=1e6),
            )


class TestRealizations:
    def test_mean_load_matches_analytic(self):
        n = 10_000
        res = run_load_simulation(TCP_NET, SimConfig(realizations=n, seed=17))
        se = res.loads.std() / math.sqrt(n)
        assert abs(res.loads.mean() - 25.0) <= 3.0 * se

    def test_zero_backhaul_rate_is_zero(self):
        cfg = SimConfig(realizations=40, seed=18)
        rc = RateConfig(alpha=4.0, bandwidth_w=1e6, backhaul_rb=0.0)
        res = run_sir_simulation(TCP_NET, cfg, rc)
        got = res.rate[res.loads > 0]
        assert np.all(got == 0.0)

    def test_sample_sir_rate_fields(self):
        # a light model leaves some cells empty: those carry no SIR or rate
        light = NetworkModel(1.0, UserModel(0.5, 1.0, Thomas(0.05)))
        res = run_sir_simulation(light, SimConfig(realizations=40, seed=19), RATE_CFG)
        busy = res.loads > 0
        assert busy.any() and not busy.all()
        assert np.all(res.sir[busy] >= 0.0) and np.all(res.rate[busy] >= 0.0)
        assert np.all(np.isnan(res.sir[~busy])) and np.all(np.isnan(res.rate[~busy]))

    def test_ppp_limit_of_clusters(self):
        # lambda_p -> inf, m_bar -> 0 with lambda_u fixed: the load PMF tends
        # to the Gamma-mixed Poisson of PPP users
        net = NetworkModel(1.0, UserModel(500.0, 0.05, Thomas(0.05)))
        res = run_load_simulation(net, SimConfig(realizations=20_000, seed=21))
        emp = empirical_pmf(res)
        lam_u = 25.0
        mixed = dft_invert_pgf(
            lambda th: (1.0 + lam_u * (1.0 - th) / 3.5) ** (-3.5), 128
        )
        assert tv_distance(emp, mixed) < 0.06


class TestEstimators:
    def test_point_mass(self):
        pmf = empirical_pmf(np.array([3]))
        assert pmf.probs.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_half_half(self):
        pmf = empirical_pmf(np.array([0, 0, 1, 1]))
        assert pmf.probs.tolist() == [0.5, 0.5]
        assert pmf.raw_sum == 1.0

    def test_accepts_arrays_and_results(self):
        pmf = empirical_pmf(np.array([2, 2, 4]))
        assert pmf.probs.sum() == 1.0
        res = LoadSimResult(np.array([1, 1, 3]), 9.6, 0)
        assert empirical_pmf(res).probs[1] == pytest.approx(2.0 / 3.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            empirical_pmf([])

    def test_ccdf(self):
        vals = np.array([0.5, 1.5, np.nan, 3.0])
        out = empirical_ccdf(vals, [1.0])
        assert out[0] == pytest.approx(2.0 / 3.0)
        with pytest.raises(ConfigurationError):
            empirical_ccdf(np.array([np.nan]), [1.0])

    def test_tv_distance(self):
        assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
        assert tv_distance(np.array([0.5, 0.5]), np.array([0.5, 0.25, 0.25])) == 0.25

    def test_points_in_typical_cell_edge_cases(self):
        assert points_in_typical_cell(np.empty((0, 2)), np.empty((0, 2))).size == 0
        pts = np.array([[0.5, 0.0]])
        assert points_in_typical_cell(pts, np.empty((0, 2))).all()
        assert points_in_typical_cell(pts, np.array([[2.0, 0.0]]))[0]   # origin is nearest
        assert not points_in_typical_cell(pts, np.array([[0.8, 0.0]]))[0]  # station 0.3 away
