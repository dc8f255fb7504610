import math

import numpy as np
import pytest

from cellload.errors import DomainError
from cellload.ppmodel import (
    Matern,
    NetworkModel,
    Thomas,
    UserModel,
    cluster_cdf,
    conditional_distance_pdf,
    pair_correlation_density,
    pair_correlation_excess,
)
from cellload.ppmodel import _matern_cdf_batch
from cellload.quadrature import QuadSpec, integrate_finite
from cellload.specfun import marcum_q1

from helpers import integrate_semi_infinite, matern_cdf_quadrature

TCP = UserModel(5.0, 5.0, Thomas(0.05))
MCP = UserModel(5.0, 5.0, Matern(0.1))
TIGHT = QuadSpec(rel_tol=1e-11, abs_tol=1e-13)


class TestModelTypes:
    def test_intensity_accessor(self):
        assert TCP.intensity == 25.0

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            Thomas(0.0)
        with pytest.raises(DomainError):
            Matern(-0.1)
        with pytest.raises(DomainError):
            UserModel(0.0, 5.0, Thomas(0.1))
        with pytest.raises(DomainError):
            UserModel(5.0, -1.0, Thomas(0.1))
        with pytest.raises(DomainError):
            NetworkModel(0.0, TCP)

    def test_normalization_preserves_dimensionless_groups(self):
        net = NetworkModel(4.0, TCP)
        norm = net.normalized()
        assert norm.lambda_b == 1.0
        # lambda_p / lambda_b and sigma^2 * lambda_b are scale invariants
        assert norm.users.lambda_p == pytest.approx(TCP.lambda_p / 4.0)
        assert norm.users.kind.sigma == pytest.approx(TCP.kind.sigma * 2.0)
        assert norm.users.lambda_p * norm.users.kind.sigma**2 == pytest.approx(
            TCP.lambda_p * TCP.kind.sigma**2
        )

    def test_cluster_scale(self):
        assert TCP.cluster_scale == 0.05
        assert MCP.cluster_scale == 0.1


class TestConditionalDistancePdf:
    def test_tcp_center_is_rayleigh(self):
        sigma = TCP.kind.sigma
        x = np.linspace(0.0, 0.3, 25)
        expected = x / sigma**2 * np.exp(-0.5 * x**2 / sigma**2)
        assert conditional_distance_pdf(TCP, x, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_mcp_center_is_triangular(self):
        big_r = MCP.kind.radius
        assert conditional_distance_pdf(MCP, 0.04, 0.0) == pytest.approx(2 * 0.04 / big_r**2)
        assert conditional_distance_pdf(MCP, 0.11, 0.0) == 0.0

    @pytest.mark.parametrize("z_factor", [0.0, 1.0, 3.0])
    def test_tcp_normalization(self, z_factor):
        z = z_factor * TCP.kind.sigma
        res = integrate_semi_infinite(lambda x: conditional_distance_pdf(TCP, x, z), 0.0, TIGHT)
        assert res.value == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("z_factor", [0.0, 0.5, 2.0])
    def test_mcp_normalization(self, z_factor):
        z = z_factor * MCP.kind.radius
        res = integrate_finite(
            lambda x: conditional_distance_pdf(MCP, x, z), 0.0, MCP.kind.radius + z, TIGHT
        )
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_mcp_support(self):
        z = 0.25
        assert conditional_distance_pdf(MCP, z - MCP.kind.radius - 1e-6, z) == 0.0
        assert conditional_distance_pdf(MCP, z + MCP.kind.radius + 1e-6, z) == 0.0

    def test_mcp_junction_continuity(self):
        # chi1 -> chi2 junction at x = R - z: the wedge branch approaches the
        # triangular branch as f0 + A sqrt(eps) + B eps, so solve the 3-point
        # fit to recover the one-sided limit f0
        big_r, z = MCP.kind.radius, 0.04
        x0 = big_r - z
        left = conditional_distance_pdf(MCP, x0, z)
        eps = np.array([1e-7, 1e-8, 1e-9])
        f = np.array([conditional_distance_pdf(MCP, x0 + e, z) for e in eps])
        design = np.column_stack([np.ones(3), np.sqrt(eps), eps])
        right_limit = np.linalg.solve(design, f)[0]
        assert abs(right_limit - left) < 1e-9

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            conditional_distance_pdf(TCP, -0.1, 0.0)
        with pytest.raises(DomainError):
            conditional_distance_pdf(MCP, 0.1, -1.0)


class TestClusterCdf:
    def test_zero_radius(self):
        assert cluster_cdf(TCP, 0.0, 0.1) == 0.0
        assert cluster_cdf(MCP, 0.0, 0.0) == 0.0

    def test_mcp_contained_cluster(self):
        assert cluster_cdf(MCP, MCP.kind.radius, 0.0) == pytest.approx(1.0)
        assert cluster_cdf(MCP, 0.5, 0.0) == 1.0

    def test_tcp_marcum_form(self):
        sigma = TCP.kind.sigma
        val = cluster_cdf(TCP, sigma, sigma)
        assert val == pytest.approx(1.0 - marcum_q1(1.0, 1.0), abs=1e-12)

    @pytest.mark.parametrize("model", [TCP, MCP], ids=["tcp", "mcp"])
    def test_matches_pdf_quadrature_grid(self, model):
        scale = model.cluster_scale
        rs = np.linspace(0.2, 2.4, 5) * scale
        vs = np.linspace(0.0, 2.8, 5) * scale
        for r in rs:
            for v in vs:
                direct = cluster_cdf(model, float(r), float(v))
                via_pdf = integrate_finite(
                    lambda x: conditional_distance_pdf(model, x, float(v)), 0.0, float(r), TIGHT
                ).value
                assert direct == pytest.approx(via_pdf, abs=1e-8)

    def test_monotone_in_r(self):
        r = np.linspace(0.0, 0.5, 80)
        for model in (TCP, MCP):
            vals = cluster_cdf(model, r, 0.07)
            assert np.all(np.diff(vals) >= -1e-12)
            assert 0.0 <= vals.min() and vals.max() <= 1.0

    def test_matern_batch_matches_adaptive(self):
        rng = np.random.default_rng(21)
        rs = rng.uniform(0.0, 0.4, 250)
        vs = rng.uniform(0.0, 0.5, 250)
        ref = np.array(
            [matern_cdf_quadrature(0.1, float(r), float(v)) for r, v in zip(rs, vs)]
        )
        assert np.max(np.abs(_matern_cdf_batch(0.1, rs, vs) - ref)) < 1e-9

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            cluster_cdf(TCP, -1.0, 0.0)


class TestPairCorrelation:
    def test_tcp_at_zero(self):
        lam_p, m_bar, sigma = TCP.lambda_p, TCP.m_bar, TCP.kind.sigma
        expected = lam_p**2 * m_bar**2 + lam_p * m_bar**2 / (4.0 * math.pi * sigma**2)
        assert pair_correlation_density(TCP, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_mcp_at_zero_and_support_edge(self):
        lam_p, m_bar, big_r = MCP.lambda_p, MCP.m_bar, MCP.kind.radius
        assert pair_correlation_density(MCP, 0.0) == pytest.approx(
            lam_p**2 * m_bar**2 + lam_p * m_bar**2 / (math.pi * big_r**2), rel=1e-12
        )
        assert pair_correlation_density(MCP, 2.0 * big_r) == pytest.approx(
            lam_p**2 * m_bar**2, rel=1e-14
        )
        assert pair_correlation_excess(MCP, 0.21) == 0.0

    def test_approaches_squared_intensity(self):
        for model in (TCP, MCP):
            base = (model.lambda_p * model.m_bar) ** 2
            assert pair_correlation_density(model, 50.0) == pytest.approx(base, rel=1e-10)
            assert np.all(pair_correlation_density(model, np.linspace(0, 1, 50)) >= base)

    @pytest.mark.parametrize("model", [TCP, MCP], ids=["tcp", "mcp"])
    def test_excess_pair_mass(self, model):
        # 2 pi int (rho2 - lambda_u^2) r dr = lambda_p m_bar^2: the expected
        # number of ordered same-cluster pairs per parent
        res = integrate_semi_infinite(
            lambda r: 2.0 * math.pi * r * pair_correlation_excess(model, r), 0.0, TIGHT
        )
        expected = model.lambda_p * model.m_bar**2
        assert res.value == pytest.approx(expected, rel=1e-6)
