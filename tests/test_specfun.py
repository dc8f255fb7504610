import math
import warnings

import numpy as np
import pytest
from scipy import special

from cellload.analytic import _R_MAX
from cellload.errors import DomainError
from cellload.specfun import (
    _MARCUM_SPLIT,
    _lens_area_arrays,
    _marcum_expansion,
    _marcum_sweep,
    cell_radius_pdf,
    marcum_q1,
)
from cellload.quadrature import QuadSpec

from helpers import (
    _union_area_arrays,
    bessel_i0_scaled,
    bessel_i0_scaled_asymptotic,
    bessel_i0_scaled_series,
    disc_overlap_hit_or_miss,
    integrate_semi_infinite,
    marcum_q1_quadrature,
)

LENS_1_1_1 = 2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0  # 1.2283696986087567


class TestBesselI0Scaled:
    def test_at_zero(self):
        assert bessel_i0_scaled(0.0) == 1.0

    def test_series_oracle_at_one(self):
        oracle = bessel_i0_scaled_series(1.0)
        assert oracle == pytest.approx(0.46575960759364043, rel=1e-14)
        assert bessel_i0_scaled(1.0) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("x", [0.1, 0.5, 2.0, 5.0, 10.0, 20.0])
    def test_series_oracle_grid(self, x):
        assert bessel_i0_scaled(x) == pytest.approx(bessel_i0_scaled_series(x), rel=1e-12)

    def test_asymptotic_oracle_large_x(self):
        x = 700.0
        # the 4-term expansion is good to ~1e-9 relative here
        assert bessel_i0_scaled(x) == pytest.approx(bessel_i0_scaled_asymptotic(x), rel=1e-8)

    @pytest.mark.parametrize("x", [1e2, 1e4, 1e6])
    def test_no_overflow(self, x):
        val = bessel_i0_scaled(x)
        assert np.isfinite(val) and 0.0 < val <= 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_i0_scaled(-1.0)
        with pytest.raises(DomainError):
            bessel_i0_scaled(math.nan)

    def test_array_input(self):
        out = bessel_i0_scaled(np.array([0.0, 1.0]))
        assert out.shape == (2,) and out[0] == 1.0


class TestMarcumQ1:
    def test_frozen_oracle_value(self):
        # adaptive quadrature of the defining integral, tolerance 1e-10
        oracle = marcum_q1_quadrature(1.0, 1.0)
        assert oracle == pytest.approx(0.7328798037968202, abs=1e-10)
        assert marcum_q1(1.0, 1.0) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize(
        "a,b",
        [
            (0.5, 2.0), (3.0, 1.0), (0.2, 0.2), (6.0, 8.0), (40.0, 38.0),
            # the transition b ~ a at large arguments
            (100.0, 99.0), (100.0, 101.5), (300.0, 299.0), (300.0, 302.0),
            # corner of the PGF grid's domain for sigma = 0.05: a = (r + 6 sigma) / sigma
            (39.3, 33.3),
        ],
    )
    def test_quadrature_oracle_grid(self, a, b):
        assert marcum_q1(a, b) == pytest.approx(marcum_q1_quadrature(a, b), abs=1e-10)

    def test_zero_a_is_rayleigh_tail(self):
        for b in (0.0, 0.7, 2.5):
            assert marcum_q1(0.0, b) == pytest.approx(math.exp(-0.5 * b * b), abs=1e-12)

    def test_zero_b_is_one(self):
        for a in (0.0, 1.0, 7.0):
            assert marcum_q1(a, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_ccdf_monotone_in_b(self):
        b = np.linspace(0.0, 12.0, 60)
        q = marcum_q1(2.0, b)
        assert q[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(q) <= 1e-12)
        assert q[-1] < 1e-8

    def test_monotone_in_a(self):
        a = np.linspace(0.0, 8.0, 40)
        q = marcum_q1(a, 3.0)
        assert np.all(np.diff(q) >= -1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            marcum_q1(-0.1, 1.0)
        with pytest.raises(DomainError):
            marcum_q1(1.0, math.inf)

    def test_large_arguments_match_quadrature(self):
        # the large-ab expansion, far past the sweep's reach, b within 9.5 of a
        for a, b in [(60.0, 58.0), (300.0, 302.5), (1800.0, 1797.0), (1e4, 1e4 + 1.0),
                     (1e5, 1e5 - 4.0), (1e6, 1e6 - 2.5), (1e6, 1e6 + 0.3), (1e6, 1e6 + 8.0)]:
            assert marcum_q1(a, b) == pytest.approx(marcum_q1_quadrature(a, b), rel=0, abs=1e-12)

    def test_sweep_and_expansion_agree(self):
        # both engines on points the expansion takes, ab log-uniform in [50, 1e4]
        rng = np.random.default_rng(19)
        x = np.exp(rng.uniform(math.log(50.0), math.log(1e4), 20000))
        d = rng.uniform(-9.5, 9.5, x.size)
        a = 0.5 * (np.sqrt(d * d + 4.0 * x) - d)   # a (a + d) = x
        b = a + d
        assert x.min() > _MARCUM_SPLIT and np.all(b > 0)
        assert np.abs(_marcum_sweep(a, b) - _marcum_expansion(a, b)).max() <= 1e-14

    def test_broadcasting(self):
        out = marcum_q1(np.array([[0.0], [1.0]]), np.array([0.5, 1.5]))
        assert out.shape == (2, 2)

    @pytest.mark.parametrize("a_max", [1.0, 10.0, 60.0, 300.0, 3000.0])
    def test_matches_chndtr(self, a_max):
        # b near a (the PGF grid's transition band) and b uniform, on a seeded grid
        rng = np.random.default_rng(17)
        a = rng.uniform(0.0, a_max, 4000)
        b = np.concatenate([np.abs(a + rng.normal(0.0, 3.0, a.size)), rng.uniform(0.0, a_max, a.size)])
        a = np.concatenate([a, a])
        ref = 1.0 - special.chndtr(b**2, 2.0, a**2)
        gap = np.abs(marcum_q1(a, b) - ref)
        assert gap.max() <= 1e-12
        assert gap[(a <= 60.0) & (b <= 60.0)].max(initial=0.0) <= 1e-14

    @pytest.mark.parametrize("a", [0.5, 1.0, 10.0, 40.0, 300.0])
    def test_diagonal_identity(self, a):
        # Q1(a, a) = (1 + exp(-a^2) I0(a^2)) / 2
        assert marcum_q1(a, a) == pytest.approx(0.5 * (1.0 + special.i0e(a * a)), rel=0, abs=1e-15)

    def test_saturates_past_9_5(self):
        a = np.array([0.0, 5.0, 40.0, 2990.0, 15.0, 50.0, 2999.0])
        b = np.array([9.5, 14.6, 60.0, 3000.0, 5.5, 3.0, 2980.0])
        assert marcum_q1(a, b).tolist() == [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0]

    def test_overflowing_product_takes_the_large_x_limit(self):
        # ab overflows to inf: Q1(a, a) -> 1/2, with no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert marcum_q1(1e200, 1e200) == 0.5
            assert marcum_q1(np.array([1e200, 2.0]), np.array([1e200, 3.0]))[0] == 0.5


class TestDiscGeometry:
    def test_coincident(self):
        assert _lens_area_arrays(1.0, 1.0, 0.0) == pytest.approx(math.pi)
        assert _union_area_arrays(1.0, 1.0, 0.0) == pytest.approx(math.pi)

    def test_tangent_and_disjoint(self):
        assert _lens_area_arrays(1.0, 1.0, 2.0) == 0.0
        assert _union_area_arrays(1.0, 2.0, 5.0) == pytest.approx(5.0 * math.pi)

    def test_unit_overlap_closed_form(self):
        assert _lens_area_arrays(1.0, 1.0, 1.0) == pytest.approx(LENS_1_1_1, rel=1e-14)
        assert _union_area_arrays(1.0, 1.0, 1.0) == pytest.approx(2.0 * math.pi - LENS_1_1_1)

    def test_unit_overlap_monte_carlo_oracle(self):
        est, stderr = disc_overlap_hit_or_miss(1.0, 1.0, 1.0, samples=10**7, seed=11)
        assert _lens_area_arrays(1.0, 1.0, 1.0) == pytest.approx(est, abs=3.0 * stderr)

    def test_contained_disc(self):
        assert _lens_area_arrays(3.0, 1.0, 1.5) == pytest.approx(math.pi)

    def test_union_intersection_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            r1, r2 = rng.uniform(0.1, 4.0, size=2)
            d = rng.uniform(0.0, 6.0)
            assert _lens_area_arrays(r1, r2, d) + _union_area_arrays(r1, r2, d) == pytest.approx(
                math.pi * (r1**2 + r2**2), rel=1e-12
            )

    def test_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            r1, r2 = rng.uniform(0.1, 3.0, size=2)
            d = rng.uniform(0.0, 7.0)
            a_i = _lens_area_arrays(r1, r2, d)
            a_u = _union_area_arrays(r1, r2, d)
            assert -1e-12 <= a_i <= math.pi * min(r1, r2) ** 2 + 1e-12
            assert math.pi * max(r1, r2) ** 2 - 1e-12 <= a_u <= math.pi * (r1**2 + r2**2) + 1e-12

    @pytest.mark.parametrize("r1,r2", [(0.7, 1.3), (2.0, 0.5), (1.0, 1.0)])
    def test_continuity_at_tangency(self, r1, r2):
        # (d* - d)^{3/2} behavior at external tangency: one-sided evaluations
        # at +-1e-9 agree with the limit 0 to far better than 1e-9
        d_star = r1 + r2
        below = _lens_area_arrays(r1, r2, d_star - 1e-9)
        above = _lens_area_arrays(r1, r2, d_star + 1e-9)
        assert abs(below - above) < 1e-9
        assert below == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("r1,r2", [(0.7, 1.3), (2.0, 0.5)])
    def test_continuity_at_containment(self, r1, r2):
        # same 3/2-power behavior where the smaller disc stops being contained
        d_star = abs(r1 - r2)
        limit = math.pi * min(r1, r2) ** 2
        below = _lens_area_arrays(r1, r2, d_star - 1e-9)
        above = _lens_area_arrays(r1, r2, d_star + 1e-9)
        assert abs(below - above) < 1e-9
        assert above == pytest.approx(limit, abs=1e-9)


class TestCellRadiusPdf:
    def test_normalization(self):
        res = integrate_semi_infinite(cell_radius_pdf, 0.0, QuadSpec(rel_tol=1e-11, abs_tol=1e-13))
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_scaled_area_has_unit_mean(self):
        # pi R^2 lambda_b ~ Gamma(3.5, 1/3.5) has mean 1, i.e. E[r^2] = 1
        res = integrate_semi_infinite(lambda r: r**2 * cell_radius_pdf(r), 0.0)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_mode(self):
        mode = math.sqrt(6.0 / 7.0)
        eps = 1e-4
        assert cell_radius_pdf(mode) > cell_radius_pdf(mode - eps)
        assert cell_radius_pdf(mode) > cell_radius_pdf(mode + eps)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            cell_radius_pdf(-0.5)

    def test_quantile_inverts_tail(self):
        # the PGF grid's radius cutoff is the literal 1e-10 quantile
        assert _R_MAX == float(np.sqrt(special.gammainccinv(3.5, 1e-10) / 3.5))
        tail = integrate_semi_infinite(cell_radius_pdf, _R_MAX).value
        assert tail == pytest.approx(1e-10, rel=1e-3)
