import math

import numpy as np
import pytest

from cellload.errors import ConvergenceError
from cellload import quadrature
from cellload.quadrature import IntegrationResult, QuadSpec, integrate_finite, tensor_triple

from helpers import CLOSED_FORM_SUITE, integrate_nested, integrate_semi_infinite, quad_any


@pytest.mark.parametrize("n, nodes, weights", [
    (7, "_NODES_LO", "_WEIGHTS_LO"), (15, "_NODES_HI", "_WEIGHTS_HI"), (12, "_PANEL_X", "_PANEL_W"),
])
def test_stored_rules_are_leggauss(n, nodes, weights):
    x, w = np.polynomial.legendre.leggauss(n)
    assert getattr(quadrature, nodes).tobytes() == x.tobytes()
    assert getattr(quadrature, weights).tobytes() == w.tobytes()


@pytest.mark.parametrize("f,lo,hi,exact", CLOSED_FORM_SUITE)
def test_closed_form_suite(f, lo, hi, exact):
    res = quad_any(f, lo, hi)
    tol = max(1e-10, 1e-8 * abs(exact))
    assert res.value == pytest.approx(exact, abs=max(tol, res.error_estimate))
    # the reported estimate must bound the actual error, up to accumulation
    # rounding on exactly-integrated cases
    assert abs(res.value - exact) <= max(res.error_estimate, 1e-13 * max(1.0, abs(exact)))


def test_constant_unit_interval():
    assert integrate_finite(lambda x: np.ones_like(x), 0.0, 1.0).value == pytest.approx(1.0)


def test_rayleigh_mass():
    res = integrate_finite(lambda x: x * np.exp(-0.5 * x**2), 0.0, 10.0)
    assert res.value == pytest.approx(1.0, abs=1e-8)  # tail beyond 10 < 1e-21


def test_uniform_disc_radial_density():
    big_r = 2.0
    res = integrate_finite(lambda x: 2.0 * x / big_r**2, 0.0, big_r)
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_semi_infinite_exponential():
    assert integrate_semi_infinite(lambda x: np.exp(-x), 0.0).value == pytest.approx(1.0)


def test_semi_infinite_arctan_tail():
    res = integrate_semi_infinite(lambda u: 1.0 / (1.0 + u**2), 1.0)
    assert res.value == pytest.approx(math.pi / 4.0, rel=1e-9)


def test_cell_radius_density_mass():
    from cellload.specfun import cell_radius_pdf

    res = integrate_semi_infinite(cell_radius_pdf, 0.0)
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_nested_unit_square():
    res = integrate_nested(lambda x, y: np.ones_like(y), [(0.0, 1.0), (0.0, 1.0)])
    assert res.value == pytest.approx(1.0, rel=1e-9)


def test_nested_polar_rayleigh():
    res = integrate_nested(
        lambda t, x: x * np.exp(-0.5 * x**2), [(0.0, 2.0 * math.pi), (0.0, np.inf)]
    )
    assert res.value == pytest.approx(2.0 * math.pi, rel=1e-7)


def test_nested_dependent_bounds():
    # int_0^1 int_0^x y dy dx = 1/6
    res = integrate_nested(lambda x, y: y, [(0.0, 1.0), (0.0, lambda x: x)])
    assert res.value == pytest.approx(1.0 / 6.0, rel=1e-8)


def test_nested_three_axes():
    res = integrate_nested(
        lambda x, y, z: x * y * z,
        [(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)],
    )
    assert res.value == pytest.approx(0.5 * 2.0 * 4.5, rel=1e-8)


def test_linearity():
    rng = np.random.default_rng(7)
    f = lambda x: np.exp(-x) * np.sin(3 * x)
    g = lambda x: 1.0 / (1.0 + x**2)
    for _ in range(5):
        a, b = rng.uniform(-3, 3, size=2)
        combo = integrate_finite(lambda x: a * f(x) + b * g(x), 0.0, 5.0)
        parts = a * integrate_finite(f, 0.0, 5.0).value + b * integrate_finite(g, 0.0, 5.0).value
        assert combo.value == pytest.approx(parts, abs=5e-9 * (1 + abs(a) + abs(b)))


def test_convergence_error_carries_best_estimate():
    spec = QuadSpec(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=3)
    with pytest.raises(ConvergenceError) as err:
        integrate_finite(lambda x: np.sin(50.0 * x) ** 2 / (1e-3 + np.abs(x - 0.3)), 0.0, 1.0, spec)
    assert err.value.best_estimate is not None


def test_determinism():
    f = lambda x: np.exp(-0.5 * (x - 1.3) ** 2) * np.cos(x)
    r1 = integrate_finite(f, 0.0, 6.0)
    r2 = integrate_finite(f, 0.0, 6.0)
    assert r1.value == r2.value and r1.evaluations == r2.evaluations


def test_empty_interval():
    res = integrate_finite(lambda x: x, 2.0, 2.0)
    assert res == IntegrationResult(0.0, 0.0, 0)


def test_bad_bounds_rejected():
    with pytest.raises(ValueError):
        integrate_finite(lambda x: x, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_finite(lambda x: x, 0.0, math.inf)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadSpec(max_subdivisions=0)
    with pytest.raises(ValueError):
        IntegrationResult(1.0, -1.0, 3)


def test_tensor_triple_matches_nested():
    def f(x, y, z):
        return np.exp(-(x + 0.0 * y) - y) * np.cos(z) * (1.0 + 0.0 * z)

    bounds = [(0.0, 2.0), (0.0, 1.5), (0.0, 1.0)]
    tens = tensor_triple(f, bounds, QuadSpec(rel_tol=1e-10, abs_tol=1e-13))
    exact = (1 - math.exp(-2)) * (1 - math.exp(-1.5)) * math.sin(1.0)
    assert tens.value == pytest.approx(exact, rel=1e-10)
    nested = integrate_nested(
        lambda x, y, z: np.exp(-x - y) * np.cos(z), bounds, QuadSpec(rel_tol=1e-8)
    )
    assert nested.value == pytest.approx(tens.value, rel=1e-7)


def test_tensor_triple_rejects_infinite_bounds():
    with pytest.raises(ValueError):
        tensor_triple(lambda x, y, z: x + y + z, [(0, 1), (0, 1), (0, math.inf)])
