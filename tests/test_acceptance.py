"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Monte Carlo runs are memoized per process, so the full suite performs nine
100k-realization simulations (about two minutes of sampling on one core).
"""

import functools
import math
import time

import numpy as np
import pytest

from cellload import analytic, montecarlo
from cellload.analytic import (
    NegBinParams,
    RateConfig,
    dft_invert_pgf,
    invert_pgf,
    load_moments,
    load_pmf,
    mean_load,
    nb_fit,
    nb_pmf,
    ppp_baseline_variance,
    rate_coverage,
    sir_ccdf,
)
from cellload.montecarlo import (
    SimConfig,
    empirical_ccdf,
    empirical_pmf,
    run_load_simulation,
    run_sir_simulation,
    tv_distance,
)
from cellload.ppmodel import Matern, NetworkModel, Thomas, UserModel, pair_correlation_excess
from cellload.quadrature import QuadSpec, integrate_finite
from cellload.specfun import _lens_area_arrays, marcum_q1

from helpers import (
    CLOSED_FORM_SUITE,
    _union_area_arrays,
    conditional_distance_pdf,
    integrate_semi_infinite,
    quad_any,
    sir_ccdf_by_quadrature,
)

SEED = 20240808
N_FULL = 100_000
ALPHA = 4.0
BANDWIDTH = 1e6

TCP_SIGMAS = (0.05, 0.1, 0.2, 0.5)
MCP_RADII = (0.1, 0.2, 0.5, 1.0)
# Cluster sizes for the PMF-fidelity runs (the figure caption leaves them
# unspecified); the smallest grid values, where clustering bites hardest.
FIG2_SIGMA = 0.05
FIG2_RADIUS = 0.1


def network(kind: str, size: float, m_bar: float = 5.0) -> NetworkModel:
    kernel = Thomas(size) if kind == "tcp" else Matern(size)
    return NetworkModel(1.0, UserModel(5.0, m_bar, kernel))


@functools.lru_cache(maxsize=None)
def sir_run(m_bar: float):
    """100k SIR realizations for the TCP figure model with the given m_bar."""
    net = network("tcp", FIG2_SIGMA, m_bar)
    cfg = SimConfig(realizations=N_FULL, seed=SEED)
    return run_sir_simulation(net, cfg, RateConfig(alpha=ALPHA, bandwidth_w=BANDWIDTH))


@functools.lru_cache(maxsize=None)
def load_run(kind: str, size: float) -> np.ndarray:
    """100k load realizations; the TCP figure model reuses the SIR run's loads."""
    if kind == "tcp" and size == FIG2_SIGMA:
        return sir_run(5.0).loads
    net = network(kind, size)
    return run_load_simulation(net, SimConfig(realizations=N_FULL, seed=SEED)).loads


def report(criterion: str, detail: str):
    print(f"[ACCEPTANCE] {criterion}: PASS ({detail})")


def test_criterion_1_mean_load():
    start = time.time()
    net = network("tcp", 0.1)
    assert mean_load(net) == 25.0  # m_bar lambda_p / lambda_b, exact

    res = run_load_simulation(net, SimConfig(realizations=10_000, seed=SEED + 1))
    mc_mean = float(res.loads.mean())
    stderr = float(res.loads.std() / math.sqrt(res.loads.size))
    assert abs(mc_mean - 25.0) <= 3.0 * stderr
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(
        "criterion 1 (mean load)",
        f"analytic 25 exact; MC {mc_mean:.3f} +- {stderr:.3f}; {elapsed:.1f}s",
    )


def test_criterion_2_variance_curves():
    start = time.time()
    rows = []
    for kind, sizes in (("tcp", TCP_SIGMAS), ("mcp", MCP_RADII)):
        normvars = []
        for size in sizes:
            net = network(kind, size)
            m = load_moments(net)
            ana = m.variance / m.mean**2
            loads = load_run(kind, size).astype(float)
            mc = float(loads.var() / loads.mean() ** 2)
            rel = abs(ana - mc) / mc
            baseline = ppp_baseline_variance(net) / m.mean**2
            rows.append((kind, size, ana, mc, rel))
            assert rel <= 0.05, f"{kind} size={size}: analytic {ana:.4f} vs MC {mc:.4f}"
            assert ana > baseline
            normvars.append(ana)
        diffs = np.diff(normvars)
        assert np.all(diffs < 1e-12), f"{kind} normalized variance not non-increasing"
    elapsed = time.time() - start
    assert elapsed < 900.0
    worst = max(r[4] for r in rows)
    report(
        "criterion 2 (variance curves)",
        f"8 configs, worst relative gap {100 * worst:.2f}% <= 5%; {elapsed:.0f}s",
    )


@pytest.mark.parametrize(
    "kind,size", [("tcp", FIG2_SIGMA), ("mcp", FIG2_RADIUS)], ids=["tcp", "mcp"]
)
def test_criterion_3_pmf_fidelity(kind, size):
    net = network(kind, size)
    emp = empirical_pmf(load_run(kind, size))
    pmf = invert_pgf(net, 128)
    assert abs(pmf.raw_sum - 1.0) <= 1e-4
    assert pmf.min_raw >= -1e-6
    tv = tv_distance(pmf, emp)
    assert tv <= 0.05
    # the same three gates on the engine the CLI ships
    exact = load_pmf(net)
    exact_sum = float(exact.probs.sum())
    assert abs(exact_sum - 1.0) <= 1e-4
    assert exact.probs.min() >= -1e-6
    exact_tv = tv_distance(exact, emp)
    assert exact_tv <= 0.05
    report(f"criterion 3 (PMF fidelity, {kind})",
           f"DFT TV {tv:.4f} <= 0.05, sum {pmf.raw_sum:.6f}, min {pmf.min_raw:.2e}; "
           f"load_pmf TV {exact_tv:.4f}, sum {exact_sum:.12f}, min {exact.probs.min():.2e}")


def test_criterion_4_inversion_oracle():
    nb = NegBinParams(25, 0.5)
    pmf = dft_invert_pgf(lambda th: ((1.0 - nb.t) / (1.0 - nb.t * th)) ** nb.r, 128)
    worst = float(np.max(np.abs(pmf.probs - nb_pmf(nb, np.arange(128)))))
    assert worst <= 1e-10
    report("criterion 4 (inversion oracle)", f"max per-term error {worst:.2e} <= 1e-10")


def test_criterion_5_void_probability_gap():
    net = network("tcp", FIG2_SIGMA)
    emp_p0 = float(np.mean(load_run("tcp", FIG2_SIGMA) == 0))
    fit = nb_fit(load_moments(net))
    nb_p0 = float(nb_pmf(fit, 0))
    pgf_p0 = float(load_pmf(net).probs[0])
    nb_gap = abs(nb_p0 - emp_p0)
    pgf_gap = abs(pgf_p0 - emp_p0)
    assert nb_gap > pgf_gap
    assert nb_p0 < emp_p0  # the NB fit underestimates the void probability
    report(
        "criterion 5 (void probability)",
        f"empirical {emp_p0:.4f}; NB {nb_p0:.4f} (gap {nb_gap:.4f}) vs "
        f"PGF {pgf_p0:.4f} (gap {pgf_gap:.4f})",
    )


def test_criterion_6_sir_ccdf():
    taus = (0.1, 1.0, 10.0)
    mc = {t: float(p) for t, p in zip(taus, empirical_ccdf(sir_run(5.0).sir, taus))}
    gaps = {t: abs(sir_ccdf(ALPHA, t) - mc[t]) for t in taus}
    assert all(g <= 0.03 for g in gaps.values())
    # the area-weighted kernel constant 9/7 is the competing reading; the
    # shipped delta = 1 closed form must match the simulator more closely
    alt = max(abs(sir_ccdf_by_quadrature(ALPHA, t, 9.0 / 7.0) - mc[t]) for t in taus)
    assert max(gaps.values()) < alt
    report(
        "criterion 6 (SIR CCDF)",
        f"delta=1 closed form beats delta=9/7 (worst gap {alt:.4f}); gaps "
        + ", ".join(f"tau={t}: {g:.4f}" for t, g in gaps.items()),
    )


def test_sir_ccdf_at_alpha_3():
    # criterion 6's gate at alpha = 3, where the far field beyond |u| + W'
    # enters by its exact mean rather than as ~8,800 drawn stations
    taus = (0.1, 1.0, 10.0)
    cfg = RateConfig(alpha=3.0, bandwidth_w=BANDWIDTH)
    res = run_sir_simulation(network("tcp", FIG2_SIGMA), SimConfig(realizations=20_000, seed=SEED), cfg)
    gaps = {t: abs(sir_ccdf(3.0, t) - float(p)) for t, p in zip(taus, empirical_ccdf(res.sir, taus))}
    assert all(g <= 0.03 for g in gaps.values())
    report("SIR CCDF at alpha = 3", ", ".join(f"tau={t}: {g:.4f}" for t, g in gaps.items()))


def test_criterion_7_rate_coverage():
    grid = [float(r) for r in np.geomspace(2e4, 2e6, 10)]
    backhauls = (2e6, math.inf)
    curves = {}
    worst = 0.0
    for m_bar in (3.0, 5.0):
        net = network("tcp", FIG2_SIGMA, m_bar)
        pmf = load_pmf(net)
        res = sir_run(m_bar)
        cond = res.loads > 0
        loads = res.loads[cond].astype(float)
        sir = res.sir[cond]
        for rb in backhauls:
            cfg = RateConfig(alpha=ALPHA, bandwidth_w=BANDWIDTH, backhaul_rb=rb)
            ana = np.array([rate_coverage(net, cfg, pmf, rho) for rho in grid])
            rates = np.minimum(BANDWIDTH / loads * np.log2(1.0 + sir), rb / loads)
            emp = np.array([float(np.mean(rates > rho)) for rho in grid])
            gap = float(np.max(np.abs(ana - emp)))
            worst = max(worst, gap)
            assert gap <= 0.05, f"m_bar={m_bar} rb={rb}: max gap {gap:.4f}"
            curves[(m_bar, rb)] = ana

    for rb in backhauls:  # more users per cluster => lower per-user rate
        assert np.all(curves[(5.0, rb)] <= curves[(3.0, rb)] + 1e-9)
    for m_bar in (3.0, 5.0):  # tightening the backhaul cannot help
        assert np.all(curves[(m_bar, 2e6)] <= curves[(m_bar, math.inf)] + 1e-9)

    spread = np.zeros(len(grid))
    sigma_curves = []
    cfg = RateConfig(alpha=ALPHA, bandwidth_w=BANDWIDTH)
    for sigma in (0.05, 0.2, 1.0):
        net = network("tcp", sigma, 5.0)
        pmf = load_pmf(net)
        sigma_curves.append([rate_coverage(net, cfg, pmf, rho) for rho in grid])
    spread = np.max(np.ptp(np.array(sigma_curves), axis=0))
    assert spread < 0.03  # rate coverage nearly invariant to the cluster size

    report(
        "criterion 7 (rate coverage)",
        f"worst analytic-vs-MC gap {worst:.4f} <= 0.05; sigma spread {spread:.4f} < 0.03",
    )


def test_criterion_8_property_suites():
    rng = np.random.default_rng(SEED)

    # disc geometry identity
    for _ in range(200):
        r1, r2 = rng.uniform(0.05, 3.0, 2)
        d = rng.uniform(0.0, 6.5)
        assert _lens_area_arrays(r1, r2, d) + _union_area_arrays(r1, r2, d) == pytest.approx(
            math.pi * (r1**2 + r2**2), rel=1e-12
        )

    # Marcum limits and monotonicity
    for a in (0.0, 0.5, 2.0, 10.0):
        assert marcum_q1(a, 0.0) == pytest.approx(1.0, abs=1e-12)
        grid = marcum_q1(a, np.linspace(0.0, a + 12.0, 120))
        assert np.all(np.diff(grid) <= 1e-12)
        assert grid[-1] < 1e-6
    for b in (0.3, 1.0, 4.0):
        assert marcum_q1(0.0, b) == pytest.approx(math.exp(-0.5 * b * b), abs=1e-12)

    # distance density and CDF normalizations to 1e-8
    from cellload.specfun import cell_radius_pdf

    tight = QuadSpec(rel_tol=1e-11, abs_tol=1e-13)
    tcp_u = UserModel(5.0, 5.0, Thomas(0.05))
    mcp_u = UserModel(5.0, 5.0, Matern(0.1))
    for z in (0.0, 0.05, 0.15):
        val = integrate_semi_infinite(lambda x: conditional_distance_pdf(tcp_u, x, z), 0.0, tight)
        assert val.value == pytest.approx(1.0, abs=1e-8)
    for z in (0.0, 0.05, 0.2):
        val = integrate_finite(
            lambda x: conditional_distance_pdf(mcp_u, x, z), 0.0, 0.1 + z, tight
        )
        assert val.value == pytest.approx(1.0, abs=1e-8)
    assert integrate_semi_infinite(cell_radius_pdf, 0.0, tight).value == pytest.approx(
        1.0, abs=1e-8
    )

    # pair-correlation excess mass = lambda_p m_bar^2 to 1e-6 relative
    for users in (tcp_u, mcp_u):
        mass = integrate_semi_infinite(
            lambda r: 2.0 * math.pi * r * pair_correlation_excess(users, r), 0.0, tight
        ).value
        assert mass == pytest.approx(users.lambda_p * users.m_bar**2, rel=1e-6)

    # byte-for-byte determinism of seeded runs
    net = network("tcp", 0.1)
    a = run_load_simulation(net, SimConfig(realizations=2000, seed=99, parallel_chunks=1))
    b = run_load_simulation(net, SimConfig(realizations=2000, seed=99, parallel_chunks=4))
    assert a.loads.tobytes() == b.loads.tobytes()

    # quadrature closed-form suite with error-estimate bounds
    for f, lo, hi, exact in CLOSED_FORM_SUITE:
        res = quad_any(f, lo, hi)
        assert abs(res.value - exact) <= max(res.error_estimate, 1e-13 * max(1.0, abs(exact)))

    report("criterion 8 (property suites)", "geometry, Marcum, normalizations, "
           "pair mass, determinism, quadrature suite all hold")
