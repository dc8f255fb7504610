import concurrent.futures
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
    run_load_simulation,
    run_sir_simulation,
    sample_pcp,
    sample_ppp,
    tv_distance,
)
from cellload import montecarlo
from cellload.montecarlo import (
    _BATCH,
    _STAGE1,
    _disc_batch,
    _far_mean,
    _in_cell,
    _owners,
    _pcp_batch,
    _rng_for,
    _sir_window,
    _stations,
    _wedge_reach,
)
from cellload.ppmodel import Matern, NetworkModel, Thomas, UserModel

from helpers import pair_correlation_density

TCP_NET = NetworkModel(1.0, UserModel(5.0, 5.0, Thomas(0.05)))
MCP_NET = NetworkModel(1.0, UserModel(5.0, 5.0, Matern(0.1)))
# TCP_NET at four times the BS density: lambda_p x 4, sigma / 2
DENSE_TCP_NET = NetworkModel(4.0, UserModel(20.0, 5.0, Thomas(0.025)))
RATE_CFG = RateConfig(alpha=4.0, bandwidth_w=1e6)
ALPHA3_CFG = RateConfig(alpha=3.0, bandwidth_w=1e6)
SETS = 64   # realizations per call in the geometry tests of single helpers


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
        # analytic rho2 well above the Poisson level, for both cluster kernels
        from cellload.quadrature import integrate_finite

        for users in (TCP_NET.users, MCP_NET.users):
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
            ring_mass = integrate_finite(
                lambda r: 2.0 * math.pi * r * pair_correlation_density(users, r), 0.0, r_bin
            ).value
            expected = area_total * ring_mass
            poisson_level = area_total * math.pi * r_bin**2 * users.intensity**2
            assert pairs > 3.0 * poisson_level, users  # strong clustering excess, right sign
            assert pairs == pytest.approx(expected, rel=0.15), users


def _record_pool(monkeypatch, cpus):
    """Run pools in-process on `cpus` usable CPUs; returns the (max_workers,
    [each worker's run of streams]) of every pool started."""
    seen = []

    class Recorder:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            jobs = list(jobs)
            seen.append((self.max_workers, jobs))
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return seen


class TestDeterminism:
    def test_same_seed_identical(self):
        a = run_load_simulation(TCP_NET, SimConfig(realizations=300, seed=11))
        b = run_load_simulation(TCP_NET, SimConfig(realizations=300, seed=11))
        assert np.array_equal(a.loads, b.loads)

    def test_chunking_invariance(self):
        # five streams, the last partial, on up to three workers
        n = 4 * _BATCH + 45
        a = run_load_simulation(TCP_NET, SimConfig(realizations=n, seed=12, parallel_chunks=1))
        b = run_load_simulation(TCP_NET, SimConfig(realizations=n, seed=12, parallel_chunks=3))
        assert np.array_equal(a.loads, b.loads)

    def test_sir_run_preserves_load_stream(self):
        cfg = SimConfig(realizations=3 * _BATCH + 8, seed=14)
        loads_only = run_load_simulation(TCP_NET, cfg)
        with_sir = run_sir_simulation(TCP_NET, cfg, RATE_CFG)
        assert np.array_equal(loads_only.loads, with_sir.loads)

    @pytest.mark.parametrize("length, chunks", [(129, 2), (10, 3)])
    def test_chunking_invariance_off_batch_boundaries(self, length, chunks):
        # runs of `length` 64ths of a stream: 129 is three streams, the last
        # with 4 realizations, on two workers; 10 is part of one stream and
        # asks for more chunks than there are streams
        realizations = length * _BATCH // 64
        cfg = SimConfig(realizations=realizations, seed=13)
        a = run_load_simulation(TCP_NET, cfg)
        b = run_load_simulation(TCP_NET, SimConfig(realizations, seed=13, parallel_chunks=chunks))
        assert np.array_equal(a.loads, b.loads)

    def test_prefix_stability(self):
        # the short run ends inside the second of the long run's five streams
        short = run_load_simulation(TCP_NET, SimConfig(realizations=_BATCH + 144, seed=10))
        long = run_load_simulation(TCP_NET, SimConfig(realizations=4 * _BATCH + 176, seed=10))
        assert np.array_equal(short.loads, long.loads[:_BATCH + 144])

    def test_sir_run_preserves_load_stream_across_chunks(self):
        # four streams, the last partial, on two worker processes
        n = 3 * _BATCH + 8
        loads_only = run_load_simulation(TCP_NET, SimConfig(realizations=n, seed=14))
        with_sir = run_sir_simulation(
            TCP_NET, SimConfig(realizations=n, seed=14, parallel_chunks=2), RATE_CFG
        )
        assert np.array_equal(loads_only.loads, with_sir.loads)
        serial = run_sir_simulation(TCP_NET, SimConfig(realizations=n, seed=14), RATE_CFG)
        assert np.array_equal(serial.sir, with_sir.sir, equal_nan=True)
        assert np.array_equal(serial.rate, with_sir.rate, equal_nan=True)

    @pytest.mark.parametrize("cpus, expected", [(8, 4), (2, 2)])
    def test_pool_size_capped(self, monkeypatch, cpus, expected):
        # 3 x 256 + 8 realizations are 4 streams, so a huge parallel_chunks
        # must still start no more workers than there are streams or CPUs, and
        # give each worker an equal run of streams
        seen = _record_pool(monkeypatch, cpus)
        cfg = SimConfig(realizations=3 * _BATCH + 8, seed=9, parallel_chunks=5000)
        res = run_load_simulation(TCP_NET, cfg)
        run = 4 // expected
        assert seen == [(expected, [range(k, k + run) for k in range(0, 4, run)])]
        serial = run_load_simulation(TCP_NET, SimConfig(realizations=3 * _BATCH + 8, seed=9))
        assert np.array_equal(res.loads, serial.loads)

    def test_pool_chunks_balanced(self, monkeypatch):
        # 4000 realizations are 16 streams of 256; three chunks on two CPUs
        # start two workers with 8 streams each, not three jobs of 6 on two
        # workers
        seen = _record_pool(monkeypatch, 2)
        res = run_load_simulation(TCP_NET, SimConfig(realizations=4000, seed=9, parallel_chunks=3))
        assert seen == [(2, [range(0, 8), range(8, 16)])]
        serial = run_load_simulation(TCP_NET, SimConfig(realizations=4000, seed=9))
        assert np.array_equal(res.loads, serial.loads)

    def test_workers_capped_by_usable_cpus(self, monkeypatch):
        # pinned to one CPU of two, two chunks of 4 streams run in-process, not
        # as two workers sharing that CPU
        seen = _record_pool(monkeypatch, 1)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        cfg = SimConfig(realizations=3 * _BATCH + 8, seed=9, parallel_chunks=2)
        run_load_simulation(TCP_NET, cfg)
        assert seen == []
        # without an affinity mask the CPU count caps the workers
        monkeypatch.delattr(montecarlo.os, "sched_getaffinity")
        run_load_simulation(TCP_NET, cfg)
        assert seen == [(2, [range(0, 2), range(2, 4)])]

    def test_distinct_seeds_differ(self):
        a = run_load_simulation(TCP_NET, SimConfig(realizations=200, seed=1))
        b = run_load_simulation(TCP_NET, SimConfig(realizations=200, seed=2))
        assert not np.array_equal(a.loads, b.loads)

    @pytest.mark.parametrize("seed", [5, 2**64 - 1])
    def test_stream_is_keyed_by_seed_and_counter(self, seed):
        # stream b draws what Philox(key=seed, counter=b << 128) draws, up to
        # the largest key and the counter's top bit; distinct streams differ
        def draws(rng):
            return (rng.random(9), rng.standard_normal(9), rng.poisson(3.0, 9),
                    rng.poisson(40.0, 9), rng.integers(np.array([5, 1000])),
                    rng.standard_exponential(9))

        firsts = []
        for b in (0, 3, 2**64 + 7, 2**128 - 1):
            new = np.random.Generator(np.random.Philox(key=seed, counter=b << 128))
            got = draws(_rng_for(seed, b))
            for g, want in zip(got, draws(new)):
                assert np.array_equal(g, want)
            firsts.append(tuple(got[0]))
        assert len(set(firsts)) == len(firsts)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
    def test_seed_outside_philox_key_rejected(self, seed):
        # a 64-bit key would alias 2^64 + 1 to seed 1 and -1 to 2^64 - 1
        with pytest.raises(ConfigurationError, match="seed"):
            SimConfig(realizations=10, seed=seed)
        SimConfig(realizations=10, seed=2**64 - 1)


def _norm2(pts):
    return np.einsum("ij,ij->i", pts, pts)


def _columns(sets):
    """(2x, 2y, |x|^2) columns of station sets, one realization each, padded
    with a station at infinity, (0, 0, inf)."""
    cols = np.zeros((3, max(map(len, sets), default=0), len(sets)))
    cols[2] = np.inf
    for k, pts in enumerate(sets):
        cols[:2, :len(pts), k] = 2.0 * pts.T
        cols[2, :len(pts), k] = _norm2(pts)
    return cols


def _unpad(cols, k):
    """The stations of realization k of a column table, as (n, 2) points."""
    real = np.isfinite(cols[2, :, k])
    return 0.5 * cols[:2, real, k].T


def _split(points, per):
    return np.split(points, np.cumsum(per)[:-1])


def _rho(reach):
    """rho per realization from its `_wedge_reach`, +inf when unbounded."""
    worst = reach.min(axis=0)
    return np.divide(1.0, worst, out=np.full(worst.size, np.inf), where=worst > 0.0)


def _circumradius(stations, directions=4096):
    """Largest extent of the cell over `directions` rays: along the unit ray
    u the cell ends at min |x|^2 / (2 u.x) over the stations with u.x > 0."""
    phi = np.arange(directions) * (2.0 * math.pi / directions)
    dots = stations @ np.stack([np.cos(phi), np.sin(phi)])
    with np.errstate(divide="ignore"):
        ends = np.where(dots > 0.0, np.einsum("ij,ij->i", stations, stations)[:, None]
                        / (2.0 * dots), np.inf)
    return ends.min(axis=0, initial=np.inf).max()


class TestCircumradiusBound:
    def test_bounds_the_cell_on_random_station_sets(self):
        # 1,024 PPP station sets of 0 to ~60 stations; the bound rho is never
        # below the cell's extent over 4,096 rays
        rho, exact = [], []
        for b in range(16):
            rng = _rng_for(31, b)
            sets = _split(*_disc_batch(rng, 1.0, 0.0, rng.uniform(0.3, 4.5, SETS), SETS))
            cols = _columns(sets)
            reach = _wedge_reach(cols)
            rho.append(_rho(reach))
            # a realization padded among others gets the bits it gets alone
            alone = [_wedge_reach(_columns([pts])) for pts in sets]
            assert np.array_equal(reach, np.hstack(alone))
            exact.append([_circumradius(pts) for pts in sets])
        rho, exact = np.concatenate(rho), np.array(exact).ravel()
        assert rho.size >= 1024
        assert np.all(rho >= exact)
        finite = np.isfinite(exact)
        assert 0.5 < finite.mean() < 1.0
        assert np.median(rho[finite] / exact[finite]) < 1.1

    def test_half_plane_and_close_wide_station(self):
        rng = _rng_for(32, 0)
        ring = _disc_batch(rng, 1.0, 0.0, 3.0, 1)[0]
        half = ring[ring[:, 0] > 0.0]     # every station in a half-plane: unbounded
        # one station very close to the origin, at a wide angle from most rays,
        # with the others beyond it
        close = np.vstack([[1e-3, 2e-4], 1.0 + ring])
        sets = [half, close, np.vstack([close, half])]
        rho = _rho(_wedge_reach(_columns(sets)))
        assert rho[0] == np.inf
        assert np.all(np.isfinite(rho[1:]))
        assert np.all(rho >= [_circumradius(x) for x in sets])

    def test_reach_does_not_depend_on_other_realizations(self):
        # neither empty realizations around a busy one, nor padding below its
        # stations where another realization has more, nor a matrix product's
        # dependence on how many stations share it may move its bits
        two = np.array([[1.0, 0.0], [0.0, 1.0]])
        none, more = np.empty((0, 2)), np.ones((5, 2))
        alone = _wedge_reach(_columns([two]))
        assert np.array_equal(_wedge_reach(_columns([two, none]))[:, :1], alone)
        assert np.array_equal(_wedge_reach(_columns([none, two, more, none]))[:, 1:2], alone)
        sets = _split(*_disc_batch(_rng_for(35, 0), 1.0, 0.0, 2.0, SETS))
        reach = _wedge_reach(_columns(sets))
        for k, pts in enumerate(sets):
            assert np.array_equal(reach[:, k:k + 1], _wedge_reach(_columns([pts])))

    def test_growth_covers_twice_the_bound(self):
        # three streams of unit-intensity stations, lengths in 1/sqrt(lambda_b)
        for stream in range(3):
            rng = _rng_for(33, stream)
            cols, drawn, span = _stations(rng, SETS)
            assert np.all(drawn >= span) and np.all(np.isfinite(span))
            radii = np.sqrt(cols[2])
            real = np.isfinite(radii)
            # nearest first, then padding only: a realization's stations are
            # its first columns, and the last one lies at its drawn radius
            assert np.all(radii[1:] >= radii[:-1])
            count = real.sum(axis=0)
            assert np.array_equal(real, np.arange(cols.shape[1])[:, None] < count)
            assert np.array_equal(radii[count - 1, np.arange(SETS)], drawn)
            assert np.all(cols[:2, ~real] == 0.0)
            np.testing.assert_allclose(np.hypot(*cols[:2, real]), 2.0 * radii[real], rtol=1e-12)
            np.testing.assert_allclose(2.0 * _rho(_wedge_reach(cols)), span, rtol=1e-12)


def _dense_loads(users, owner, station_sets):
    return np.array([
        np.count_nonzero(points_in_typical_cell(users[owner == k], pts))
        for k, pts in enumerate(station_sets)
    ])


class TestBatchedPowerTest:
    @pytest.mark.parametrize(
        "net",
        [TCP_NET, MCP_NET, NetworkModel(1.0, UserModel(0.5, 1.0, Thomas(0.05)))],
        ids=["tcp", "mcp", "light"],
    )
    def test_matches_dense_test_on_engine_draws(self, net):
        # redraw the engine's streams on the normalized model, add stations in
        # the annulus beyond each realization's drawn radius and users in the
        # annulus beyond its bound rho, and test every realization densely:
        # the extras change no load
        streams, seed, size = 3, 23, _BATCH
        dense = []
        for b in range(streams):
            rng = _rng_for(seed, b)
            cols, drawn, span = _stations(rng, size)
            users, owner = _pcp_batch(rng, net.normalized().users, 0.5 * span, size)
            extra = _rng_for(seed + 1, b)
            far = _split(*_disc_batch(extra, 1.0, drawn, drawn + 2.0, size))
            out, per_u = _disc_batch(extra, 200.0, 0.5 * span, 0.5 * span + 0.5, size)
            assert np.all(_norm2(out) > (0.25 * span * span)[_owners(per_u)])
            stations = [np.vstack([_unpad(cols, k), far[k]]) for k in range(size)]
            dense.append(_dense_loads(np.vstack([users, out]),
                                      np.concatenate([owner, _owners(per_u)]), stations))
        dense = np.concatenate(dense)
        res = run_load_simulation(net, SimConfig(realizations=streams * size, seed=seed))
        assert np.array_equal(res.loads, dense)
        if net.users.intensity < 1.0:
            assert (dense == 0).any() and (dense > 0).any()

    def test_padded_realizations(self):
        # sparse stations in no particular order: some realizations have
        # fewer than the stage-1 columns and some more, so both stages and
        # the padding run
        size = 16
        rng = _rng_for(24, 0)
        stations, per = _disc_batch(rng, 0.25, 0.0, 3.0, size)
        users, per_u = _disc_batch(rng, 20.0, 0.0, 1.5, size)
        assert per.min() < _STAGE1 < per.max()
        sets, owner = _split(stations, per), _owners(per_u)
        cell = _in_cell(users, owner, _columns(sets), per)
        loads = np.bincount(owner[cell], minlength=size)
        assert np.array_equal(loads, _dense_loads(users, owner, sets))

    def test_no_stations_or_users(self):
        none = np.empty((0, 2))
        empty_owner = np.empty(0, dtype=np.int64)
        users = np.array([[0.5, 0.0], [0.1, 0.2]])
        no_cols = _columns([none] * 3)
        assert _in_cell(users, np.array([0, 2]), no_cols, np.zeros(3, int)).tolist() == [0, 1]
        cols = _columns([users[:1], users[1:], none])
        assert _in_cell(none, empty_owner, cols, np.array([1, 1, 0])).size == 0


class TestPasses:
    def test_pass_size(self, monkeypatch):
        # every stream is one pass of 256 realizations on its own generator,
        # keyed by (seed, stream), whatever the user model or rate config; the
        # run keeps the first `realizations` of the last pass
        seen = []
        real = montecarlo._pass

        def recording(net, rng, rate_cfg, size):
            seen.append((size, rng.bit_generator.state["state"]["counter"].tolist()))
            return real(net, rng, rate_cfg, size)

        wide = NetworkModel(1.0, UserModel(5.0, 5.0, Thomas(0.5)))
        big = NetworkModel(1.0, UserModel(5.0, 5.0, Matern(1.0)))
        monkeypatch.setattr(montecarlo, "_pass", recording)
        for net in (TCP_NET, MCP_NET, wide, big):
            for alpha in (None, 3.0, 4.0):
                seen.clear()
                res = _run(net, alpha, SimConfig(realizations=_BATCH + 10, seed=44))
                assert res.loads.size == _BATCH + 10
                assert seen == [(256, [0, 0, 0, 0]), (256, [0, 0, 1, 0])]

    @pytest.mark.parametrize("kind", [Thomas(0.05), Thomas(0.5), Matern(0.1)],
                             ids=["tcp-0.05", "tcp-0.5", "mcp-0.1"])
    @pytest.mark.parametrize("length", [129, 1000])
    def test_outputs_do_not_depend_on_pass_size(self, monkeypatch, kind, length):
        # runs of `length` 64ths of a stream, 3 and 16 streams with the last
        # one partial, walked one pass per stream on 1, 2 and 3 chunks (run
        # in-process on three CPUs: 3 streams go to 2 and 3 workers, 16 to 2
        # and 3) give bitwise the same loads, SIR, rate and windows
        seen = _record_pool(monkeypatch, 3)
        net = NetworkModel(1.0, UserModel(5.0, 5.0, kind))
        realizations = length * _BATCH // 64
        # SIR at alpha = 4 and at alpha = 3
        runs = []
        for chunks in (1, 2, 3):
            cfg = SimConfig(realizations, seed=41, parallel_chunks=chunks)
            runs.append((run_load_simulation(net, cfg), run_sir_simulation(net, cfg, RATE_CFG),
                         run_sir_simulation(net, cfg, ALPHA3_CFG)))
        assert [workers for workers, _ in seen] == [2, 2, 2, 3, 3, 3]
        (load, *sirs), rest = runs[0], runs[1:]
        for other_load, *other_sirs in rest:
            assert np.array_equal(other_load.loads, load.loads)
            assert other_load.window_radius == load.window_radius
            for sir, other_sir in zip(sirs, other_sirs):
                assert np.array_equal(other_sir.loads, load.loads)
                assert np.array_equal(other_sir.sir, sir.sir, equal_nan=True)
                assert np.array_equal(other_sir.rate, sir.rate, equal_nan=True)
                assert other_sir.window_radius == sir.window_radius

    @pytest.mark.parametrize("rate_cfg", [RATE_CFG, ALPHA3_CFG], ids=["alpha-4", "alpha-3"])
    def test_sir_run_is_a_prefix_of_a_longer_one(self, rate_cfg):
        short = run_sir_simulation(TCP_NET, SimConfig(300, seed=42), rate_cfg)
        long = run_sir_simulation(TCP_NET, SimConfig(1000, seed=42), rate_cfg)
        assert np.array_equal(short.loads, long.loads[:300])
        assert np.array_equal(short.sir, long.sir[:300], equal_nan=True)
        assert np.array_equal(short.rate, long.rate[:300], equal_nan=True)
        assert short.window_radius <= long.window_radius


def _run(net, alpha, cfg):
    if alpha is None:
        return run_load_simulation(net, cfg)
    return run_sir_simulation(net, cfg, RateConfig(alpha=alpha, bandwidth_w=1e6))


class TestWindowInvariants:
    @pytest.mark.parametrize("alpha", [None, 3.0, 4.0])
    def test_window_scales(self, alpha):
        # same lambda_u / lambda_b, four times the BS density: both models
        # normalize to the same one, so a seeded run gives bitwise the same
        # loads, SIR and rate, and its window, W' included, halves exactly
        assert DENSE_TCP_NET.normalized() == TCP_NET
        cfg = SimConfig(realizations=100, seed=3)
        small, large = _run(DENSE_TCP_NET, alpha, cfg), _run(TCP_NET, alpha, cfg)
        assert np.array_equal(small.loads, large.loads)
        if alpha is not None:
            assert np.array_equal(small.sir, large.sir, equal_nan=True)
            assert np.array_equal(small.rate, large.rate, equal_nan=True)
        assert small.window_radius == large.window_radius / 2.0

    @pytest.mark.parametrize("alpha", [3.0, 3.3, 3.56, 4.0, 6.0])
    @pytest.mark.parametrize("lambda_b", [1.0, 4.0])
    def test_sir_window_bounds_interference_tail(self, alpha, lambda_b):
        # W' is in units of 1/sqrt(lambda_b): at density lambda_b the standard
        # deviation of the Rayleigh-faded interference beyond W' / sqrt(lambda_b)
        # against the mean interference from beyond r0 = 0.5 / sqrt(lambda_b)
        # is at most 1% at W', and more just below W' / 1.05
        window = _sir_window(alpha) / math.sqrt(lambda_b)
        r0 = 0.5 / math.sqrt(lambda_b)

        def share(w):
            std = math.sqrt(2.0 * math.pi * lambda_b * 2.0 * w ** (2.0 - 2.0 * alpha)
                            / (2.0 * alpha - 2.0))
            return std / (2.0 * math.pi * lambda_b * r0 ** (2.0 - alpha) / (alpha - 2.0))

        assert share(window) <= 0.01
        assert share(window / 1.05 * (1.0 - 1e-9)) > 0.01

    def test_windows_at_alpha_4(self, monkeypatch):
        # a load run reports the largest radius any realization drew stations
        # to; a SIR run reports the largest R_i = max(drawn_i, |u_i| + W') over
        # its realizations (R_i = drawn_i for an empty cell); whole streams,
        # so every R_i the sampler computes belongs to the run
        cfg = SimConfig(realizations=4 * _BATCH, seed=0)
        load = run_load_simulation(TCP_NET, cfg)
        assert load.window_radius >= _stations(_rng_for(0, 0), _BATCH)[1].max()
        assert 2.0 < load.window_radius < 5.0
        assert _sir_window(4.0) == pytest.approx(2.3712, abs=1e-4)
        seen = []
        real = montecarlo._far_mean

        def recording(alpha, u2, outer):
            seen.append((u2, outer))
            return real(alpha, u2, outer)

        monkeypatch.setattr(montecarlo, "_far_mean", recording)
        res = run_sir_simulation(TCP_NET, cfg, RATE_CFG)
        u2, outer = (np.concatenate(parts) for parts in zip(*seen))
        assert outer.size == np.count_nonzero(res.loads)
        assert np.all(outer >= np.sqrt(u2) + _sir_window(4.0))
        assert res.window_radius == max(load.window_radius, outer.max())

    def test_load_run_draws_no_station_beyond_window(self, monkeypatch):
        # every station a load run draws lies within its realization's drawn
        # radius, in units of 1/sqrt(lambda_b), and the run reports the largest
        # of these radii in the model's units: at lambda_b = 4, half of it
        drawn = []
        real = montecarlo._stations

        def recording(rng, size):
            cols, radius, span = real(rng, size)
            assert np.all(np.sqrt(cols[2]) <= radius, where=np.isfinite(cols[2]))
            drawn.append(radius)
            return cols, radius, span

        monkeypatch.setattr(montecarlo, "_stations", recording)
        res = run_load_simulation(DENSE_TCP_NET, SimConfig(realizations=3 * _BATCH, seed=4))
        assert len(drawn) == 3 and np.concatenate(drawn).max() / 2.0 == res.window_radius

    def test_sir_window_at_alpha_3_keeps_loads(self):
        cfg = SimConfig(realizations=100, seed=18)
        loads_only = run_load_simulation(TCP_NET, cfg)
        with_sir = run_sir_simulation(TCP_NET, cfg, ALPHA3_CFG)
        assert with_sir.window_radius < 8.0
        assert np.array_equal(loads_only.loads, with_sir.loads)

    def test_sir_run_keeps_loads_on_wider_clusters(self):
        # at Thomas sigma = 0.1 and alpha = 3 a stream draws more users and
        # SIR stations than on the paper model; the SIR run still draws each
        # stream's loads first, as a load run does
        net = NetworkModel(1.0, UserModel(5.0, 5.0, Thomas(0.1)))
        cfg = SimConfig(realizations=2 * _BATCH + 10, seed=19)
        loads_only = run_load_simulation(net, cfg)
        with_sir = run_sir_simulation(net, cfg, ALPHA3_CFG)
        assert np.array_equal(loads_only.loads, with_sir.loads)

    def test_interference_window_guard(self):
        with pytest.raises(ConfigurationError):
            run_sir_simulation(
                TCP_NET,
                SimConfig(realizations=10, seed=0),
                RateConfig(alpha=2.5, bandwidth_w=1e6),
            )


class TestFarMean:
    @pytest.mark.parametrize("alpha", [3.0, 4.0, 8.0, 40.0])
    @pytest.mark.parametrize("ratio", [0.0, 0.25, 0.5])
    def test_series_matches_quadrature(self, alpha, ratio):
        # int_{|x| > R} |x - u|^-alpha dx in polar coordinates about the
        # origin, with r = R / t so the domain is finite; alpha = 40 at
        # |u| = R / 2 needs 76 terms, so a fixed 48-term sum would miss by 1.6e-7
        from scipy.integrate import dblquad

        outer = 1.7
        u = ratio * outer

        def integrand(theta, t):
            r = outer / t
            return outer * outer / t**3 * (r * r + u * u - 2.0 * r * u * math.cos(theta)) ** (-0.5 * alpha)

        half, _ = dblquad(integrand, 0.0, 1.0, 0.0, math.pi, epsabs=0.0, epsrel=1e-13)
        got = _far_mean(alpha, np.array([u * u]), np.array([outer]))
        np.testing.assert_allclose(got, [2.0 * half], rtol=1e-12, atol=0.0)


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
        assert pmf.tail_mass() == 0.0

    def test_accepts_arrays_and_results(self):
        pmf = empirical_pmf(np.array([2, 2, 4]))
        assert pmf.probs.sum() == 1.0
        res = LoadSimResult(np.array([1, 1, 3]), 9.6)
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
