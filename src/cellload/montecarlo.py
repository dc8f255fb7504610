"""Ground-truth simulator of the spatial model under the BS Palm distribution.

Each realization places the typical BS at the origin, draws the other BSs as
a PPP and the clustered users, and counts the users u in the typical cell,
max_x (2 u.x - |x|^2) < 0 over the stations x.  Realizations run in batches
of _BATCH, every point tagged with its realization.

Windows.  A cell point y between the unit directions e_k and e_{k+1} has
|y| min(x.e_k, x.e_{k+1}) <= y.x <= |x|^2 / 2, so the circumradius is at most
rho = max_k min_x |x|^2 / (2 min(x.e_k, x.e_{k+1})), over the stations x with
a positive min, and more stations only shrink the cell.  Stations are drawn
out to _FIRST_STATIONS expected ones, then, while 2 rho exceeds the drawn
radius, out to min(2 rho, twice that radius).  Users are drawn in b(o, rho)
and tested against the stations within 2 rho, which decide them exactly.
window_radius is the largest radius any realization drew stations to.

Determinism: batch b draws from a Philox stream keyed by (seed, b), drawn in
full, the last one truncated, so realization k depends only on (seed, k)
and a run of n is a prefix of any longer run with the same seed.  Workers
take contiguous runs of batches and outputs are concatenated in batch
order, so results are bitwise identical for any parallel_chunks.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytic import LoadPmf, RateConfig
from .errors import ConfigurationError
from .ppmodel import NetworkModel, Thomas, UserModel, cluster_reach

__all__ = [
    "SimConfig", "LoadSimResult", "SirSimResult", "sample_ppp", "sample_pcp",
    "run_load_simulation", "run_sir_simulation", "check_sir_alpha", "empirical_pmf",
    "empirical_ccdf", "tv_distance", "points_in_typical_cell",
]

_BATCH = 64                # realizations per Philox stream
_FIRST_STATIONS = 9.0      # mean station count of the first disc
_DIRECTIONS = 32           # wedges of the circumradius bound
_STAGE1 = 8                # nearest stations tested against every user

# the wedge edges e_0 .. e_{K-1} and e_0 again, as (K + 1, 2)
_EDGES = 2.0 * math.pi / _DIRECTIONS * (np.arange(_DIRECTIONS + 1) % _DIRECTIONS)
_EDGES = np.stack([np.cos(_EDGES), np.sin(_EDGES)], axis=1)


def _sir_window(net: NetworkModel, alpha: float) -> float:
    """Radius beyond which less than 1% of the mean interference lies."""
    return 1.05 * 0.5 / math.sqrt(net.lambda_b) * 101.0 ** (1.0 / (alpha - 2.0))


@dataclass(frozen=True)
class SimConfig:
    realizations: int
    seed: int = 0
    parallel_chunks: int = 1

    def __post_init__(self):
        if self.realizations < 1:
            raise ConfigurationError("realizations must be >= 1")
        if self.parallel_chunks < 1:
            raise ConfigurationError("parallel_chunks must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError("seed must be in [0, 2^64)")


@dataclass(frozen=True)
class LoadSimResult:
    loads: np.ndarray
    window_radius: float


@dataclass(frozen=True)
class SirSimResult:
    loads: np.ndarray
    sir: np.ndarray          # NaN where load = 0
    rate: np.ndarray         # NaN where load = 0
    window_radius: float


def _rng_for(seed: int, batch: int) -> np.random.Generator:
    """The Philox stream of realization batch `batch` under `seed`; numpy.random
    is imported here, at the first draw, so analytic commands never load it."""
    from numpy.random import Generator, Philox

    return Generator(Philox(key=np.uint64(seed), counter=batch << 128))


def _norm2(pts: np.ndarray) -> np.ndarray:
    return pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1]


def _owners(counts: np.ndarray) -> np.ndarray:
    """Realization index of every point of a batch grouped by realization."""
    return np.repeat(np.arange(counts.size), counts)


def _annulus_points(rng: np.random.Generator, n: int, inner, outer) -> np.ndarray:
    """n points uniform in the annulus inner < |x| <= outer, as (n, 2); the
    radii are scalars or one per point."""
    area = outer * outer - inner * inner
    r = np.sqrt(inner * inner + area * rng.random(n))
    phi = rng.random(n) * (2.0 * math.pi)
    pts = np.empty((n, 2))
    np.cos(phi, out=pts[:, 0])
    np.sin(phi, out=pts[:, 1])
    pts *= r[:, None]
    return pts


def _disc_batch(rng: np.random.Generator, intensity: float, inner, outer, size: int):
    """PPP in the annulus inner < |x| <= outer for `size` independent
    realizations, the radii scalars or one per realization: (n, 2) points
    grouped by realization, and the per-realization counts."""
    counts = rng.poisson(intensity * math.pi * (outer * outer - inner * inner), size)
    inner, outer = (np.repeat(np.broadcast_to(r, size), counts) for r in (inner, outer))
    return _annulus_points(rng, int(counts.sum()), inner, outer), counts


def _pcp_batch(rng: np.random.Generator, model: UserModel, radius, size: int):
    """Clustered users in b(o, radius), the radius a scalar or one per
    realization: (n, 2) points grouped by realization, and each point's
    realization.  Only parents with offspring get a position (positions are
    independent of the counts), so sparse clusters skip most parents."""
    radius = np.broadcast_to(radius, size)
    outer = radius + cluster_reach(model)
    per_real = rng.poisson(model.lambda_p * math.pi * outer * outer, size)
    kids = rng.poisson(model.m_bar, int(per_real.sum()))
    parent = _owners(per_real)[kids > 0]
    kids = kids[kids > 0]
    owner = np.repeat(parent, kids)
    users = np.repeat(_annulus_points(rng, kids.size, 0.0, outer[parent]), kids, axis=0)
    if isinstance(model.kind, Thomas):
        users += model.kind.sigma * rng.standard_normal((owner.size, 2))
    else:
        users += _annulus_points(rng, owner.size, 0.0, model.kind.radius)
    keep = _norm2(users) <= (radius * radius)[owner]
    return np.compress(keep, users, axis=0), owner[keep]


def sample_ppp(intensity: float, window_radius: float, rng: np.random.Generator) -> np.ndarray:
    """Homogeneous PPP in the disc b(o, window_radius); returns (n, 2) points."""
    if intensity < 0:
        raise ConfigurationError("intensity must be non-negative")
    if intensity == 0:
        return np.empty((0, 2))
    return _disc_batch(rng, intensity, 0.0, window_radius, 1)[0]


def sample_pcp(model: UserModel, window_radius: float, rng: np.random.Generator) -> np.ndarray:
    """Clustered users restricted to b(o, window_radius).

    Parents are drawn in a window expanded by the cluster reach so that the
    restriction is distributed as the stationary process (Gaussian clusters
    truncated at 6 sigma, tail mass ~1.5e-8).
    """
    return _pcp_batch(rng, model, window_radius, 1)[0]


def points_in_typical_cell(points: np.ndarray, stations: np.ndarray) -> np.ndarray:
    """Mask of points whose nearest station is the origin BS.

    stations excludes the origin BS itself.  A point u is in the cell iff no
    station is strictly closer to u than the origin, i.e.
    max_x (2 u.x - |x|^2) < 0.  This is the dense one-realization form of the
    batched test `_in_cell`.
    """
    if points.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    if stations.shape[0] == 0:
        return np.ones(points.shape[0], dtype=bool)
    power = points @ (2.0 * stations.T)
    power -= np.einsum("ij,ij->i", stations, stations)
    return power.max(axis=1) < 0.0


def _wedge_reach(stations, counts) -> np.ndarray:
    """Per wedge k and realization, the max over its stations (grouped, with
    these counts) of min(x.e_k, x.e_{k+1}) / |x|^2, as (_DIRECTIONS,
    realizations); 0 for none.  1 / (2 rho) is the min over k."""
    if stations.shape[0] == 0:
        return np.zeros((_DIRECTIONS, counts.size))
    dots = _EDGES @ (stations / _norm2(stations)[:, None]).T
    reach = np.minimum(dots[:-1], dots[1:])
    first = np.minimum(np.cumsum(counts) - counts, stations.shape[0] - 1)
    reach = np.maximum.reduceat(reach, first, axis=1)
    reach[:, counts == 0] = 0.0
    return reach


def _stations(rng: np.random.Generator, lambda_b: float, size: int):
    """Stations of `size` realizations, their owners, each one's drawn radius
    and its span 2 rho <= drawn; a round grows the realizations in `grow`."""
    rings, owners = [], []
    reach = np.zeros((_DIRECTIONS, size))
    drawn = np.zeros(size)
    grow = np.arange(size)
    outer = np.full(size, math.sqrt(_FIRST_STATIONS / (math.pi * lambda_b)))
    while grow.size:
        ring, per = _disc_batch(rng, lambda_b, drawn[grow], outer, grow.size)
        rings.append(ring)
        owners.append(grow[_owners(per)])
        drawn[grow] = outer
        reach[:, grow] = np.maximum(reach[:, grow], _wedge_reach(ring, per))
        worst = reach.min(axis=0)
        span = np.divide(1.0, worst, out=np.full(size, np.inf), where=worst > 0.0)
        grow = grow[span[grow] > drawn[grow]]
        outer = np.minimum(span[grow], 2.0 * drawn[grow])
    return np.concatenate(rings), np.concatenate(owners), drawn, span


def _max_power(ux, uy, per_real, cols):
    """Running max over station columns of 2 u.x - |x|^2, with cols holding
    (2x, 2y, |x|^2) as (3, columns, realizations).  Each column is repeated
    over the realizations' users on 1-D arrays, which stay in cache where a
    (users, columns) table would not."""
    peak = np.full(ux.size, -np.inf)
    for sx, sy, sn2 in zip(*cols):
        p = ux * np.repeat(sx, per_real)
        p += uy * np.repeat(sy, per_real)
        p -= np.repeat(sn2, per_real)
        np.maximum(peak, p, out=peak)
    return peak


def _in_cell(users, owner, stations, st_owner, size: int) -> np.ndarray:
    """Indices of the users in their realization's typical cell: the power
    test of `points_in_typical_cell` for a batch grouped by realization.
    Stations go, in their order, into columns of one station per
    realization, padded with x = 0, |x|^2 = +inf.  Stage 1 tests every user
    against the first _STAGE1 columns and drops those with a non-negative
    power; stage 2 tests the rest.  Exact for any order; near stations first
    make stage 1 drop the most."""
    per_st = np.bincount(st_owner, minlength=size)
    width = int(per_st.max(initial=0))
    slot = np.arange(st_owner.size) - np.repeat(np.cumsum(per_st) - per_st, per_st)
    cols = np.zeros((3, width, size))
    cols[2] = np.inf
    cols[0, slot, st_owner] = 2.0 * stations[:, 0]
    cols[1, slot, st_owner] = 2.0 * stations[:, 1]
    cols[2, slot, st_owner] = _norm2(stations)

    ux = np.ascontiguousarray(users[:, 0])
    uy = np.ascontiguousarray(users[:, 1])
    peak = _max_power(ux, uy, np.bincount(owner, minlength=size), cols[:, :_STAGE1])
    alive = np.flatnonzero(peak < 0.0)
    if width > _STAGE1:
        peak = _max_power(ux[alive], uy[alive], np.bincount(owner[alive], minlength=size),
                          cols[:, _STAGE1:])
        alive = alive[peak < 0.0]
    return alive


def _batch(net, seed, batch, rate_cfg):
    """Loads, SIR and rate (None for a load run) and drawn radii of the
    _BATCH realizations of one stream.  SIR runs draw their extra stations,
    representative users and fades after the loads, so the loads match."""
    rng = _rng_for(seed, batch)
    stations, st_owner, drawn, span = _stations(rng, net.lambda_b, _BATCH)
    users, owner = _pcp_batch(rng, net.users, 0.5 * span, _BATCH)
    near = np.flatnonzero(_norm2(stations) < (span * span)[st_owner])
    near = near[np.argsort(st_owner[near], kind="stable")]   # rings stay nearest first
    cell = _in_cell(users, owner, stations[near], st_owner[near], _BATCH)
    loads = np.bincount(owner[cell], minlength=_BATCH)
    if rate_cfg is None:
        return loads, None, None, drawn

    window = _sir_window(net, rate_cfg.alpha)
    far, far_per = _disc_batch(rng, net.lambda_b, np.minimum(drawn, window), window, _BATCH)
    stations = np.concatenate([stations, far])
    st_owner = np.concatenate([st_owner, _owners(far_per)])
    busy = np.flatnonzero(loads)
    first = np.cumsum(loads) - loads
    rep = np.zeros((_BATCH, 2))
    rep[busy] = users[cell[first[busy] + rng.integers(loads[busy])]]
    fades = rng.standard_exponential(busy.size + stations.shape[0])
    alpha = rate_cfg.alpha
    gain = fades[busy.size:] * _norm2(stations - rep[st_owner]) ** (-0.5 * alpha)
    interference = np.bincount(st_owner, weights=gain, minlength=_BATCH)[busy]
    w2 = _norm2(rep[busy])
    sir = np.full(_BATCH, np.nan)
    rate = np.full(_BATCH, np.nan)
    s = np.full(busy.size, np.inf)   # a user on the origin or no interference
    ok = (w2 > 0.0) & (interference > 0.0)
    s[ok] = fades[: busy.size][ok] * w2[ok] ** (-0.5 * alpha) / interference[ok]
    sir[busy] = s
    load = loads[busy]
    rate[busy] = np.minimum(rate_cfg.bandwidth_w / load * np.log2(1.0 + s),
                            rate_cfg.backhaul_rb / load)
    return loads, sir, rate, np.maximum(drawn, window)


def _stack(parts, size):
    """Concatenate the (loads, sir, rate, drawn) parts field by field and keep
    the first `size` realizations; load runs carry None for sir and rate."""
    return [None if f[0] is None else np.concatenate(f)[:size] for f in zip(*parts)]


def _simulate(net, cfg, rate_cfg):
    batches = -(-cfg.realizations // _BATCH)
    job = functools.partial(_batch, net, cfg.seed, rate_cfg=rate_cfg)
    workers = min(cfg.parallel_chunks, batches, os.cpu_count() or 1)
    if workers == 1:
        parts = list(map(job, range(batches)))
    else:
        from concurrent.futures import ProcessPoolExecutor   # loaded only when a pool starts

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(job, range(batches), chunksize=-(-batches // workers)))
    return _stack(parts, cfg.realizations)


def run_load_simulation(net: NetworkModel, cfg: SimConfig) -> LoadSimResult:
    """Loads of cfg.realizations independent typical cells."""
    loads, _, _, drawn = _simulate(net, cfg, None)
    return LoadSimResult(loads, float(drawn.max()))


def check_sir_alpha(alpha: float) -> None:
    """Refuse alpha < 3 for a SIR run, whose window grows as 101^{1/(alpha-2)}."""
    if alpha < 3.0:
        raise ConfigurationError("SIR simulation requires alpha >= 3 for window truncation")


def run_sir_simulation(net: NetworkModel, cfg: SimConfig, rate_cfg: RateConfig) -> SirSimResult:
    """Loads plus representative-user SIR and rate samples (alpha >= 3)."""
    check_sir_alpha(rate_cfg.alpha)
    loads, sir, rate, drawn = _simulate(net, cfg, rate_cfg)
    return SirSimResult(loads, sir, rate, float(drawn.max()))


def empirical_pmf(source) -> LoadPmf:
    """Histogram PMF of observed loads (an array or a simulation result);
    probabilities sum to 1 exactly."""
    loads = np.asarray(getattr(source, "loads", source), dtype=np.int64)
    if loads.size == 0:
        raise ConfigurationError("empirical_pmf needs at least one realization")
    return LoadPmf(probs=np.bincount(loads) / loads.size)


def empirical_ccdf(samples: np.ndarray, thresholds: Sequence[float]) -> np.ndarray:
    """P(sample > threshold) over the non-NaN samples, per threshold."""
    vals = np.asarray(samples, dtype=float)
    vals = vals[~np.isnan(vals)]
    if vals.size == 0:
        raise ConfigurationError("no conditioning samples (every realization had load 0)")
    return np.array([float(np.mean(vals > t)) for t in thresholds])


def tv_distance(p, q) -> float:
    """Total-variation distance between two PMFs (padded to a common support)."""
    p = np.asarray(getattr(p, "probs", p), dtype=float)
    q = np.asarray(getattr(q, "probs", q), dtype=float)
    n = max(p.size, q.size)
    a = np.zeros(n)
    b = np.zeros(n)
    a[: p.size] = p
    b[: q.size] = q
    return 0.5 * float(np.abs(a - b).sum())
