"""Ground-truth simulator of the spatial model under the BS Palm distribution.

Each realization places the typical BS at the origin, draws the other BSs as
a PPP in a disc window, draws the clustered users, and counts the users whose
nearest BS is the origin.  A user u belongs to the typical cell iff no other
BS lies strictly inside b(u, |u|); with stations x this is the power test

    max_x (2 u.x - |x|^2) < 0.

Realizations are simulated in batches of _BATCH: each batch draws its
stations and users in a few bulk calls, each point tagged with its
realization, and runs one two-stage power test for all of them.

Window bookkeeping (all radii scale as 1/sqrt(lambda_b)):

* user cutoff r_u: users beyond r_u with lambda_u exp(-pi lambda_b r_u^2)
  < 1e-7 contribute that many expected in-cell users and are not sampled.
  A sampled user u is decided exactly by the BSs in b(o, 2 r_u), since any BS
  closer to u than the origin lies within 2|u|, so a load run draws only
  those: its window_radius is 2 r_u.
* SIR window W: a SIR run also needs W > r0 101^{1/(alpha-2)} with
  r0 = 0.5 / sqrt(lambda_b): the mean interference from beyond W,
  2 pi lambda_b W^{2-alpha} / (alpha-2), is then < 1% of the mean from the
  annulus r0 < |x| < W.  W is the larger of 2 r_u and 1.05 times that
  radius.  The BSs in b(o, 2 r_u) and those in the annulus out to W are
  independent PPPs, so a SIR run draws the annulus after the loads, for the
  interference only.

Determinism: realization k belongs to batch floor(k / _BATCH), whose draws
come from a counter-based Philox stream keyed by (seed, batch).  Every batch
is drawn in full and the last one is truncated, so realization k depends only
on (seed, k): a run of n realizations is a prefix of any longer run with the
same seed.  parallel_chunks = K starts min(K, batches, CPUs) workers and
gives each one contiguous run of batches; outputs are concatenated in batch
order, so results are bitwise identical for any parallel_chunks.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .analytic import LoadPmf, RateConfig
from .errors import ConfigurationError
from .ppmodel import NetworkModel, Thomas, UserModel, cluster_reach

__all__ = [
    "SimConfig",
    "LoadSimResult",
    "SirSimResult",
    "sample_ppp",
    "sample_pcp",
    "run_load_simulation",
    "run_sir_simulation",
    "check_sir_alpha",
    "empirical_pmf",
    "empirical_ccdf",
    "tv_distance",
    "points_in_typical_cell",
]

_USER_TAIL = 1e-7          # bound on expected in-cell users beyond the cutoff
_BATCH = 64                # realizations per Philox stream
_STAGE1 = 8                # nearest stations tested against every user


def _user_cutoff(net: NetworkModel) -> float:
    ratio = max(net.users.intensity / net.lambda_b, 1.0) / _USER_TAIL
    return math.sqrt(math.log(ratio) / (math.pi * net.lambda_b))


def _window(net: NetworkModel, alpha: Optional[float]) -> float:
    """BS window radius of a load run (alpha None) or of a SIR run."""
    window = 2.0 * _user_cutoff(net)
    if alpha is not None:
        sir = 1.05 * 0.5 / math.sqrt(net.lambda_b) * 101.0 ** (1.0 / (alpha - 2.0))
        window = max(window, sir)
    return window


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


def _rng_for(seed: int, batch: int) -> Generator:
    """The Philox stream of realization batch `batch` under `seed`."""
    return Generator(Philox(key=np.uint64(seed), counter=batch << 128))


def _norm2(pts: np.ndarray) -> np.ndarray:
    return pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1]


def _owners(counts: np.ndarray) -> np.ndarray:
    """Realization index of every point of a batch grouped by realization."""
    return np.repeat(np.arange(counts.size), counts)


def _annulus_points(rng: Generator, n: int, inner: float, outer: float) -> np.ndarray:
    """n points uniform in the annulus inner < |x| <= outer, as (n, 2)."""
    area = outer * outer - inner * inner
    r = np.sqrt(inner * inner + area * rng.random(n))
    phi = rng.random(n) * (2.0 * math.pi)
    pts = np.empty((n, 2))
    np.cos(phi, out=pts[:, 0])
    np.sin(phi, out=pts[:, 1])
    pts *= r[:, None]
    return pts


def _disc_batch(rng: Generator, intensity: float, inner: float, outer: float, size: int):
    """PPP in the annulus inner < |x| <= outer for `size` independent
    realizations: (n, 2) points grouped by realization, and the per-realization
    counts."""
    counts = rng.poisson(intensity * math.pi * (outer * outer - inner * inner), size)
    return _annulus_points(rng, int(counts.sum()), inner, outer), counts


def _pcp_batch(rng: Generator, model: UserModel, radius: float, size: int):
    """Clustered users in b(o, radius) for `size` independent realizations:
    (n, 2) points grouped by realization, and each point's realization.

    Offspring counts are drawn before parent positions, and only parents with
    offspring get a position: positions are independent of the counts, so
    this is exact, and sparse clusters (small m_bar) skip most parents."""
    outer = radius + cluster_reach(model)
    per_real = rng.poisson(model.lambda_p * math.pi * outer * outer, size)
    kids = rng.poisson(model.m_bar, int(per_real.sum()))
    owner = np.repeat(_owners(per_real), kids)
    kids = kids[kids > 0]
    users = np.repeat(_annulus_points(rng, kids.size, 0.0, outer), kids, axis=0)
    total = owner.size
    if isinstance(model.kind, Thomas):
        users += model.kind.sigma * rng.standard_normal((total, 2))
    else:
        users += _annulus_points(rng, total, 0.0, model.kind.radius)
    keep = _norm2(users) <= radius * radius
    return np.compress(keep, users, axis=0), owner[keep]


def sample_ppp(intensity: float, window_radius: float, rng: Generator) -> np.ndarray:
    """Homogeneous PPP in the disc b(o, window_radius); returns (n, 2) points."""
    if intensity < 0:
        raise ConfigurationError("intensity must be non-negative")
    if intensity == 0:
        return np.empty((0, 2))
    return _disc_batch(rng, intensity, 0.0, window_radius, 1)[0]


def sample_pcp(model: UserModel, window_radius: float, rng: Generator) -> np.ndarray:
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
    test of `points_in_typical_cell` for a whole batch, users and stations
    grouped by realization.

    Stations are sorted by |x| within each realization and padded with
    x = 0, |x|^2 = +inf into columns that hold one station per realization.
    Stage 1 tests every user against the _STAGE1 nearest columns and drops
    those with a non-negative power, which fail the full test too; stage 2
    tests the survivors against the remaining columns.  Both stages are
    exact.
    """
    per_st = np.bincount(st_owner, minlength=size)
    width = int(per_st.max(initial=0))
    slot = np.arange(st_owner.size) - np.repeat(np.cumsum(per_st) - per_st, per_st)
    rows = np.zeros((3, size, width))
    rows[2] = np.inf
    rows[0, st_owner, slot] = 2.0 * stations[:, 0]
    rows[1, st_owner, slot] = 2.0 * stations[:, 1]
    rows[2, st_owner, slot] = _norm2(stations)
    order = np.argsort(rows[2], axis=1)
    cols = np.take_along_axis(rows, order[None], axis=2).transpose(0, 2, 1).copy()

    ux = np.ascontiguousarray(users[:, 0])
    uy = np.ascontiguousarray(users[:, 1])
    peak = _max_power(ux, uy, np.bincount(owner, minlength=size), cols[:, :_STAGE1])
    alive = np.flatnonzero(peak < 0.0)
    if width > _STAGE1:
        peak = _max_power(ux[alive], uy[alive], np.bincount(owner[alive], minlength=size),
                          cols[:, _STAGE1:])
        alive = alive[peak < 0.0]
    return alive


def _batch(net, window, seed, batch, rate_cfg):
    """Loads, and with rate_cfg also SIR and rate, of the _BATCH realizations
    of one stream.  The draw order is fixed so that load-only and SIR runs see
    identical loads: near stations in b(o, 2 cutoff), users, then (SIR only)
    the stations in the annulus out to the window, the representative users
    and the fades."""
    rng = _rng_for(seed, batch)
    cut = _user_cutoff(net)
    near, near_per = _disc_batch(rng, net.lambda_b, 0.0, 2.0 * cut, _BATCH)
    near_owner = _owners(near_per)
    users, owner = _pcp_batch(rng, net.users, cut, _BATCH)
    cell = _in_cell(users, owner, near, near_owner, _BATCH)
    loads = np.bincount(owner[cell], minlength=_BATCH)
    if rate_cfg is None:
        return loads, None, None

    far, far_per = _disc_batch(rng, net.lambda_b, 2.0 * cut, window, _BATCH)
    stations = np.concatenate([near, far])
    st_owner = np.concatenate([near_owner, _owners(far_per)])
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
    return loads, sir, rate


def _stack(parts, size):
    """Concatenate the (loads, sir, rate) parts field by field and keep the
    first `size` realizations; load runs carry None for sir and rate."""
    return [None if f[0] is None else np.concatenate(f)[:size] for f in zip(*parts)]


def _simulate(net, cfg, window, rate_cfg):
    batches = -(-cfg.realizations // _BATCH)
    job = functools.partial(_batch, net, window, cfg.seed, rate_cfg=rate_cfg)
    workers = min(cfg.parallel_chunks, batches, os.cpu_count() or 1)
    if workers == 1:
        parts = list(map(job, range(batches)))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(job, range(batches), chunksize=-(-batches // workers)))
    return _stack(parts, cfg.realizations)


def run_load_simulation(net: NetworkModel, cfg: SimConfig) -> LoadSimResult:
    """Loads of cfg.realizations independent typical cells."""
    window = _window(net, None)
    loads, _, _ = _simulate(net, cfg, window, None)
    return LoadSimResult(loads, window)


def check_sir_alpha(alpha: float) -> None:
    """Refuse alpha < 3 for a SIR run, whose window grows as 101^{1/(alpha-2)}."""
    if alpha < 3.0:
        raise ConfigurationError("SIR simulation requires alpha >= 3 for window truncation")


def run_sir_simulation(net: NetworkModel, cfg: SimConfig, rate_cfg: RateConfig) -> SirSimResult:
    """Loads plus representative-user SIR and rate samples (alpha >= 3)."""
    check_sir_alpha(rate_cfg.alpha)
    window = _window(net, rate_cfg.alpha)
    loads, sir, rate = _simulate(net, cfg, window, rate_cfg)
    return SirSimResult(loads, sir, rate, window)


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
