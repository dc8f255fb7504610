"""Ground-truth simulator of the spatial model under the BS Palm distribution.

Each realization places the typical BS at the origin, draws the other BSs as
a PPP and the clustered users, and counts the users u in the typical cell,
max_x (2 u.x - |x|^2) < 0 over the stations x.  Runs sample
`NetworkModel.normalized()`, a unit-intensity PPP of stations with lengths
in units of 1/sqrt(lambda_b), and scale back only window_radius, so models
with one normalized form give a seeded run the same samples.

Windows.  A cell point y between the unit directions e_k and e_{k+1} has
|y| min(x.e_k, x.e_{k+1}) <= y.x <= |x|^2 / 2, so the circumradius is at most
rho = max_k min_x |x|^2 / (2 min(x.e_k, x.e_{k+1})), over the stations x with
a positive min, and more stations only shrink the cell.  Seen from the
origin a PPP's stations come nearest first: pi |x_k|^2 is a sum of
k unit exponentials and the angles are i.i.d. uniform (Haenggi 2012, ch. 2).
Stations are drawn so, _STAGE1 at a time, until 2 rho is at most the last
one's distance, the drawn radius; beyond it lies a fresh PPP (the arrival
times' strong Markov property).  Users are drawn in b(o, rho) and tested
against the stations within 2 rho, which decide them exactly.
window_radius is the largest radius any realization drew stations to.

SIR far field.  A SIR realization with representative user u draws the
stations exactly out to R = max(drawn, |u| + W') and adds the mean of the
interference beyond R, which Campbell's theorem gives in closed form
(`_far_mean`).  W' (`_sir_window`) is 1.05 times the distance past which the
Rayleigh-faded interference has a standard deviation of at most 1% of the
mean interference from beyond r0 = 0.5; since |x| > |u| + W' implies
|x - u| > W', that holds for every u.  W' is 3.94 at alpha = 3, 2.37 at
alpha = 4 and 1.74 at alpha = 5, so a SIR realization costs about what a
load realization does at every alpha >= 3.

Streams.  Realizations come in streams of _BATCH = 256.  Stream b draws
from a Philox generator keyed by (seed, b) (Salmon et al. 2011) and runs as
one pass on one set of arrays, drawn in full, the last one truncated, so
realization k depends only on (seed, k) and a run of n is a prefix of any
longer run with the same seed.  A SIR run draws its loads as a load run does
and its SIR draws after them.  Workers take contiguous runs of streams and
outputs are concatenated in stream order, so results are bitwise identical
for any parallel_chunks.
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

_BATCH = 256               # realizations per Philox stream, drawn as one pass
_MAX_PARENTS = 2**20       # expected cluster parents a stream may draw
_DIRECTIONS = 32           # wedges of the circumradius bound
_STAGE1 = 8                # station columns per draw round and per power-test stage

# the wedge edges e_0 .. e_{K-1} and e_0 again, as (K + 1, 2)
_EDGES = 2.0 * math.pi / _DIRECTIONS * (np.arange(_DIRECTIONS + 1) % _DIRECTIONS)
_EDGES = np.stack([np.cos(_EDGES), np.sin(_EDGES)], axis=1)


def _sir_window(alpha: float) -> float:
    """W', in units of 1/sqrt(lambda_b): 1.05 times the smallest distance
    beyond which the Rayleigh-faded interference of a unit-intensity PPP has a
    standard deviation, sqrt(2 pi 2 W'^(2 - 2 alpha) / (2 alpha - 2)), of at
    most 1% of the mean interference from beyond r0 = 0.5,
    2 pi r0^(2 - alpha) / (alpha - 2)."""
    share = 1e-4 * 0.5 * math.pi * (alpha - 1.0) / (alpha - 2.0) ** 2
    return 1.05 * 0.5 * share ** (-0.5 / (alpha - 1.0))


def _far_mean(alpha: float, u2: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """Mean of sum_x |x - u|^-alpha over a unit-intensity PPP on |x| > outer,
    for |u|^2 = u2 <= outer^2 / 4 (Campbell's theorem), lengths in units of
    1/sqrt(lambda_b), so the series has no lambda_b factor.  The circle mean
    of |x - u|^-alpha at |x| = r is r^-alpha 2F1(alpha/2, alpha/2; 1; q) with
    q = |u|^2/r^2, so the mean is 2 pi outer^(2 - alpha) sum_k d_k q^k at
    q = u2 / outer^2, d_k = ((alpha/2)_k / k!)^2 / (alpha - 2 + 2k).  Past the
    k where ((alpha/2 + k) / (k + 1))^2 q < 1 the terms fall at least
    geometrically at that ratio; the sum stops at the first k where this bound
    on the tail from k, taken at q = 1/4, is at most 1e-17 of the terms before
    it.  For q <= 1/4 the tail shrinks against the head by (4q)^k, so the
    relative truncation error is at most 1e-17 for every q (28 terms at
    alpha = 3, 31 at alpha = 4, 76 at alpha = 40)."""
    a = 0.5 * alpha
    coef = [1.0 / (alpha - 2.0)]
    at_quarter, head, k = coef[0], 0.0, 0
    while True:
        step = ((a + k) / (k + 1)) ** 2     # bounds d_(j+1) / d_j for every j >= k
        if step < 4.0 and at_quarter <= 1e-17 * head * (1.0 - 0.25 * step):
            break
        head += at_quarter
        coef.append(coef[-1] * step * (alpha - 2.0 + 2.0 * k) / (alpha + 2.0 * k))
        at_quarter = coef[-1] * 0.25 ** (k + 1)
        k += 1
    q = u2 / (outer * outer)
    total = np.full(q.shape, coef[k - 1])
    for d in reversed(coef[:k - 1]):
        total *= q
        total += d
    return 2.0 * math.pi * outer ** (2.0 - alpha) * total


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


def _rng_for(seed: int, stream: int) -> np.random.Generator:
    """The Philox generator of stream `stream` under `seed`.  numpy.random is
    imported here, at the first draw, so analytic commands never load it."""
    from numpy.random import Generator, Philox

    return Generator(Philox(key=np.uint64(seed), counter=stream << 128))


def _norm2(pts: np.ndarray) -> np.ndarray:
    out = pts[:, 0] * pts[:, 0]
    out += pts[:, 1] * pts[:, 1]
    return out


def _owners(counts: np.ndarray) -> np.ndarray:
    """Realization index of every point of a batch grouped by realization."""
    return np.repeat(np.arange(counts.size), counts)


def _annulus(rng: np.random.Generator, n: int, inner, outer) -> np.ndarray:
    """n points uniform in the annulus inner < |x| <= outer, the radii
    scalars or one per point, from n uniforms for the radii and then n for
    the angles: an (n, 2) view whose coordinates are contiguous."""
    u = np.empty((2, n))
    rng.random(out=u[0])
    rng.random(out=u[1])
    u[0] *= outer * outer - inner * inner
    u[0] += inner * inner
    np.sqrt(u[0], out=u[0])
    u[1] *= 2.0 * math.pi
    x = np.cos(u[1])
    np.sin(u[1], out=u[1])
    u[1] *= u[0]
    np.multiply(x, u[0], out=u[0])
    return u.T


def _disc_batch(rng: np.random.Generator, intensity: float, inner, outer, size: int):
    """PPP in the annulus inner < |x| <= outer for `size` independent
    realizations, the radii scalars or one per realization: (n, 2) points
    grouped by realization, and the per-realization counts."""
    counts = rng.poisson(intensity * math.pi * (outer * outer - inner * inner), size)
    inner, outer = (np.repeat(np.broadcast_to(r, size), counts) for r in (inner, outer))
    return _annulus(rng, int(counts.sum()), inner, outer), counts


def _pcp_batch(rng: np.random.Generator, model: UserModel, radius, size: int):
    """Clustered users in b(o, radius) for `size` realizations, the radius a
    scalar or one per realization: (n, 2) points grouped by realization, and
    each point's realization.  Only parents with offspring get a position
    (positions are independent of the counts), so sparse clusters skip most
    parents."""
    radius = np.broadcast_to(radius, size)
    outer = radius + cluster_reach(model)
    per_real = rng.poisson(model.lambda_p * math.pi * outer * outer)
    kids = rng.poisson(model.m_bar, int(per_real.sum()))
    parent = _owners(per_real)[kids > 0]
    kids = kids[kids > 0]
    centres = _annulus(rng, parent.size, 0.0, outer[parent])
    if isinstance(model.kind, Thomas):
        users = rng.standard_normal((int(kids.sum()), 2))
        users *= model.kind.sigma
    else:
        users = _annulus(rng, int(kids.sum()), 0.0, model.kind.radius)
    users += np.repeat(centres, kids, axis=0)
    keep = _norm2(users) <= np.repeat((radius * radius)[parent], kids)
    # the kept users as an (n, 2) view of (2, n) rows, so each coordinate is contiguous
    users = np.ascontiguousarray(np.compress(keep, users, axis=0).T).T
    return users, np.repeat(parent, kids)[keep]


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


def _wedge_reach(cols) -> np.ndarray:
    """Per wedge k and realization, the max of 0 and min(2x.e_k, 2x.e_{k+1}) /
    |x|^2 over the rows of cols = (2x, 2y, |x|^2), (3, rows, realizations),
    as (_DIRECTIONS, realizations); 1 / rho is the min over k, and padding at
    infinity adds 0.  Every operation is elementwise along the realizations,
    so a realization's bits do not depend on the others in the call."""
    reach = np.zeros((_DIRECTIONS, cols.shape[2]))
    for sx, sy, sn2 in zip(*cols):
        dots = np.multiply.outer(_EDGES[:, 0], sx / sn2)
        dots += np.multiply.outer(_EDGES[:, 1], sy / sn2)
        np.maximum(reach, np.minimum(dots[:-1], dots[1:]), out=reach)
    return reach


def _stations(rng: np.random.Generator, size: int):
    """Stations of `size` realizations, nearest first, as (3, columns, size)
    columns (2x, 2y, |x|^2) padded with (0, 0, inf), with each realization's
    drawn radius (its last station's distance) and its span 2 rho <= drawn.
    A round draws the next _STAGE1 stations of the realizations in `grow`:
    pi |x|^2 grows by unit exponentials and the angles are uniform."""
    blocks = []
    reach = np.zeros((_DIRECTIONS, size))
    arrival = np.zeros(size)       # pi |x|^2 of each realization's last station
    span = np.full(size, np.inf)
    grow = np.arange(size)
    while grow.size:
        new = np.empty((3, _STAGE1, grow.size))
        new[2] = arrival[grow] + np.cumsum(rng.standard_exponential(new[2].shape), axis=0)
        arrival[grow] = new[2, -1]
        new[2] /= math.pi
        angle = 2.0 * math.pi * rng.random(new[2].shape)
        twice = 2.0 * np.sqrt(new[2])
        new[0] = twice * np.cos(angle)
        new[1] = twice * np.sin(angle)
        reach[:, grow] = np.maximum(reach[:, grow], _wedge_reach(new))
        worst = reach[:, grow].min(axis=0)
        span[grow] = np.divide(2.0, worst, out=np.full(grow.size, np.inf), where=worst > 0.0)
        block = np.zeros((3, _STAGE1, size))
        block[2] = np.inf
        block[:, :, grow] = new
        blocks.append(block)
        grow = grow[span[grow] > np.sqrt(new[2, -1])]
    return np.concatenate(blocks, axis=1), np.sqrt(arrival / math.pi), span


def _max_power(ux, uy, per_real, cols):
    """Running max over station columns of 2 u.x - |x|^2, with cols holding
    (2x, 2y, |x|^2) as (3, columns, realizations).  Each column is repeated
    over the realizations' users on 1-D arrays, which stay in cache where a
    (users, columns) table would not."""
    peak = np.full(ux.size, -np.inf)
    for sx, sy, sn2 in zip(*cols):
        p = np.repeat(sx, per_real)
        p *= ux
        q = np.repeat(sy, per_real)
        q *= uy
        p += q
        p -= np.repeat(sn2, per_real)
        np.maximum(peak, p, out=peak)
    return peak


def _in_cell(users, owner, cols, near) -> np.ndarray:
    """Indices of the users in their realization's typical cell: the power
    test of `points_in_typical_cell` for a batch grouped by realization,
    against station columns as `_stations` gives them, of which the first
    near[k] decide realization k.  Each stage tests the users still alive
    against the next _STAGE1 columns and drops those with a non-negative
    power; a user whose realization has no deciding station left is in the
    cell.  Exact for any order; near stations first make the first stage
    drop the most."""
    ux = np.ascontiguousarray(users[:, 0])
    uy = np.ascontiguousarray(users[:, 1])
    peak = _max_power(ux, uy, np.bincount(owner, minlength=near.size), cols[:, :_STAGE1])
    alive = np.flatnonzero(peak < 0.0)
    inside = []
    for first in range(_STAGE1, int(near.max(initial=0)), _STAGE1):
        left = near[owner[alive]] > first
        inside.append(alive[~left])
        alive = alive[left]
        peak = _max_power(ux[alive], uy[alive], np.bincount(owner[alive], minlength=near.size),
                          cols[:, first:first + _STAGE1])
        alive = alive[peak < 0.0]
    return np.sort(np.concatenate(inside + [alive]))


def _pass(net, rng, rate_cfg, size: int):
    """Loads, SIR and rate (None for a load run) and window radii of the
    `size` realizations of one stream.  A SIR run draws, after the loads (so
    they match a load run's), for each busy realization the representative
    user, the stations from its drawn radius out to R = |u| + W' (none where
    R is below it) and the fades; the interference beyond R enters by its
    mean, `_far_mean`."""
    cols, drawn, span = _stations(rng, size)
    users, owner = _pcp_batch(rng, net.users, 0.5 * span, size)
    cell = _in_cell(users, owner, cols, np.count_nonzero(cols[2] < span * span, axis=0))
    loads = np.bincount(owner[cell], minlength=size)
    if rate_cfg is None:
        return loads, None, None, drawn

    alpha = rate_cfg.alpha
    busy = np.flatnonzero(loads)
    load = loads[busy]
    rep = users[cell[np.cumsum(load) - load + rng.integers(load)]]
    w2 = _norm2(rep)
    # |x| > |u| + W' lies in |x - u| > W', and |u| <= rho <= drawn / 2 <= R / 2
    window = drawn.copy()
    window[busy] = outer = np.maximum(drawn[busy], np.sqrt(w2) + _sir_window(alpha))
    far, far_per = _disc_batch(rng, 1.0, drawn[busy], outer, busy.size)
    # one list of interferers, one fade each: per realization its stations, then its far field
    col, slot = np.nonzero(np.isfinite(cols[2][:, busy]))
    x = np.concatenate([0.5 * cols[:2, col, busy[slot]].T, far])
    slot = np.concatenate([slot, _owners(far_per)])
    user_fade, fade = np.split(rng.standard_exponential(busy.size + slot.size), [busy.size])
    interference = _far_mean(alpha, w2, outer)
    interference += np.bincount(slot, fade * _norm2(x - rep[slot]) ** (-0.5 * alpha), busy.size)
    s = np.full(busy.size, np.inf)   # a user on the origin or no interference
    ok = (w2 > 0.0) & (interference > 0.0)
    s[ok] = user_fade[ok] * w2[ok] ** (-0.5 * alpha) / interference[ok]
    sir, rate = np.full((2, size), np.nan)
    sir[busy] = s
    rate[busy] = np.minimum(rate_cfg.bandwidth_w / load * np.log2(1.0 + s),
                            rate_cfg.backhaul_rb / load)
    return loads, sir, rate, window


def _walk(net, seed, rate_cfg, streams):
    """The passes of a contiguous run of streams, in order, one per stream."""
    return [_pass(net, _rng_for(seed, b), rate_cfg, _BATCH) for b in streams]


def _stack(parts, size):
    """Concatenate the (loads, sir, rate, drawn) parts field by field and keep
    the first `size` realizations; load runs carry None for sir and rate."""
    return [None if f[0] is None else np.concatenate(f)[:size] for f in zip(*parts)]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _simulate(net, cfg, rate_cfg):
    net = net.normalized()
    reach = cluster_reach(net.users)
    parents = _BATCH * net.users.lambda_p * math.pi * reach * reach   # overflows to inf
    if parents > _MAX_PARENTS:
        raise ConfigurationError(f"a stream of {_BATCH} realizations expects at least {parents:.3g} "
                                 f"cluster parents, more than the bound of {_MAX_PARENTS:,}")
    streams = -(-cfg.realizations // _BATCH)
    per_worker = -(-streams // min(cfg.parallel_chunks, streams, _usable_cpus()))
    runs = [range(a, min(a + per_worker, streams)) for a in range(0, streams, per_worker)]
    job = functools.partial(_walk, net, cfg.seed, rate_cfg)
    if len(runs) == 1:
        parts = job(runs[0])
    else:
        from concurrent.futures import ProcessPoolExecutor   # loaded only when a pool starts

        with ProcessPoolExecutor(max_workers=len(runs)) as pool:
            parts = [p for run in pool.map(job, runs) for p in run]
    return _stack(parts, cfg.realizations)


def run_load_simulation(net: NetworkModel, cfg: SimConfig) -> LoadSimResult:
    """Loads of cfg.realizations independent typical cells."""
    loads, _, _, drawn = _simulate(net, cfg, None)
    return LoadSimResult(loads, float(drawn.max()) / math.sqrt(net.lambda_b))


def check_sir_alpha(alpha: float) -> None:
    """Refuse alpha < 3 for a SIR run.  Its far field beyond |u| + W' enters
    by its mean (W' = 3.94 and 2.37 at alpha = 3 and 4, in units of 1/sqrt(lambda_b)),
    and that rule is checked against `sir_ccdf` at alpha = 3 and 4 only: as
    alpha falls to 2 the interference's mean diverges, so a 1% share of it
    lets W' shrink (0.41 at alpha = 2.01) while its spread grows."""
    if alpha < 3.0:
        raise ConfigurationError("SIR simulation requires alpha >= 3, the range where its "
                                 "far-field window W' is checked against sir_ccdf")


def run_sir_simulation(net: NetworkModel, cfg: SimConfig, rate_cfg: RateConfig) -> SirSimResult:
    """Loads plus representative-user SIR and rate samples (alpha >= 3)."""
    check_sir_alpha(rate_cfg.alpha)
    loads, sir, rate, drawn = _simulate(net, cfg, rate_cfg)
    return SirSimResult(loads, sir, rate, float(drawn.max()) / math.sqrt(net.lambda_b))


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
