"""Ground-truth simulator of the spatial model under the BS Palm distribution.

Each realization places the typical BS at the origin, draws the other BSs as
a PPP in a disc window, draws the clustered users, and counts the users whose
nearest BS is the origin.  A user u belongs to the typical cell iff no other
BS lies strictly inside b(u, |u|); with stations x this is the power test

    max_x (2 u.x - |x|^2) < 0,

a single matrix product per realization.

Window bookkeeping (all radii scale as 1/sqrt(lambda_b)):

* window_radius W: the BS window.  The typical cell is contained in
  b(o, W/2) except with probability ~ 13 exp(-pi lambda_b W^2 / 16) < 1e-6
  at the enforced minimum (a void-disc bound: a cell reaching y requires an
  empty disc of radius |y|/2 centered at y/2).  Users at distance <= W/2
  are then decided exactly by in-window BSs, since any BS closer to u than
  the origin lies within 2|u| <= W.
* user cutoff: users beyond r_u with lambda_u exp(-pi lambda_b r_u^2) < 1e-7
  contribute that many expected in-cell users and are not sampled; BSs
  beyond 2 r_u cannot exclude a sampled user and are skipped by the power
  test (they still generate interference).

Determinism: realization k uses a counter-based Philox stream derived from
(seed, k), so the realization sequence is identical no matter how the run is
chunked; chunk outputs are concatenated in index order.
"""

from __future__ import annotations

import math
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
    "required_window_radius",
    "sample_ppp",
    "sample_pcp",
    "run_load_simulation",
    "run_sir_simulation",
    "empirical_pmf",
    "empirical_ccdf",
    "tv_distance",
    "points_in_typical_cell",
]

_CELL_MISS_PROB = 1e-6     # bound on P(typical cell not contained in b(o, W/2))
_USER_TAIL = 1e-7          # bound on expected in-cell users beyond the cutoff


def required_window_radius(lambda_b: float) -> float:
    """Smallest window satisfying the cell-containment invariant."""
    return 2.0 * math.sqrt(4.0 * math.log(13.0 / _CELL_MISS_PROB) / (math.pi * lambda_b))


@dataclass(frozen=True)
class SimConfig:
    realizations: int
    seed: int = 0
    window_radius: Optional[float] = None   # None: sized from lambda_b
    parallel_chunks: int = 1

    def __post_init__(self):
        if self.realizations < 1:
            raise ConfigurationError("realizations must be >= 1")
        if self.parallel_chunks < 1:
            raise ConfigurationError("parallel_chunks must be >= 1")
        if self.window_radius is not None and self.window_radius <= 0:
            raise ConfigurationError("window_radius must be positive")

    def resolve_window(self, net: NetworkModel) -> float:
        needed = required_window_radius(net.lambda_b)
        if self.window_radius is None:
            return 1.05 * needed
        if self.window_radius < needed:
            raise ConfigurationError(
                f"window_radius {self.window_radius:.3f} violates the containment "
                f"invariant; need >= {needed:.3f} for lambda_b = {net.lambda_b:g}"
            )
        return self.window_radius


@dataclass(frozen=True)
class LoadSimResult:
    loads: np.ndarray
    window_radius: float
    seed: int


@dataclass(frozen=True)
class SirSimResult:
    loads: np.ndarray
    sir: np.ndarray          # NaN where load = 0
    rate: np.ndarray         # NaN where load = 0
    window_radius: float
    seed: int


def _rng_for(seed: int, index: int) -> Generator:
    return Generator(Philox(key=np.uint64(seed & 0xFFFFFFFFFFFFFFFF), counter=index << 128))


def _disc_points(rng: Generator, intensity: float, radius: float) -> np.ndarray:
    n = rng.poisson(intensity * math.pi * radius * radius)
    r = radius * np.sqrt(rng.random(n))
    phi = rng.random(n) * (2.0 * math.pi)
    pts = np.empty((n, 2))
    np.cos(phi, out=pts[:, 0])
    np.sin(phi, out=pts[:, 1])
    pts *= r[:, None]
    return pts


def sample_ppp(intensity: float, window_radius: float, rng: Generator) -> np.ndarray:
    """Homogeneous PPP in the disc b(o, window_radius); returns (n, 2) points."""
    if intensity < 0:
        raise ConfigurationError("intensity must be non-negative")
    if intensity == 0:
        return np.empty((0, 2))
    return _disc_points(rng, intensity, window_radius)


def sample_pcp(model: UserModel, window_radius: float, rng: Generator) -> np.ndarray:
    """Clustered users restricted to b(o, window_radius).

    Parents are drawn in a window expanded by the cluster reach so that the
    restriction is distributed as the stationary process (Gaussian clusters
    truncated at 6 sigma, tail mass ~1.5e-8).
    """
    parents = _disc_points(rng, model.lambda_p, window_radius + cluster_reach(model))
    counts = rng.poisson(model.m_bar, parents.shape[0])
    total = int(counts.sum())
    users = np.repeat(parents, counts, axis=0)
    if isinstance(model.kind, Thomas):
        users = users + model.kind.sigma * rng.standard_normal((total, 2))
    else:
        rad = model.kind.radius * np.sqrt(rng.random(total))
        ang = rng.random(total) * (2.0 * math.pi)
        users = users + np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    keep = np.einsum("ij,ij->i", users, users) <= window_radius * window_radius
    return users[keep]


def points_in_typical_cell(points: np.ndarray, stations: np.ndarray) -> np.ndarray:
    """Mask of points whose nearest station is the origin BS.

    stations excludes the origin BS itself.  A point u is in the cell iff no
    station is strictly closer to u than the origin, i.e.
    max_x (2 u.x - |x|^2) < 0.
    """
    if points.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    if stations.shape[0] == 0:
        return np.ones(points.shape[0], dtype=bool)
    power = points @ (2.0 * stations.T)
    power -= np.einsum("ij,ij->i", stations, stations)
    return power.max(axis=1) < 0.0


def _user_cutoff(net: NetworkModel, window: float) -> float:
    lam_u = net.users.intensity
    ratio = max(lam_u / net.lambda_b, 1.0) / _USER_TAIL
    cut = math.sqrt(math.log(ratio) / (math.pi * net.lambda_b))
    return min(cut, 0.5 * window)


def _realize(net, window, rng, want_sir, rate_cfg):
    """One realization; the draw order is fixed so that load-only and SIR
    runs see identical loads for the same (seed, index)."""
    stations = _disc_points(rng, net.lambda_b, window)
    cut = _user_cutoff(net, window)
    users = sample_pcp(net.users, cut, rng)
    near = stations[np.einsum("ij,ij->i", stations, stations) <= 4.0 * cut * cut]
    mask = points_in_typical_cell(users, near)
    load = int(np.count_nonzero(mask))

    sir = rate = None
    if want_sir and load > 0:
        u = users[mask][rng.integers(load)]
        fades = rng.standard_exponential(stations.shape[0] + 1)
        w2 = float(u @ u)
        d2 = np.einsum("ij,ij->i", stations - u, stations - u)
        alpha = rate_cfg.alpha
        interference = float(np.dot(fades[1:], d2 ** (-0.5 * alpha)))
        if w2 == 0.0:
            sir = math.inf
        elif interference == 0.0:
            sir = math.inf
        else:
            sir = fades[0] * w2 ** (-0.5 * alpha) / interference
        shannon = rate_cfg.bandwidth_w / load * math.log2(1.0 + sir)
        rate = min(shannon, rate_cfg.backhaul_rb / load)
    return load, sir, rate


def _check_interference_window(net, window, alpha):
    """Mean interference from beyond the window must be < 1% of the in-window
    mean (shot-noise tail 2 pi lambda W^{2-a}/(a-2) against a serving-distance
    reference r0 = 0.5 / sqrt(lambda_b))."""
    if alpha < 3.0:
        raise ConfigurationError("SIR simulation requires alpha >= 3 for window truncation")
    r0 = 0.5 / math.sqrt(net.lambda_b)
    tail = window ** (2.0 - alpha)
    inside = r0 ** (2.0 - alpha) - tail
    if tail / inside >= 0.01:
        raise ConfigurationError(
            f"window_radius {window:.3f} leaves {100 * tail / inside:.2f}% "
            "of the mean interference outside the window"
        )


def _chunk_ranges(total: int, chunks: int):
    base, extra = divmod(total, chunks)
    start = 0
    out = []
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        if size:
            out.append((start, start + size))
        start += size
    return out


def _load_chunk(args):
    net, window, seed, start, stop = args
    loads = np.empty(stop - start, dtype=np.int64)
    for k in range(start, stop):
        rng = _rng_for(seed, k)
        loads[k - start], _, _ = _realize(net, window, rng, False, None)
    return loads


def _sir_chunk(args):
    net, window, seed, start, stop, rate_cfg = args
    loads = np.empty(stop - start, dtype=np.int64)
    sir = np.full(stop - start, np.nan)
    rate = np.full(stop - start, np.nan)
    for k in range(start, stop):
        rng = _rng_for(seed, k)
        load, s, r = _realize(net, window, rng, True, rate_cfg)
        loads[k - start] = load
        if load > 0:
            sir[k - start] = s
            rate[k - start] = r
    return loads, sir, rate


def _map_chunks(worker, jobs, parallel_chunks):
    if parallel_chunks == 1 or len(jobs) == 1:
        return [worker(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=parallel_chunks) as pool:
        return list(pool.map(worker, jobs))


def run_load_simulation(net: NetworkModel, cfg: SimConfig) -> LoadSimResult:
    """Loads of cfg.realizations independent typical cells."""
    window = cfg.resolve_window(net)
    jobs = [
        (net, window, cfg.seed, start, stop)
        for start, stop in _chunk_ranges(cfg.realizations, cfg.parallel_chunks)
    ]
    parts = _map_chunks(_load_chunk, jobs, cfg.parallel_chunks)
    return LoadSimResult(np.concatenate(parts), window, cfg.seed)


def run_sir_simulation(net: NetworkModel, cfg: SimConfig, rate_cfg: RateConfig) -> SirSimResult:
    """Loads plus representative-user SIR and rate samples."""
    window = cfg.resolve_window(net)
    _check_interference_window(net, window, rate_cfg.alpha)
    jobs = [
        (net, window, cfg.seed, start, stop, rate_cfg)
        for start, stop in _chunk_ranges(cfg.realizations, cfg.parallel_chunks)
    ]
    parts = _map_chunks(_sir_chunk, jobs, cfg.parallel_chunks)
    loads = np.concatenate([p[0] for p in parts])
    sir = np.concatenate([p[1] for p in parts])
    rate = np.concatenate([p[2] for p in parts])
    return SirSimResult(loads, sir, rate, window, cfg.seed)


def empirical_pmf(source) -> LoadPmf:
    """Histogram PMF of observed loads (an array or a simulation result);
    probabilities sum to 1 exactly."""
    loads = np.asarray(getattr(source, "loads", source), dtype=np.int64)
    if loads.size == 0:
        raise ConfigurationError("empirical_pmf needs at least one realization")
    counts = np.bincount(loads)
    probs = counts / loads.size
    return LoadPmf(
        probs=probs,
        inversion_radius=1.0,
        dft_size=probs.size,
        raw_sum=float(probs.sum()),
        min_raw=float(probs.min()),
    )


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
