"""Deterministic quadrature: adaptive 1-D integrals and tensor triple integrals.

The 1-D engine is a classic globally-adaptive bisection scheme.  Every interval
is evaluated with a Gauss-Legendre pair (orders 7 and 15); the difference
between the two rules is the local error estimate, and the interval with the
largest estimate is bisected until the global estimate meets the tolerance.
Integrands must accept a numpy array of abscissae and return an array of
values, which keeps the Python overhead per interval small.

Triple integrals over finite boxes use a panel-doubled composite
Gauss-Legendre tensor rule (`tensor_triple`).

Determinism: interval contributions are accumulated in left-endpoint order, so
a given (integrand, spec) pair always produces bit-identical results.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

__all__ = [
    "QuadSpec",
    "IntegrationResult",
    "integrate_finite",
]

# Gauss-Legendre rules as the literals numpy.polynomial.legendre.leggauss(7) and (15)
# return, so that no import loads numpy.polynomial; tests/test_quadrature.py reruns them.
_NODES_LO = np.array([
    -0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0, 0.4058451513773972,
    0.7415311855993945, 0.9491079123427586,
])
_WEIGHTS_LO = np.array([
    0.12948496616886973, 0.27970539148927687, 0.3818300505051187, 0.4179591836734693,
    0.3818300505051187, 0.27970539148927687, 0.12948496616886973,
])
_NODES_HI = np.array([
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272, -0.7244177313601701,
    -0.5709721726085388, -0.3941513470775634, -0.20119409399743451, 0.0,
    0.20119409399743451, 0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.9372733924007058, 0.9879925180204854,
])
_WEIGHTS_HI = np.array([
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141, 0.13957067792615444,
    0.16626920581699398, 0.1861610000155622, 0.1984314853271116, 0.2025782419255613,
    0.1984314853271116, 0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
])


@dataclass(frozen=True)
class QuadSpec:
    """Tolerance and budget for one adaptive integration."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be non-negative")


class _EvalCounter:
    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


def _panel(f, a, b, counter):
    """Evaluate the GL7/GL15 pair on [a, b]; returns (I15, |I15 - I7|)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y_hi = np.asarray(f(mid + half * _NODES_HI), dtype=float)
    y_lo = np.asarray(f(mid + half * _NODES_LO), dtype=float)
    counter.count += _NODES_HI.size + _NODES_LO.size
    i_hi = half * float(np.dot(_WEIGHTS_HI, y_hi))
    i_lo = half * float(np.dot(_WEIGHTS_LO, y_lo))
    return i_hi, abs(i_hi - i_lo)


def integrate_finite(f, a: float, b: float, spec: QuadSpec = QuadSpec()) -> IntegrationResult:
    """Integrate f over [a, b] adaptively.

    f must map a numpy array of points inside (a, b) to an array of values.
    Endpoint singularities are tolerated because the rule nodes are interior.

    Raises ConvergenceError (carrying the best estimate) if the tolerance is
    not reached within spec.max_subdivisions bisections.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("integrate_finite requires finite bounds")
    if a > b:
        raise ValueError("lower bound exceeds upper bound")
    if a == b:
        return IntegrationResult(0.0, 0.0, 0)

    counter = _EvalCounter()
    value, err = _panel(f, a, b, counter)
    heap = [(-err, a, b, value, err)]
    total, total_err = value, err
    converged = total_err <= max(spec.abs_tol, spec.rel_tol * abs(total))
    for _ in range(spec.max_subdivisions):
        if converged:
            break
        _, lo, hi, v_old, e_old = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _panel(f, lo, mid, counter)
        v2, e2 = _panel(f, mid, hi, counter)
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
        total += v1 + v2 - v_old
        total_err += e1 + e2 - e_old
        converged = total_err <= max(spec.abs_tol, spec.rel_tol * abs(total))

    intervals = sorted(heap, key=lambda item: item[1])
    value = float(np.sum([item[3] for item in intervals]))
    error = float(np.sum([item[4] for item in intervals]))
    if not converged:
        raise ConvergenceError(
            f"tolerance not reached after {spec.max_subdivisions} subdivisions "
            f"(error estimate {error:.3e})",
            best_estimate=value,
        )
    return IntegrationResult(value, error, counter.count)


# per-panel rule of the tensor rule below and of the PGF grid in analytic: the literals
# of leggauss(12), rerun like the pair above
_PANEL_X = np.array([
    -0.9815606342467192, -0.9041172563704748, -0.7699026741943047, -0.5873179542866175,
    -0.3678314989981802, -0.1252334085114689, 0.1252334085114689, 0.3678314989981802,
    0.5873179542866175, 0.7699026741943047, 0.9041172563704748, 0.9815606342467192,
])
_PANEL_W = np.array([
    0.04717533638651141, 0.10693932599531907, 0.16007832854334642, 0.20316742672306573,
    0.2334925365383546, 0.2491470458134027, 0.2491470458134027, 0.2334925365383546,
    0.20316742672306573, 0.16007832854334642, 0.10693932599531907, 0.04717533638651141,
])
_SLAB_CAP = 2_000_000      # integrand values per slab of the tensor rule


def _panel_nodes(edges: np.ndarray):
    """Gauss-Legendre nodes and weights of the panels between consecutive
    edges along the last axis, flattened per row."""
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])[..., None]
    half = 0.5 * np.diff(edges)[..., None]
    shape = edges.shape[:-1] + (-1,)
    return (mid + half * _PANEL_X).reshape(shape), (half * _PANEL_W).reshape(shape)


def _tensor3(f, bounds, panels):
    """Fixed composite Gauss-Legendre tensor rule on a 3-D box.

    Evaluates in slabs along the first axis to bound peak memory.
    """
    (x0, w0), (x1, w1), (x2, w2) = (
        _panel_nodes(np.linspace(lo, hi, n + 1)) for (lo, hi), n in zip(bounds, panels)
    )
    plane = x1.size * x2.size
    step = max(1, _SLAB_CAP // plane)
    total = 0.0
    evals = 0
    for start in range(0, x0.size, step):
        sl = slice(start, start + step)
        vals = f(x0[sl, None, None], x1[None, :, None], x2[None, None, :])
        total += np.einsum("i,j,k,ijk->", w0[sl], w1, w2, vals)
        evals += vals.size
    return float(total), evals


def tensor_triple(f, bounds, spec: QuadSpec = QuadSpec(), start_panels=(4, 4, 4)) -> IntegrationResult:
    """Triple integral on a finite box by panel-doubled tensor Gauss-Legendre.

    f must broadcast over three array arguments.  All three panel counts are
    doubled together until successive values agree within the tolerance; the
    last difference is the reported error estimate.  Suited to smooth
    integrands with Gaussian tails, truncated to a finite box.
    """
    for lo, hi in bounds:
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
            raise ValueError("tensor_triple requires finite ordered bounds")
    panels = tuple(start_panels)
    value, evals = _tensor3(f, bounds, panels)
    for _ in range(3):
        panels = tuple(2 * p for p in panels)
        refined, n = _tensor3(f, bounds, panels)
        evals += n
        err = abs(refined - value)
        value = refined
        if err <= max(spec.abs_tol, spec.rel_tol * abs(refined)):
            return IntegrationResult(value, err, evals)
    raise ConvergenceError(
        f"tensor rule did not stabilize (last change {err:.3e})", best_estimate=value
    )
