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

_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(7)
_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(15)


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


def _tensor3(f, bounds, panels, order=12, slab_cap=2_000_000):
    """Fixed composite Gauss-Legendre tensor rule on a 3-D box.

    Evaluates in slabs along the first axis to bound peak memory.
    """
    axes = []
    for (lo, hi), n in zip(bounds, panels):
        x, w = _panel_grid(lo, hi, n, order)
        axes.append((x, w))
    (x0, w0), (x1, w1), (x2, w2) = axes
    plane = x1.size * x2.size
    step = max(1, slab_cap // plane)
    total = 0.0
    evals = 0
    for start in range(0, x0.size, step):
        sl = slice(start, start + step)
        vals = f(x0[sl, None, None], x1[None, :, None], x2[None, None, :])
        total += np.einsum("i,j,k,ijk->", w0[sl], w1, w2, vals)
        evals += vals.size
    return float(total), evals


def _panel_grid(lo, hi, n_panels, order):
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


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
