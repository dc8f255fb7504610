"""In-memory spans around cellload's layer boundaries, and the per-layer
metrics derived from them.

A span is a dict with id, parent, name, start, end and any attributes the
wrapped call's DESCRIBE function adds.  Times come from
time.perf_counter, which is CLOCK_MONOTONIC on Linux and therefore shared by
every process of a run: spans recorded in a child interpreter nest under the
parent's span without any clock translation.

The tracer wraps public functions at the module attribute their caller looks
up (LAYER_WRAPS); nothing under src/ is edited.  A wrapped attribute must be
the one the caller resolves at call time: `analytic.cluster_cdf`, not
`ppmodel.cluster_cdf`, because analytic imported the name into its own
namespace.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time

# (module, attribute, span name).  The span name is "<layer>.<function>",
# where the layer is the module that defines the function.
LAYER_WRAPS = [
    ("cli", "main", "cli.main"),
    ("analytic", "load_moments", "analytic.load_moments"),
    ("analytic", "ppp_baseline_variance", "analytic.ppp_baseline_variance"),
    ("analytic", "invert_pgf", "analytic.invert_pgf"),
    ("analytic", "dft_invert_pgf", "analytic.dft_invert_pgf"),
    ("analytic", "rate_coverage", "analytic.rate_coverage"),
    ("analytic", "sir_ccdf", "analytic.sir_ccdf"),
    ("analytic", "cluster_cdf", "ppmodel.cluster_cdf"),
    ("analytic", "integrate_finite", "quadrature.integrate_finite"),
    ("quadrature", "tensor_triple", "quadrature.tensor_triple"),
    ("ppmodel", "marcum_q1", "specfun.marcum_q1"),
    ("montecarlo", "run_load_simulation", "montecarlo.run_load_simulation"),
    ("montecarlo", "run_sir_simulation", "montecarlo.run_sir_simulation"),
    ("montecarlo", "sample_pcp", "montecarlo.sample_pcp"),
    ("montecarlo", "points_in_typical_cell", "montecarlo.points_in_typical_cell"),
]


def _size(x) -> int:
    shape = getattr(x, "shape", ())
    return math.prod(shape) if shape else 1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _describe_cluster_cdf(tracer, args, kwargs, out):
    model = _arg(args, kwargs, 0, "model")
    return {"kind": type(model.kind).__name__, "points": _size(out)}


def _describe_marcum(tracer, args, kwargs, out):
    return {"points": _size(out)}


def _describe_tensor(tracer, args, kwargs, out):
    # The E[V^2] kernel integrates theta over [0, pi] on its first axis; the
    # clustering pair-excess integral starts with the radial axis.
    first = _arg(args, kwargs, 1, "bounds")[0]
    role = "ev2" if math.isclose(first[1], math.pi) else "pair_excess"
    return {"role": role, "evals": out.evaluations}


def _describe_invert(tracer, args, kwargs, out):
    # cold: the first inversion of this model in the process, which tabulates
    # the PGF grid; warm: a later one, which reuses it
    net = _arg(args, kwargs, 0, "net")
    cold = net not in tracer.seen_models
    tracer.seen_models.add(net)
    return {"cold": cold, "dft_size": out.dft_size}


def _describe_rate(tracer, args, kwargs, out):
    cfg = _arg(args, kwargs, 1, "cfg")
    return {"capped": math.isfinite(cfg.backhaul_rb)}


def _describe_run(tracer, args, kwargs, out):
    loads = out.loads
    return {"realizations": int(loads.size), "zero_loads": int((loads == 0).sum())}


def _describe_pcp(tracer, args, kwargs, out):
    return {"users": int(out.shape[0])}


def _describe_power(tracer, args, kwargs, out):
    return {"stations": int(_arg(args, kwargs, 1, "stations").shape[0])}


DESCRIBE = {
    "ppmodel.cluster_cdf": _describe_cluster_cdf,
    "specfun.marcum_q1": _describe_marcum,
    "quadrature.tensor_triple": _describe_tensor,
    "analytic.invert_pgf": _describe_invert,
    "analytic.rate_coverage": _describe_rate,
    "montecarlo.run_load_simulation": _describe_run,
    "montecarlo.run_sir_simulation": _describe_run,
    "montecarlo.sample_pcp": _describe_pcp,
    "montecarlo.points_in_typical_cell": _describe_power,
}


class Tracer:
    """Collects spans in memory; `install` wraps the LAYER_WRAPS attributes.

    `enabled` can be switched off to run wrapped code without recording, for
    example around a process pool whose workers' spans would be lost.
    """

    def __init__(self, prefix: str = "s", parent=None):
        self.spans = []
        self.enabled = True
        self._prefix = prefix
        self._count = 0
        self._stack = [parent]
        self._patched = []
        self.seen_models = set()

    def _open(self, name):
        rec = {"id": f"{self._prefix}{self._count}", "parent": self._stack[-1], "name": name,
               "start": time.perf_counter(), "end": None}
        self._count += 1
        self._stack.append(rec["id"])
        return rec

    def _close(self, rec):
        rec["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(rec)

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the block; yields the span id."""
        if not self.enabled:
            yield None
            return
        rec = self._open(name)
        try:
            yield rec["id"]
        finally:
            self._close(rec)

    def wrap(self, module, attr, name):
        fn = getattr(module, attr)
        describe = DESCRIBE.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if describe is not None:
                rec.update(describe(tracer, args, kwargs, out))
            return out

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, fn))

    def install(self):
        """Wrap every LAYER_WRAPS attribute of the imported cellload modules."""
        for mod, attr, name in LAYER_WRAPS:
            self.wrap(importlib.import_module(f"cellload.{mod}"), attr, name)

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of recording one span around a call, in seconds."""
    tracer = Tracer()

    class Box:
        @staticmethod
        def noop(x):
            return x

    plain = Box.noop
    t0 = time.perf_counter()
    for i in range(calls):
        plain(i)
    bare = time.perf_counter() - t0
    tracer.wrap(Box, "noop", "bench.noop")
    wrapped = Box.noop
    t0 = time.perf_counter()
    for i in range(calls):
        wrapped(i)
    traced = time.perf_counter() - t0
    return max(traced - bare, 0.0) / calls


def check_tree(spans) -> list:
    """Problems with the span tree: missing parents, children outside parents."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    for s in spans:
        if s["end"] < s["start"]:
            problems.append(f"{s['id']} ends before it starts")
        parent = s["parent"]
        if parent is None:
            continue
        p = by_id.get(parent)
        if p is None:
            problems.append(f"{s['id']} ({s['name']}) has missing parent {parent}")
        elif s["start"] < p["start"] or s["end"] > p["end"]:
            problems.append(f"{s['id']} ({s['name']}) lies outside its parent {parent}")
    return problems


def layer_metrics(spans) -> dict:
    """Per-layer totals from Tracer.spans.

    Every `_s` metric is the summed inclusive time of the named function's
    spans unless it says `self`; self time subtracts the time of direct
    child spans.  A layer the workload never enters reports 0.
    """
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + dur[s["id"]]

    def pick(name, **attrs):
        return [s for s in spans if s["name"] == name and all(s.get(k) == v for k, v in attrs.items())]

    def incl(name, **attrs):
        return sum(dur[s["id"]] for s in pick(name, **attrs))

    def self_time(name):
        return sum(dur[s["id"]] - child_time.get(s["id"], 0.0) for s in pick(name))

    def total(name, key, **attrs):
        return sum(s[key] for s in pick(name, **attrs))

    mc_runs = pick("montecarlo.run_load_simulation") + pick("montecarlo.run_sir_simulation")
    mc_real = sum(s["realizations"] for s in mc_runs)
    mc_wall = sum(dur[s["id"]] for s in mc_runs)
    pcp = self_time("montecarlo.sample_pcp")
    power = self_time("montecarlo.points_in_typical_cell")
    load_real = total("montecarlo.run_load_simulation", "realizations")
    sir_real = total("montecarlo.run_sir_simulation", "realizations")

    def per(x, n):
        return x / n if n else 0.0

    return {
        "cli.main_self_s": (self_time("cli.main"), "s"),
        "analytic.ev2_fill_s": (incl("quadrature.tensor_triple", role="ev2"), "s"),
        "analytic.load_moments_s": (incl("analytic.load_moments"), "s"),
        "analytic.invert_pgf_cold_s": (incl("analytic.invert_pgf", cold=True), "s"),
        "analytic.invert_pgf_warm_s": (incl("analytic.invert_pgf", cold=False), "s"),
        "analytic.dft_size": (total("analytic.invert_pgf", "dft_size", cold=True), "count"),
        "analytic.rate_coverage_s": (incl("analytic.rate_coverage", capped=False), "s"),
        "analytic.rate_coverage_capped_s": (incl("analytic.rate_coverage", capped=True), "s"),
        "analytic.sir_ccdf_self_s": (self_time("analytic.sir_ccdf"), "s"),
        "analytic.sir_ccdf_calls": (len(pick("analytic.sir_ccdf")), "count"),
        "quadrature.tensor_triple_s": (incl("quadrature.tensor_triple", role="pair_excess"), "s"),
        "quadrature.tensor_triple_evals": (total("quadrature.tensor_triple", "evals"), "count"),
        "quadrature.integrate_finite_s": (incl("quadrature.integrate_finite"), "s"),
        "quadrature.integrate_finite_calls": (len(pick("quadrature.integrate_finite")), "count"),
        "ppmodel.cluster_cdf_tcp_s": (incl("ppmodel.cluster_cdf", kind="Thomas"), "s"),
        "ppmodel.cluster_cdf_mcp_s": (incl("ppmodel.cluster_cdf", kind="Matern"), "s"),
        "ppmodel.cluster_cdf_points": (total("ppmodel.cluster_cdf", "points"), "count"),
        "specfun.marcum_q1_s": (incl("specfun.marcum_q1"), "s"),
        "specfun.marcum_q1_points": (total("specfun.marcum_q1", "points"), "count"),
        "montecarlo.load_realization_us": (
            1e6 * per(incl("montecarlo.run_load_simulation"), load_real), "us"),
        "montecarlo.sir_realization_us": (
            1e6 * per(incl("montecarlo.run_sir_simulation"), sir_real), "us"),
        "montecarlo.sample_pcp_self_s": (pcp, "s"),
        "montecarlo.power_test_self_s": (power, "s"),
        "montecarlo.other_s": (max(mc_wall - pcp - power, 0.0), "s"),
        "montecarlo.users_per_realization": (
            per(total("montecarlo.sample_pcp", "users"), mc_real), "count"),
        "montecarlo.stations_tested_per_realization": (
            per(total("montecarlo.points_in_typical_cell", "stations"), mc_real), "count"),
        "montecarlo.zero_load_frac": (
            per(total("montecarlo.run_load_simulation", "zero_loads"), load_real), "frac"),
    }
