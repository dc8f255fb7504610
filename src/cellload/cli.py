"""Command-line interface.

Subcommands
-----------
moments   analytic mean/second moment/variance (+ NB fit), optional MC check
pmf       load PMF of the PGF approximation, optional empirical PMF and TV distance
rate      rate-coverage curve over a threshold grid, optional MC check
simulate  Monte Carlo only; summary plus optional raw sample dump
compare   analytic vs MC with pass/fail gates (exit 4 on failure)

Units at this boundary are km and km^-2; bandwidth in Hz, rates in bps.
Every report is JSON (default) or CSV; fixed seeds make MC-bearing output
byte-for-byte reproducible.

Exit codes: 0 success, 2 validation error, 3 quadrature convergence error,
4 comparison failure.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import os
import sys
import types
from typing import Optional

import numpy as np

from . import analytic
from .analytic import RateConfig
from .errors import CellLoadError, ConfigurationError, ConvergenceError, DomainError
from .ppmodel import Matern, NetworkModel, Thomas, UserModel

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_COMPARISON = 4


# ---------------------------------------------------------------------------
# Report records: a `report` tag and the fields REPORT_FIELDS lists for it
# ---------------------------------------------------------------------------

# tag -> (required fields, optional fields); an optional field is None unless given
REPORT_FIELDS = {
    "moments": (("model", "mean", "second_moment", "variance", "normalized_variance"),
                ("nb_fit", "mc")),
    "pmf": (("model", "probs", "tail_mass"), ("empirical", "tv_distance")),
    "rate": (("model", "rate", "thresholds", "coverage"), ("empirical", "max_abs_gap")),
    "simulate": (("model", "realizations", "seed", "window_radius", "mean_load", "variance_load",
                  "normalized_variance", "empirical_pmf"), ("sir_thresholds", "sir_ccdf")),
    "compare": (("model", "realizations", "seed", "checks", "passed"), ()),
}


class Report(types.SimpleNamespace):
    """One report: its `report` tag and the fields REPORT_FIELDS lists for that tag.  A report
    built by a command and one parsed from JSON pass the same check of the tag and fields."""

    def __init__(self, /, report=None, **fields):
        if report not in REPORT_FIELDS:
            raise ConfigurationError(
                f"unknown report type {report!r}, expected one of {sorted(REPORT_FIELDS)}")
        required, optional = REPORT_FIELDS[report]
        unknown = fields.keys() - {*required, *optional}
        missing = set(required) - fields.keys()
        if unknown or missing:
            raise ConfigurationError(f"{report} report: unknown fields {sorted(unknown)}, "
                                     f"missing fields {sorted(missing)}")
        super().__init__(report=report, **{**dict.fromkeys(optional), **fields})


def parse_report(text: str) -> Report:
    """Parse a JSON report back into a Report."""
    d = json.loads(text)
    return Report(**d) if isinstance(d, dict) else Report()


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

def _model_flags(p: argparse.ArgumentParser):
    p.add_argument("--kind", choices=("tcp", "mcp"), required=True,
                   help="cluster kernel: tcp (Gaussian) or mcp (uniform disc)")
    p.add_argument("--lambda-b", type=float, required=True, help="BS density, km^-2")
    p.add_argument("--lambda-p", type=float, required=True, help="parent density, km^-2")
    p.add_argument("--mbar", type=float, required=True, help="mean users per cluster")
    p.add_argument("--sigma", type=float, help="tcp cluster std deviation, km")
    p.add_argument("--cluster-radius", type=float, help="mcp cluster disc radius, km")


def _mc_flags(p: argparse.ArgumentParser, realizations: int):
    p.add_argument("--realizations", type=int, default=realizations)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--parallel-chunks", type=int, default=1)


def _rate_flags(p: argparse.ArgumentParser, thresholds: bool = True):
    p.add_argument("--alpha", type=float, default=4.0, help="pathloss exponent (> 2)")
    p.add_argument("--bandwidth", type=float, default=1e6, help="system bandwidth W, Hz")
    p.add_argument("--backhaul", type=float, default=math.inf, help="backhaul cap R_b, bps")
    if thresholds:
        p.add_argument("--thresholds", type=str, default=None,
                       help="comma-separated rate thresholds in bps (default: log grid)")


def _out_flags(p: argparse.ArgumentParser):
    p.add_argument("--out", type=str, default=None, help="write report to this path")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellload",
        description="Typical-cell load distribution and rate coverage for clustered users",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="analytic load moments and NB fit")
    _model_flags(p); _out_flags(p)
    p.add_argument("--mc", action="store_true", help="append Monte Carlo estimates")
    _mc_flags(p, 10_000)

    p = sub.add_parser("pmf", help="load PMF of the PGF approximation")
    _model_flags(p); _out_flags(p)
    p.add_argument("--mc", action="store_true", help="append the empirical PMF")
    _mc_flags(p, 20_000)

    p = sub.add_parser("rate", help="downlink rate coverage over a threshold grid")
    _model_flags(p); _rate_flags(p); _out_flags(p)
    p.add_argument("--mc", action="store_true", help="append the empirical rate CCDF")
    _mc_flags(p, 20_000)

    p = sub.add_parser("simulate", help="Monte Carlo only")
    _model_flags(p); _out_flags(p)
    p.add_argument("--with-sir", action="store_true", help="also sample SIR and rate")
    _rate_flags(p, thresholds=False)
    p.add_argument("--raw-out", type=str, default=None,
                   help="CSV dump of (realization_index, load, sir, rate)")
    _mc_flags(p, 10_000)

    p = sub.add_parser("compare", help="analytic vs Monte Carlo with pass/fail gates")
    _model_flags(p); _rate_flags(p); _out_flags(p)
    p.add_argument("--with-rate", action="store_true", help="include the rate-coverage gate")
    p.add_argument("--tv-tolerance", type=float, default=0.05)
    p.add_argument("--variance-tolerance", type=float, default=0.05)
    p.add_argument("--rate-tolerance", type=float, default=0.05)
    _mc_flags(p, 20_000)

    return parser


def build_network(args) -> NetworkModel:
    if args.kind == "tcp":
        if args.sigma is None:
            raise ConfigurationError("sigma is required for --kind tcp")
        kind = Thomas(args.sigma)
    else:
        if args.cluster_radius is None:
            raise ConfigurationError("cluster-radius is required for --kind mcp")
        kind = Matern(args.cluster_radius)
    return NetworkModel(args.lambda_b, UserModel(args.lambda_p, args.mbar, kind))


def _model_dict(args) -> dict:
    d = {
        "kind": args.kind,
        "lambda_b": args.lambda_b,
        "lambda_p": args.lambda_p,
        "mbar": args.mbar,
    }
    if args.kind == "tcp":
        d["sigma"] = args.sigma
    else:
        d["cluster_radius"] = args.cluster_radius
    return d


def _rate_config(args) -> RateConfig:
    return RateConfig(alpha=args.alpha, bandwidth_w=args.bandwidth, backhaul_rb=args.backhaul)


def _threshold_grid(args) -> list:
    """The rate grid of `--thresholds`, else 13 log-spaced rates from 0.02 W to 2 W."""
    if args.thresholds is None:
        return [float(t) for t in np.geomspace(0.02 * args.bandwidth, 2.0 * args.bandwidth, 13)]
    try:
        grid = [float(t) for t in args.thresholds.split(",")]
    except ValueError:
        grid = None
    if grid is None or not all(0 < t < math.inf for t in grid):
        raise ConfigurationError(
            f"--thresholds must be comma-separated finite positive numbers, got {args.thresholds!r}"
        )
    return grid


def _simulation(args, net: NetworkModel, rate_cfg: Optional[RateConfig] = None):
    """The command's Monte Carlo run (loads, or SIR and rate under `rate_cfg`), its
    options checked now, before any analytic work; calling the result runs it."""
    from . import montecarlo   # the simulator loads only for commands that simulate

    cfg = montecarlo.SimConfig(realizations=args.realizations, seed=args.seed,
                               parallel_chunks=args.parallel_chunks)
    if rate_cfg is None:
        return lambda: montecarlo.run_load_simulation(net, cfg)
    montecarlo.check_sir_alpha(rate_cfg.alpha)
    return lambda: montecarlo.run_sir_simulation(net, cfg, rate_cfg)


def _ccdf(samples: np.ndarray, grid: list) -> Optional[list]:
    """Empirical CCDF over the realizations with load > 0 (None when there are none)."""
    from . import montecarlo

    if np.isnan(samples).all():
        return None
    return [float(p) for p in montecarlo.empirical_ccdf(samples, grid)]


def _sample_stats(loads: np.ndarray) -> dict:
    """Mean and variance of sampled loads with their standard errors, and
    variance / mean^2 (None when every cell was empty)."""
    loads = loads.astype(float)
    mean, var = float(loads.mean()), float(loads.var())
    return {
        "mean": mean,
        "mean_stderr": float(loads.std() / math.sqrt(loads.size)),
        "variance": var,
        "variance_stderr": math.sqrt(max(np.mean((loads - mean)**4) - var**2, 0.0) / loads.size),
        "normalized_variance": var / mean**2 if mean > 0 else None,
    }


# ---------------------------------------------------------------------------
# Reports: each takes the analytic result and, for an MC check, a simulation
# ---------------------------------------------------------------------------

def _moments_report(args, m: analytic.LoadMoments, res=None) -> Report:
    try:
        nb = analytic.nb_fit(m)
        nb_dict = {"r": nb.r, "t": nb.t}
    except CellLoadError:
        nb_dict = None
    return Report(
        "moments",
        model=_model_dict(args),
        mean=m.mean,
        second_moment=m.second_moment,
        variance=m.variance,
        normalized_variance=m.variance / m.mean**2,
        nb_fit=nb_dict,
        mc=None if res is None else {"realizations": args.realizations, "seed": args.seed,
                                     **_sample_stats(res.loads)},
    )


def _pmf_report(args, pmf: analytic.LoadPmf, res=None) -> Report:
    report = Report(
        "pmf",
        model=_model_dict(args),
        probs=[float(p) for p in pmf.probs],
        tail_mass=pmf.tail_mass(),
    )
    if res is not None:
        from . import montecarlo

        emp = montecarlo.empirical_pmf(res)
        report.empirical = [float(p) for p in emp.probs]
        report.tv_distance = montecarlo.tv_distance(pmf, emp)
    return report


def _rate_report(args, net, cfg: RateConfig, grid: list, pmf, res=None) -> Report:
    coverage = [analytic.rate_coverage(net, cfg, pmf, rho) for rho in grid]
    report = Report(
        "rate",
        model=_model_dict(args),
        rate={"alpha": cfg.alpha, "bandwidth_w": cfg.bandwidth_w,
              "backhaul_rb": cfg.backhaul_rb if math.isfinite(cfg.backhaul_rb) else "inf"},
        thresholds=grid,
        coverage=coverage,
    )
    report.empirical = None if res is None else _ccdf(res.rate, grid)
    if report.empirical is not None:
        report.max_abs_gap = float(np.max(np.abs(np.array(report.empirical) - coverage)))
    return report


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_moments(args):
    net = build_network(args)
    run = _simulation(args, net) if args.mc else None
    m = analytic.load_moments(net)
    return _moments_report(args, m, run() if run else None), EXIT_OK


def cmd_pmf(args):
    net = build_network(args)
    run = _simulation(args, net) if args.mc else None
    pmf = analytic.load_pmf(net)
    return _pmf_report(args, pmf, run() if run else None), EXIT_OK


def cmd_rate(args):
    net = build_network(args)
    cfg, grid = _rate_config(args), _threshold_grid(args)
    run = _simulation(args, net, cfg) if args.mc else None
    pmf = analytic.load_pmf(net)
    return _rate_report(args, net, cfg, grid, pmf, run() if run else None), EXIT_OK


def cmd_simulate(args):
    from . import montecarlo

    net = build_network(args)
    cfg = _rate_config(args)
    res = _simulation(args, net, cfg if args.with_sir else None)()
    taus = [0.1, 1.0, 10.0] if args.with_sir else None
    stats = _sample_stats(res.loads)
    report = Report(
        "simulate",
        model=_model_dict(args),
        realizations=args.realizations,
        seed=args.seed,
        window_radius=res.window_radius,
        mean_load=stats["mean"],
        variance_load=stats["variance"],
        normalized_variance=stats["normalized_variance"],
        empirical_pmf=[float(p) for p in montecarlo.empirical_pmf(res).probs],
        sir_thresholds=taus,
        sir_ccdf=taus and _ccdf(res.sir, taus),
    )
    if args.raw_out:
        blank = np.full(res.loads.size, np.nan)
        sir, rate = (res.sir, res.rate) if args.with_sir else (blank, blank)
        with open(args.raw_out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["realization_index", "load", "sir", "rate"])
            writer.writerows(
                (i, int(l), "" if np.isnan(s) else repr(float(s)), "" if np.isnan(r) else repr(float(r)))
                for i, (l, s, r) in enumerate(zip(res.loads, sir, rate))
            )
    return report, EXIT_OK


def _gate(report: Report, name: str, value: Optional[float], tolerance: float) -> None:
    """Add the check `value <= tolerance` to a compare report; an undefined (None) value fails."""
    ok = value is not None and bool(value <= tolerance)
    report.checks.append({"check": name, "value": value, "tolerance": tolerance, "pass": ok})
    report.passed = report.passed and ok


def cmd_compare(args):
    """Gate the moments, pmf and (with --with-rate) rate reports built on one run."""
    net = build_network(args)
    cfg, grid = _rate_config(args), _threshold_grid(args)
    for name in ("tv", "variance", "rate"):
        if not 0 <= getattr(args, f"{name}_tolerance") < math.inf:
            raise ConfigurationError(f"--{name}-tolerance must be finite and >= 0")
    run = _simulation(args, net, cfg if args.with_rate else None)
    m, pmf, res = analytic.load_moments(net), analytic.load_pmf(net), run()
    moments, dist = _moments_report(args, m, res), _pmf_report(args, pmf, res)
    mc = moments.mc
    report = Report("compare", model=_model_dict(args), realizations=args.realizations,
                    seed=args.seed, checks=[], passed=True)
    _gate(report, "mean_within_3_stderr", abs(moments.mean - mc["mean"]), 3.0 * mc["mean_stderr"])
    nv = mc["normalized_variance"]
    # undefined when the sample has no spread to compare against
    _gate(report, "normalized_variance_rel_error",
          abs(moments.normalized_variance - nv) / nv if nv else None, args.variance_tolerance)
    _gate(report, "pmf_tv_distance", dist.tv_distance, args.tv_tolerance)
    if args.with_rate:
        _gate(report, "rate_ccdf_max_abs_gap",
              _rate_report(args, net, cfg, grid, pmf, res).max_abs_gap, args.rate_tolerance)
    return report, (EXIT_OK if report.passed else EXIT_COMPARISON)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def render_json(report: Report) -> str:
    return json.dumps(vars(report), indent=2, sort_keys=True, allow_nan=False)


def _csv_table(d: dict):
    """The header and the rows of a report dict's CSV rendering."""
    if d["report"] == "compare":
        return (["check", "value", "tolerance", "pass"],
                [[c["check"], repr(c["value"]), repr(c["tolerance"]), c["pass"]] for c in d["checks"]])
    if d["report"] == "pmf":
        header, cols = ["n", "analytic"], [range(len(d["probs"])), d["probs"]]
    elif d["report"] == "rate":
        header, cols = ["threshold_bps", "coverage"], [d["thresholds"], d["coverage"]]
    else:
        skip = ("report", "probs", "empirical_pmf", "checks")
        return ["key", "value"], [[k, json.dumps(v, sort_keys=True)]
                                  for k, v in sorted(d.items()) if k not in skip]
    emp = d.get("empirical")
    if emp:  # an empirical PMF shorter than the analytic one is padded with zeros
        header, cols = header + ["empirical"], cols + [emp + [0.0] * (len(cols[0]) - len(emp))]
    return header, [[repr(v) for v in row] for row in zip(*cols)]


def render_csv(report: Report) -> str:
    header, rows = _csv_table(vars(report))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def emit(report, args) -> None:
    text = render_json(report) + "\n" if args.format == "json" else render_csv(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_writable(args) -> None:
    """Refuse an --out or --raw-out path that cannot be written, before any work."""
    for flag, path in (("--out", args.out), ("--raw-out", getattr(args, "raw_out", None))):
        if path is None:
            continue
        folder = os.path.dirname(path) or "."
        target = path if os.path.exists(path) else folder
        if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(target, os.W_OK):
            raise ConfigurationError(f"{flag} {path!r} is not a writable file path")


COMMANDS = {
    "moments": cmd_moments,
    "pmf": cmd_pmf,
    "rate": cmd_rate,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_writable(args)
        report, code = COMMANDS[args.command](args)
    except ConvergenceError as err:
        print(f"convergence error: {err}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (DomainError, ConfigurationError) as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except CellLoadError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    emit(report, args)
    return code


def run() -> int:
    """Program entry of `python -m cellload.cli` and the `cellload` script: `main()` on a
    frozen start-up heap.  gc.freeze() moves every object alive after the imports, numpy's
    included, into the permanent generation, which the collections at interpreter exit
    skip; in-process callers of `main(argv)` keep their collector as it is."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
