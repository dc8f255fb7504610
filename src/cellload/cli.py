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
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from typing import ClassVar, Optional

import numpy as np

from . import analytic, montecarlo
from .analytic import RateConfig
from .errors import CellLoadError, ConfigurationError, ConvergenceError, DomainError
from .montecarlo import SimConfig
from .ppmodel import Matern, NetworkModel, Thomas, UserModel

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_COMPARISON = 4


# ---------------------------------------------------------------------------
# Report records (JSON round-trip supported via from_dict)
# ---------------------------------------------------------------------------

class _Report:
    """JSON round trip of a report record; `report` is the tag that names its type."""

    report: ClassVar[str]

    def to_dict(self) -> dict:
        return {"report": self.report, **asdict(self)}

    @classmethod
    def from_dict(cls, d: dict):
        return cls(**{k: v for k, v in d.items() if k != "report"})


@dataclass
class MomentsReport(_Report):
    report = "moments"
    model: dict
    mean: float
    second_moment: float
    variance: float
    normalized_variance: float
    nb_fit: Optional[dict] = None
    mc: Optional[dict] = None


@dataclass
class PmfReport(_Report):
    report = "pmf"
    model: dict
    probs: list
    tail_mass: float
    empirical: Optional[list] = None
    tv_distance: Optional[float] = None


@dataclass
class RateReport(_Report):
    report = "rate"
    model: dict
    rate: dict
    thresholds: list
    coverage: list
    empirical: Optional[list] = None
    max_abs_gap: Optional[float] = None


@dataclass
class SimulateReport(_Report):
    report = "simulate"
    model: dict
    realizations: int
    seed: int
    window_radius: float
    mean_load: float
    variance_load: float
    normalized_variance: Optional[float]
    empirical_pmf: list
    sir_thresholds: Optional[list] = None
    sir_ccdf: Optional[list] = None


@dataclass
class CompareReport(_Report):
    report = "compare"
    model: dict
    realizations: int
    seed: int
    checks: list = field(default_factory=list)
    passed: bool = True

    def add(self, name: str, value: Optional[float], tolerance: float, ok: bool):
        self.checks.append(
            {"check": name, "value": value, "tolerance": tolerance, "pass": bool(ok)}
        )
        self.passed = self.passed and ok


REPORT_TYPES = {
    cls.report: cls
    for cls in (MomentsReport, PmfReport, RateReport, SimulateReport, CompareReport)
}


def parse_report(text: str):
    """Parse a JSON report back into its emitting record type."""
    d = json.loads(text)
    return REPORT_TYPES[d["report"]].from_dict(d)


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


def _rate_flags(p: argparse.ArgumentParser):
    p.add_argument("--alpha", type=float, default=4.0, help="pathloss exponent (> 2)")
    p.add_argument("--bandwidth", type=float, default=1e6, help="system bandwidth W, Hz")
    p.add_argument("--backhaul", type=float, default=math.inf, help="backhaul cap R_b, bps")
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
    _rate_flags(p)
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


def _sim_config(args) -> SimConfig:
    return SimConfig(
        realizations=args.realizations,
        seed=args.seed,
        parallel_chunks=args.parallel_chunks,
    )


def _rate_config(args, thresholds=()) -> RateConfig:
    return RateConfig(
        alpha=args.alpha,
        bandwidth_w=args.bandwidth,
        backhaul_rb=args.backhaul,
        thresholds=thresholds,
    )


def _threshold_grid(args) -> list:
    if args.thresholds:
        try:
            return [float(t) for t in args.thresholds.split(",")]
        except ValueError:
            raise ConfigurationError(
                f"--thresholds must be comma-separated numbers, got {args.thresholds!r}"
            ) from None
    lo, hi = 0.02 * args.bandwidth, 2.0 * args.bandwidth
    return [float(t) for t in np.geomspace(lo, hi, 13)]


def _normalized_variance(loads: np.ndarray) -> Optional[float]:
    """Sample variance / mean^2 of the loads; None when every cell was empty."""
    mean = float(loads.mean())
    return float(loads.var()) / mean**2 if mean > 0 else None


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_moments(args):
    net = build_network(args)
    m = analytic.load_moments(net)
    try:
        nb = analytic.nb_fit(m)
        nb_dict = {"r": nb.r, "t": nb.t}
    except CellLoadError:
        nb_dict = None
    report = MomentsReport(
        model=_model_dict(args),
        mean=m.mean,
        second_moment=m.second_moment,
        variance=m.variance,
        normalized_variance=m.variance / m.mean**2,
        nb_fit=nb_dict,
    )
    if args.mc:
        res = montecarlo.run_load_simulation(net, _sim_config(args))
        loads = res.loads.astype(float)
        mean = float(loads.mean())
        var = float(loads.var())
        dev = loads - mean
        report.mc = {
            "realizations": args.realizations,
            "seed": args.seed,
            "mean": mean,
            "mean_stderr": float(loads.std() / math.sqrt(loads.size)),
            "variance": var,
            "variance_stderr": float(
                math.sqrt(max(np.mean(dev**4) - var**2, 0.0) / loads.size)
            ),
            "normalized_variance": _normalized_variance(loads),
        }
    return report, EXIT_OK


def cmd_pmf(args):
    net = build_network(args)
    pmf = analytic.load_pmf(net)
    report = PmfReport(
        model=_model_dict(args),
        probs=[float(p) for p in pmf.probs],
        tail_mass=pmf.tail_mass(),
    )
    if args.mc:
        res = montecarlo.run_load_simulation(net, _sim_config(args))
        emp = montecarlo.empirical_pmf(res)
        report.empirical = [float(p) for p in emp.probs]
        report.tv_distance = montecarlo.tv_distance(pmf, emp)
    return report, EXIT_OK


def cmd_rate(args):
    net = build_network(args)
    grid = _threshold_grid(args)
    cfg = _rate_config(args, grid)
    pmf = analytic.load_pmf(net)
    coverage = [analytic.rate_coverage(net, cfg, pmf, rho) for rho in grid]
    report = RateReport(
        model=_model_dict(args),
        rate={"alpha": cfg.alpha, "bandwidth_w": cfg.bandwidth_w,
              "backhaul_rb": cfg.backhaul_rb if math.isfinite(cfg.backhaul_rb) else "inf"},
        thresholds=grid,
        coverage=coverage,
    )
    if args.mc:
        res = montecarlo.run_sir_simulation(net, _sim_config(args), cfg)
        emp = montecarlo.empirical_ccdf(res.rate, grid)
        report.empirical = [float(p) for p in emp]
        report.max_abs_gap = float(np.max(np.abs(emp - np.array(coverage))))
    return report, EXIT_OK


def cmd_simulate(args):
    net = build_network(args)
    cfg = _sim_config(args)
    if args.with_sir:
        res = montecarlo.run_sir_simulation(net, cfg, _rate_config(args))
        taus = [0.1, 1.0, 10.0]
        sir_ccdf = [float(p) for p in montecarlo.empirical_ccdf(res.sir, taus)]
    else:
        res = montecarlo.run_load_simulation(net, cfg)
        taus = sir_ccdf = None
    loads = res.loads.astype(float)
    emp = montecarlo.empirical_pmf(res)
    report = SimulateReport(
        model=_model_dict(args),
        realizations=args.realizations,
        seed=args.seed,
        window_radius=res.window_radius,
        mean_load=float(loads.mean()),
        variance_load=float(loads.var()),
        normalized_variance=_normalized_variance(loads),
        empirical_pmf=[float(p) for p in emp.probs],
        sir_thresholds=taus,
        sir_ccdf=sir_ccdf,
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


def cmd_compare(args):
    net = build_network(args)
    report = CompareReport(model=_model_dict(args), realizations=args.realizations, seed=args.seed)

    moments = analytic.load_moments(net)
    pmf = analytic.load_pmf(net)

    grid = _threshold_grid(args)
    cfg = _rate_config(args, grid)
    if args.with_rate:
        res = montecarlo.run_sir_simulation(net, _sim_config(args), cfg)
    else:
        res = montecarlo.run_load_simulation(net, _sim_config(args))
    loads = res.loads.astype(float)
    emp = montecarlo.empirical_pmf(res)

    mean_mc = float(loads.mean())
    se = float(loads.std() / math.sqrt(loads.size))
    report.add("mean_within_3_stderr", abs(moments.mean - mean_mc), 3.0 * se,
               abs(moments.mean - mean_mc) <= 3.0 * se)

    nv_ana = moments.variance / moments.mean**2
    nv_mc = _normalized_variance(loads)
    # undefined when the sample has no spread to compare against
    rel = abs(nv_ana - nv_mc) / nv_mc if nv_mc else None
    report.add("normalized_variance_rel_error", rel, args.variance_tolerance,
               rel is not None and rel <= args.variance_tolerance)

    tv = montecarlo.tv_distance(pmf, emp)
    report.add("pmf_tv_distance", tv, args.tv_tolerance, tv <= args.tv_tolerance)

    if args.with_rate:
        coverage = np.array([analytic.rate_coverage(net, cfg, pmf, rho) for rho in grid])
        emp_rate = montecarlo.empirical_ccdf(res.rate, grid)
        gap = float(np.max(np.abs(coverage - emp_rate)))
        report.add("rate_ccdf_max_abs_gap", gap, args.rate_tolerance,
                   gap <= args.rate_tolerance)

    return report, (EXIT_OK if report.passed else EXIT_COMPARISON)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def render_json(report) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False)


def _csv_rows(report):
    d = report.to_dict()
    kind = d["report"]
    if kind == "pmf":
        header = ["n", "analytic"] + (["empirical"] if d.get("empirical") else [])
        emp = d.get("empirical") or []
        for n, p in enumerate(d["probs"]):
            row = [n, repr(p)]
            if emp:
                row.append(repr(emp[n]) if n < len(emp) else "0.0")
            yield header, row
    elif kind == "rate":
        header = ["threshold_bps", "coverage"] + (["empirical"] if d.get("empirical") else [])
        for i, t in enumerate(d["thresholds"]):
            row = [repr(t), repr(d["coverage"][i])]
            if d.get("empirical"):
                row.append(repr(d["empirical"][i]))
            yield header, row
    elif kind == "compare":
        header = ["check", "value", "tolerance", "pass"]
        for c in d["checks"]:
            yield header, [c["check"], repr(c["value"]), repr(c["tolerance"]), c["pass"]]
    else:
        header = ["key", "value"]
        for k, v in sorted(d.items()):
            if k in ("report", "probs", "empirical_pmf", "checks"):
                continue
            yield header, [k, json.dumps(v, sort_keys=True)]


def render_csv(report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header_written = False
    for header, row in _csv_rows(report):
        if not header_written:
            writer.writerow(header)
            header_written = True
        writer.writerow(row)
    return buf.getvalue()


def emit(report, args) -> None:
    text = render_json(report) if args.format == "json" else render_csv(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


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


if __name__ == "__main__":
    sys.exit(main())
