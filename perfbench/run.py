#!/usr/bin/env python3
"""cellload benchmark: checked workloads, one result line per run.

BENCHMARK.json lists cli-cold and mc-sample; analytic-sweep runs by hand
(perfbench/NOTES.md says why).

Run from the repository root:

    python3 perfbench/run.py --workload {cli-cold,analytic-sweep,mc-sample} \
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0,
the per-layer metrics with --trace 1.  The lines above it are the readable
report: machine, measurement limits, every metric under its descriptive name,
each correctness check and the output fingerprints.  The same report, plus
the spans of a traced run, is written to .perfbench_out/.  perfbench/NOTES.md
defines every metric.

cellload is imported from ./src only; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))
CHILD_TIMEOUT_S = 170
SETUP_PROBES = 3

# The paper-figure model: lambda_b = 1, lambda_p = 5, m_bar = 5, Thomas sigma = 0.05.
PAPER_ARGV = ["--kind", "tcp", "--lambda-b", "1", "--lambda-p", "5", "--mbar", "5", "--sigma", "0.05"]
SMALL_MCP_ARGV = ["--kind", "mcp", "--lambda-b", "1", "--lambda-p", "5", "--mbar", "5",
                  "--cluster-radius", "0.1", "--dft-size", "64"]
CLI_COMMANDS = {
    "full": [("moments", PAPER_ARGV), ("pmf", PAPER_ARGV), ("rate", PAPER_ARGV)],
    "tiny": [("moments", PAPER_ARGV), ("pmf", SMALL_MCP_ARGV),
             ("rate", SMALL_MCP_ARGV + ["--thresholds", "1e5,1e6"])],
}
# Each command's cold time is one sample per process, and host contention moves
# a single sample by up to 40%.  `pmf` and `rate` run in every pass, so their
# figures are medians of three; `moments` runs in the first pass only, since
# its longer process already averages over more of the drift.
CLI_PASSES = {"full": 3, "tiny": 1}
# Seed reference of `cellload moments` on the paper-figure model.
PAPER_MEAN = 25.0
PAPER_VARIANCE = 311.3588525

# (label, lambda_p, m_bar, kind, scale) with lambda_b = 1.
SWEEP_MODELS = {
    "full": [("tcp-0.05", 5.0, 5.0, "tcp", 0.05), ("mcp-0.1", 5.0, 5.0, "mcp", 0.1),
             ("tcp-0.1", 5.0, 10.0, "tcp", 0.1), ("mcp-0.2", 5.0, 10.0, "mcp", 0.2)],
    "tiny": [("mcp-0.1", 5.0, 5.0, "mcp", 0.1)],
}
# The CLI's default rate grid: 13 thresholds from 0.02 W to 2 W, W = 1 MHz.
SWEEP_THRESHOLDS = {"full": 13, "tiny": 3}
BANDWIDTH = 1e6
CAPPED_BACKHAUL = 2e6

MC_REALIZATIONS = {"full": 4000, "tiny": 100}
MC_WARMUP = ("from cellload import NetworkModel, UserModel, Thomas, SimConfig, run_load_simulation\n"
             "run_load_simulation(NetworkModel(1.0, UserModel(5.0, 5.0, Thomas(0.05))), SimConfig(50))")

LIMITS = [
    "times are wall clock (time.perf_counter); no hardware performance counters are read",
    "the page cache is not dropped between runs, so imports may read warm files",
    "the cores may be shared with other tenants; wall times include that contention",
    "peak RSS is getrusage ru_maxrss of this process and of the children it waited for",
    "tracing overhead is estimated as spans recorded times the measured cost of one span",
]


class Run:
    """One benchmark run: timings per job, checks, fingerprints and spans."""

    def __init__(self, args):
        self.seed = args.seed
        self.seconds = args.seconds
        self.size = args.size
        self.tracer = spans.Tracer(prefix="p") if args.trace else None
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self.times = {}
        self.figures = {}
        self.fingerprints = {}
        self.setup_s = None
        self.import_s = None
        self.pool_efficiency = None
        self._round = {}

    @property
    def tracing(self) -> bool:
        return self.tracer is not None and self.tracer.enabled

    def check(self, name, ok, detail=""):
        self.attempted += 1
        self.failed += not ok
        self.checks.append((name, bool(ok), detail))

    def job(self, key, fn):
        """Run and time one operation; a raised error counts as a failed one.

        fn receives the id of the span around it (None when untraced).  Only
        untraced times are kept, since end-to-end figures come from untraced runs.
        """
        self.attempted += 1
        tracing = self.tracing
        t0 = time.perf_counter()
        try:
            with self.tracer.span(f"bench.{key.removesuffix('_s')}") if tracing else contextlib.nullcontext() as sid:
                out = fn(sid)
        except Exception as err:  # the run goes on and reports the failure
            self.failed += 1
            self.checks.append((f"{key} ran", False, f"{type(err).__name__}: {err}"))
            return None
        if not tracing:
            self._round[key] = self._round.get(key, 0.0) + time.perf_counter() - t0
        return out

    @contextlib.contextmanager
    def untraced(self):
        """Run wrapped code without recording spans."""
        was = self.tracing
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.enabled = was

    def rounds(self, body, start, min_rounds=1, max_rounds=None):
        """Repeat body(index) while another round fits in --seconds from start.

        Times of the jobs inside one round are summed; a traced run records
        spans in round 0 only.
        """
        index, last = 0, 0.0
        while index != max_rounds and (
                index < min_rounds or time.perf_counter() - start + last <= self.seconds):
            if self.tracer is not None:
                self.tracer.enabled = index == 0
            self._round = {}
            t0 = time.perf_counter()
            body(index)
            last = time.perf_counter() - t0
            for key, value in self._round.items():
                self.times.setdefault(key, []).append(value)
            index += 1
        if self.tracer is not None:
            self.tracer.enabled = True

    def probe_setup(self, warmup=""):
        """Set-up paid in fresh interpreters: (median import s, median total s).

        The child prints the clock after `import cellload`; perf_counter is
        CLOCK_MONOTONIC, shared with this process, so that splits the two.
        """
        code = f"import time, cellload\nt = time.perf_counter()\n{warmup}\nprint(t)"
        imports, totals = [], []
        for _ in range(SETUP_PROBES):
            self.attempted += 1
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", code], env=CHILD_ENV, cwd=ROOT,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            total = time.perf_counter() - t0
            if proc.returncode != 0:
                self.failed += 1
                self.checks.append(("setup probe ran", False, proc.stderr.strip()[-300:]))
                continue
            imports.append(float(proc.stdout.split()[-1]) - t0)
            totals.append(total)
        self.import_s = statistics.median(imports)
        return self.import_s, statistics.median(totals)


def _curve_ok(curve) -> bool:
    """Within [0, 1] and non-increasing in the threshold."""
    c = np.asarray(curve, dtype=float)
    return bool(np.all((c >= 0.0) & (c <= 1.0)) and np.all(np.diff(c) <= 1e-12))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def cli_cold(run: Run):
    """Fresh `python -m cellload.cli` processes for moments, pmf and rate."""
    from cellload import cli

    run.setup_s = run.probe_setup()[1]
    commands = CLI_COMMANDS[run.size]

    def spawn(cmd, argv, sid):
        if sid is None:
            proc = subprocess.run([sys.executable, "-m", "cellload.cli", cmd, *argv],
                                  env=CHILD_ENV, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            return proc.returncode, proc.stdout
        proc = subprocess.run([sys.executable, str(HERE / "cli_child.py"), sid, f"{sid}.",
                               cmd, *argv], env=CHILD_ENV, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, check=True)
        child = json.loads(proc.stdout)
        run.tracer.spans.extend(child["spans"])
        return child["rc"], child["stdout"]

    def one_pass(index):
        for key, (cmd, argv) in zip(("job_a_s", "job_b_s", "job_c_s"), commands):
            if cmd == "moments" and index > 0:
                continue
            out = run.job(key, lambda sid: spawn(cmd, argv, sid))
            if out is None:
                continue
            rc, text = out
            run.check(f"cellload {cmd}: exit code 0", rc == 0, f"rc={rc}")
            if rc != 0:
                continue
            try:
                report = cli.parse_report(text)
                round_trip = cli.render_json(report) + "\n" == text
            except (ValueError, KeyError, TypeError) as err:
                run.check(f"cellload {cmd}: report parses", False, repr(err))
                continue
            run.check(f"cellload {cmd}: report round-trips through parse_report", round_trip)
            if index == 0:
                run.fingerprints[f"sha256_{cmd}_stdout"] = hashlib.sha256(text.encode()).hexdigest()
            if cmd == "moments":
                run.check("moments: mean == 25 exactly", report.mean == PAPER_MEAN, repr(report.mean))
                run.check("moments: variance matches 311.3588525 (rel 1e-6)",
                          math.isclose(report.variance, PAPER_VARIANCE, rel_tol=1e-6),
                          repr(report.variance))
                run.fingerprints["cli_moments"] = [report.mean, report.second_moment, report.variance]
            elif cmd == "pmf":
                total = math.fsum(report.probs)
                run.check("pmf: probabilities sum to 1 (abs 1e-6)", abs(total - 1.0) <= 1e-6, repr(total))
                run.fingerprints["cli_pmf_first64"] = report.probs[:64]
            else:
                run.check("rate: curve in [0, 1] and non-increasing", _curve_ok(report.coverage))
                run.fingerprints["cli_rate_curve"] = report.coverage

    run.rounds(one_pass, time.perf_counter(), min_rounds=CLI_PASSES[run.size])
    names = {"job_a_s": "cli_moments_s", "job_b_s": "cli_pmf_s", "job_c_s": "cli_rate_s"}
    for key, name in names.items():
        if key in run.times:
            run.figures[name] = (statistics.median(run.times[key]), "s")


def analytic_sweep(run: Run):
    """Cold moments -> PMF -> rate coverage over four models, then a warm PMF pass."""
    from cellload import Matern, NetworkModel, RateConfig, Thomas, UserModel, analytic

    import_s, _ = run.probe_setup()
    models = [
        (label, NetworkModel(1.0, UserModel(lp, mbar, Thomas(s) if kind == "tcp" else Matern(s))))
        for label, lp, mbar, kind, s in SWEEP_MODELS[run.size]
    ]
    grid = [float(t) for t in np.geomspace(0.02 * BANDWIDTH, 2.0 * BANDWIDTH, SWEEP_THRESHOLDS[run.size])]
    uncapped = RateConfig(alpha=4.0, bandwidth_w=BANDWIDTH, thresholds=grid)
    capped = RateConfig(alpha=4.0, bandwidth_w=BANDWIDTH, backhaul_rb=CAPPED_BACKHAUL, thresholds=grid)

    # set-up: the first ppp_baseline_variance fills the E[V^2] kernel
    t0 = time.perf_counter()
    with run.tracer.span("bench.setup") if run.tracer else contextlib.nullcontext():
        analytic.ppp_baseline_variance(models[0][1])
    run.setup_s = import_s + time.perf_counter() - t0

    cold = {}

    def cold_pass(index):
        for label, net in models:
            out = run.job("job_a_s", lambda sid: _moments_and_pmf(analytic, net))
            if out is None:
                continue
            m, pmf = out
            exact = net.users.intensity / net.lambda_b
            run.check(f"{label}: |sum n p_n - lambda_u/lambda_b| <= 1e-4 mean",
                      abs(pmf.mean() - exact) <= 1e-4 * exact, f"{pmf.mean() - exact:.3e}")
            cold[label] = (m, pmf)
            curves = run.job("job_b_s", lambda sid: (
                [analytic.rate_coverage(net, uncapped, pmf, rho) for rho in grid],
                [analytic.rate_coverage(net, capped, pmf, rho) for rho in grid]))
            if curves is None:
                continue
            free, cap = curves
            run.check(f"{label}: rate curves in [0, 1] and non-increasing",
                      _curve_ok(free) and _curve_ok(cap))
            run.check(f"{label}: capped curve <= uncapped curve",
                      all(c <= f + 1e-12 for c, f in zip(cap, free)))
            run.fingerprints[f"{label}_moments"] = [m.mean, m.second_moment, m.variance]
            run.fingerprints[f"{label}_dft_size"] = pmf.dft_size
            if label == models[0][0]:
                run.fingerprints[f"{label}_pmf_first64"] = [float(p) for p in pmf.probs[:64]]
                run.fingerprints[f"{label}_rate_curve"] = free

    def warm_pass(index):
        for label, net in models:
            if label not in cold:
                continue
            m, pmf = cold[label]
            again = run.job("job_c_s", lambda sid: analytic.invert_pgf(net, moments=m))
            if again is not None:
                same = again.probs.shape == pmf.probs.shape and np.allclose(
                    again.probs, pmf.probs, rtol=0.0, atol=1e-12)
                run.check(f"{label}: warm PMF equals cold PMF (abs 1e-12)", same)

    start = time.perf_counter()
    run.rounds(cold_pass, start, max_rounds=1)  # a second pass would be warm
    run.rounds(warm_pass, start)
    if "job_a_s" in run.times and "job_b_s" in run.times:
        a, b = run.times["job_a_s"][0], run.times["job_b_s"][0]
        run.figures["sweep_cold_s"] = (a + b, "s")
        run.figures["sweep_cold_pgf_s"] = (a, "s")
        run.figures["sweep_cold_rate_s"] = (b, "s")
    if "job_c_s" in run.times:
        run.figures["sweep_warm_s"] = (statistics.median(run.times["job_c_s"]), "s")


def _moments_and_pmf(analytic, net):
    m = analytic.load_moments(net)
    return m, analytic.invert_pgf(net, moments=m)


def mc_sample(run: Run):
    """Seeded load runs on 1 and 2 processes and a SIR run of the paper-figure model."""
    from cellload import NetworkModel, RateConfig, SimConfig, Thomas, UserModel, montecarlo

    run.setup_s = run.probe_setup(MC_WARMUP)[1]
    net = NetworkModel(1.0, UserModel(5.0, 5.0, Thomas(0.05)))
    rate_cfg = RateConfig(alpha=4.0, bandwidth_w=BANDWIDTH)
    n = MC_REALIZATIONS[run.size]
    with run.untraced():  # warm-up of this process and of the pool path, not timed
        montecarlo.run_load_simulation(net, SimConfig(50, seed=run.seed))
        montecarlo.run_load_simulation(net, SimConfig(50, seed=run.seed, parallel_chunks=2))
    pooled = []

    def one_round(index):
        cfg = SimConfig(n, seed=run.seed * 1000 + index)
        cfg2 = SimConfig(n, seed=cfg.seed, parallel_chunks=2)
        one = run.job("job_a_s", lambda sid: montecarlo.run_load_simulation(net, cfg))
        with run.untraced():  # spans in pool workers would be lost
            two = run.job("job_b_s", lambda sid: montecarlo.run_load_simulation(net, cfg2))
        sir = run.job("job_c_s", lambda sid: montecarlo.run_sir_simulation(net, cfg, rate_cfg))
        if one is None:
            return
        pooled.append(one.loads)
        if index == 0:
            run.fingerprints["mc_load_sum_round0"] = int(one.loads.sum())
        if two is not None:
            run.check(f"round {index}: 1-chunk and 2-chunk loads bitwise equal",
                      np.array_equal(one.loads, two.loads))
        if sir is not None:
            run.check(f"round {index}: SIR-run loads equal load-run loads",
                      np.array_equal(one.loads, sir.loads))

    run.rounds(one_round, time.perf_counter(), min_rounds=2 if run.tracer else 1)
    if pooled:
        loads = np.concatenate(pooled).astype(float)
        exact = net.users.intensity / net.lambda_b
        se = loads.std() / math.sqrt(loads.size)
        run.check("sample mean within 5 standard errors of lambda_u/lambda_b",
                  abs(loads.mean() - exact) <= 5.0 * se,
                  f"mean {loads.mean():.4f} se {se:.4f} over {loads.size}")
    med = {k: statistics.median(v) for k, v in run.times.items()}
    for key, name in (("job_a_s", "mc_load_rps"), ("job_b_s", "mc_load_2p_rps"), ("job_c_s", "mc_sir_rps")):
        if key in med:
            run.figures[name] = (n / med[key], "1/s")
    if "job_a_s" in med and "job_b_s" in med:
        run.pool_efficiency = med["job_a_s"] / (2.0 * med["job_b_s"])
        run.figures["pool_efficiency_2p"] = (run.pool_efficiency, "ratio")


WORKLOADS = {"cli-cold": cli_cold, "analytic-sweep": analytic_sweep, "mc-sample": mc_sample}


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(ROOT / ".git" / ref)
        if not sha:
            for line in _read(ROOT / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        return sha or "unknown"
    return head or "unknown (not a git checkout)"


def machine() -> dict:
    import cellload
    import scipy

    model = next((line.split(":", 1)[1].strip() for line in _read(Path("/proc/cpuinfo")).splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level}{'d' if kind == 'Data' else 'i' if kind == 'Instruction' else ''}"] = (
            f"{_read(index / 'size')} shared by cpus {_read(index / 'shared_cpu_list')}")
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cellload": cellload.__version__,
        "commit": git_commit(),
    }


def end_to_end(run: Run) -> dict:
    out = {"setup_s": (run.setup_s, "s")}
    for key in ("job_a_s", "job_b_s", "job_c_s"):
        if key in run.times:
            out[key] = (statistics.median(run.times[key]), "s")
    out["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return out


def per_layer(run: Run) -> dict:
    recorded = run.tracer.spans
    traced_s = sum(s["end"] - s["start"] for s in recorded if s["parent"] is None)
    out = {"cli.import_s": (run.import_s, "s")}
    out.update(spans.layer_metrics(recorded))
    out["montecarlo.pool_efficiency_2p"] = (run.pool_efficiency or 0.0, "ratio")
    out["trace_overhead_frac"] = (len(recorded) * spans.span_cost_s() / traced_s, "frac")
    return out


def declared_metrics(trace: int) -> list:
    """Names of the metrics BENCHMARK.json asks the result line to carry."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: minimal inputs for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "cellload" / "__init__.py").is_file():
        print(f"perfbench: no cellload package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(args)
    if run.tracer is not None:
        run.tracer.install()
    WORKLOADS[args.workload](run)
    if run.tracer is not None:
        run.tracer.uninstall()
        metrics = per_layer(run)
    else:
        metrics = end_to_end(run)

    failed_frac = run.failed / max(run.attempted, 1)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "machine": machine(), "limits": LIMITS,
        "times": run.times,
        "figures": {**run.figures, "failed_frac": (failed_frac, "frac")},
        "metrics": metrics,
        "checks": run.checks,
        "fingerprints": run.fingerprints,
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  size {args.size}")
    for key, value in report["machine"].items():
        print(f"machine  {key}: {value}")
    for line in LIMITS:
        print(f"limit    {line}")
    for name, (value, unit) in {**report["figures"], **metrics}.items():
        print(f"metric   {name:44s} {value:.6g} {unit}")
    for name, ok, detail in run.checks:
        print(f"check    {'ok  ' if ok else 'FAIL'} {name}  {detail}")
    for name, value in run.fingerprints.items():
        text = json.dumps(value)
        print(f"fprint   {name}: {text[:96]}{'...' if len(text) > 96 else ''}")

    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if run.tracer is not None:
        report["spans"] = run.tracer.spans
    record.write_text(json.dumps(report, indent=1))
    print(f"record   {record.relative_to(ROOT)}")

    names = declared_metrics(args.trace)
    missing = [name for name in names if name not in metrics]
    if missing:
        print(f"perfbench: no measurement for {', '.join(missing)}", file=sys.stderr)
    result = {
        "correct": run.failed == 0 and not missing,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names if name in metrics},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
