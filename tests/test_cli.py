import argparse
import ast
import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cellload import analytic, cli, montecarlo
from cellload.errors import ConfigurationError

from helpers import sir_ccdf_by_quadrature

TCP_ARGS = ["--kind", "tcp", "--lambda-b", "1", "--lambda-p", "5", "--mbar", "5",
            "--sigma", "0.05"]
MCP_ARGS = ["--kind", "mcp", "--lambda-b", "1", "--lambda-p", "5", "--mbar", "5",
            "--cluster-radius", "0.1"]
# clusters so small that a = v / sigma reaches about 1.7e6 on the PGF grid
TINY_TCP_ARGS = TCP_ARGS[:-1] + ["1e-6"]
# so few users that every sampled cell is empty
EMPTY_ARGS = ["--kind", "tcp", "--lambda-b", "1", "--lambda-p", "5", "--mbar", "1e-9",
              "--sigma", "0.05"]
EXAMPLE_DIR = Path(__file__).resolve().parents[1] / "docs" / "examples"


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if any simulation run or analytic call starts."""
    def forbidden(*args, **kwargs):
        raise AssertionError("no work may start on an invalid option")

    for name in ("run_load_simulation", "run_sir_simulation"):
        monkeypatch.setattr(montecarlo, name, forbidden)
    for name in ("load_moments", "load_pmf"):
        monkeypatch.setattr(analytic, name, forbidden)


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMoments:
    def test_fig2_parameters(self, capsys):
        code, out, _ = run_cli(["moments"] + TCP_ARGS, capsys)
        assert code == 0
        d = json.loads(out)
        assert d["report"] == "moments"
        assert d["mean"] == 25.0
        assert d["normalized_variance"] > 0.28
        assert d["nb_fit"]["r"] >= 1

    def test_mc_appends_estimates(self, capsys):
        code, out, _ = run_cli(
            ["moments"] + MCP_ARGS + ["--mc", "--realizations", "2000", "--seed", "7"], capsys
        )
        assert code == 0
        d = json.loads(out)
        assert d["mc"]["realizations"] == 2000
        assert abs(d["mc"]["mean"] - 25.0) <= 4.0 * d["mc"]["mean_stderr"]

    def test_mc_deterministic(self, capsys):
        argv = ["moments"] + TCP_ARGS + ["--mc", "--realizations", "500", "--seed", "7"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    def test_invalid_sigma_names_field(self, capsys):
        code, _, err = run_cli(
            ["moments", "--kind", "tcp", "--lambda-b", "1", "--lambda-p", "5",
             "--mbar", "5", "--sigma", "-0.1"], capsys
        )
        assert code == cli.EXIT_VALIDATION
        assert "sigma" in err

    def test_large_clusters_exit_ok(self, capsys):
        # 12 sigma far beyond the stored covariogram's span [0, 7]
        argv = ["moments", "--kind", "tcp", "--lambda-b", "1", "--lambda-p", "5", "--mbar", "5",
                "--sigma", "10"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert json.loads(out)["variance"] > 0

    def test_tiny_clusters_exit_ok(self, capsys):
        # moments need no Marcum Q, so the cluster size does not reach them
        code, out, _ = run_cli(["moments"] + TINY_TCP_ARGS, capsys)
        assert code == 0
        assert json.loads(out)["mean"] == 25.0

    def test_missing_kernel_parameter(self, capsys):
        code, _, err = run_cli(
            ["moments", "--kind", "mcp", "--lambda-b", "1", "--lambda-p", "5", "--mbar", "5"],
            capsys,
        )
        assert code == cli.EXIT_VALIDATION
        assert "cluster-radius" in err


class TestPmf:
    def test_inversion_report(self, capsys):
        code, out, _ = run_cli(["pmf"] + TCP_ARGS, capsys)
        assert code == 0
        d = json.loads(out)
        assert min(d["probs"]) >= 0.0
        assert 0.0 <= d["tail_mass"] < 1e-9
        assert math.fsum(d["probs"]) == pytest.approx(1.0 - d["tail_mass"], abs=1e-15)
        assert math.fsum(n * p for n, p in enumerate(d["probs"])) == pytest.approx(25.0, abs=1e-6)

    def test_no_aliasing_under_heavy_load(self, capsys):
        # a 128-point DFT folds this PMF's tail onto its head (mean 63.45)
        argv = ["pmf", "--kind", "tcp", "--lambda-b", "1", "--lambda-p", "10", "--mbar", "20",
                "--sigma", "0.1"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        d = json.loads(out)
        assert math.fsum(n * p for n, p in enumerate(d["probs"])) == pytest.approx(200.0, abs=2e-4)
        assert d["tail_mass"] < 1e-9

    def test_heavy_load_exits_zero(self, capsys):
        # mean 750, where the void probability of the largest cells underflows
        argv = ["pmf", "--kind", "tcp", "--lambda-b", "1", "--lambda-p", "150", "--mbar", "5",
                "--sigma", "0.05"]
        start = time.perf_counter()
        code, out, _ = run_cli(argv, capsys)
        assert time.perf_counter() - start < 5.0
        assert code == 0
        d = json.loads(out)
        assert math.fsum(n * p for n, p in enumerate(d["probs"])) == pytest.approx(750.0, rel=1e-6)
        assert d["tail_mass"] < 1e-9

    def test_wide_matern_clusters_exit_zero(self, capsys):
        # the Matern disc (R = 100) holds b(o, r) for every parent within
        # R - r: the PGF table takes that plateau in closed form
        argv = ["pmf"] + MCP_ARGS[:-1] + ["100"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        d = json.loads(out)
        assert math.fsum(n * p for n, p in enumerate(d["probs"])) == pytest.approx(25.0, rel=1e-6)
        assert d["tail_mass"] < 1e-9

    def test_unstable_grid_exits_convergence(self, capsys, monkeypatch):
        # no two grids can agree to 0: the ladder gives up after one doubling
        monkeypatch.setattr(analytic, "_GRID_TOL", 0.0)
        monkeypatch.setattr(analytic, "_GRID_REFINEMENTS", 1)
        code, out, err = run_cli(["pmf"] + MCP_ARGS, capsys)
        assert code == cli.EXIT_CONVERGENCE and out == ""
        assert "did not stabilize" in err

    def test_no_dft_size_exits_convergence(self, capsys, monkeypatch):
        # no DFT size can bound the aliased mass by a negative tolerance
        monkeypatch.setattr(analytic, "_TAIL_TOL", -1.0)
        code, out, err = run_cli(["pmf"] + MCP_ARGS, capsys)
        assert code == cli.EXIT_CONVERGENCE and out == ""
        assert "no DFT size" in err

    @pytest.mark.parametrize("argv", [
        ["moments", "--mbar", "1e300"],
        ["moments", "--kind", "mcp", "--cluster-radius", "0.1", "--mbar", "1e200"],
        ["moments", "--lambda-p", "1e300"],
        ["moments", "--sigma", "1e200"],
        ["moments", "--lambda-b", "1e300"],
        ["pmf", "--mbar", "1e200"],
        ["pmf", "--kind", "mcp", "--cluster-radius", "0.1", "--mbar", "3e6"],
    ], ids=["mbar-1e300", "mcp-mbar-1e200", "lambda-p-1e300", "sigma-1e200", "lambda-b-1e300",
            "pmf-mbar-1e200", "pmf-mcp-mbar-3e6"])
    def test_extreme_model_exits_convergence_at_once(self, argv, capsys):
        # moments beyond the float range, and series longer than the largest
        # DFT size, fail with one line before any PGF table is built
        start = time.perf_counter()
        code, out, err = run_cli(argv[:1] + TCP_ARGS + argv[1:], capsys)
        assert time.perf_counter() - start < 5.0
        assert code == cli.EXIT_CONVERGENCE and out == ""
        assert err.startswith("convergence error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["pmf", "rate"])
    def test_tiny_clusters_return_exact_mean(self, command, capsys):
        # Marcum Q past ab = 50 costs a fixed number of steps, so a = 1.7e6 is
        # as quick as the paper model; `rate` exits 0 only if its load_pmf
        # met the exact mean to 1e-6, which `pmf` shows in its probs
        start = time.perf_counter()
        code, out, _ = run_cli([command] + TINY_TCP_ARGS, capsys)
        assert time.perf_counter() - start < 2.0
        assert code == 0
        d = json.loads(out)
        if command == "pmf":
            assert math.fsum(n * p for n, p in enumerate(d["probs"])) == pytest.approx(25.0, rel=1e-6)
        else:
            assert all(0.0 <= c <= 1.0 for c in d["coverage"])

    def test_vanishing_clusters_exit_without_warnings(self):
        # at sigma = 1e-200 the Marcum argument ab overflows to inf, which
        # takes the large-ab limit: exit 0 with nothing on stderr, even where
        # a RuntimeWarning is an error
        src = Path(__file__).resolve().parents[1] / "src"
        probe = "import sys; from cellload.cli import main; sys.exit(main(sys.argv[1:]))"
        out = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", probe, "pmf"]
            + TCP_ARGS[:-1] + ["1e-200"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        )
        assert out.returncode == 0 and out.stderr == ""
        probs = json.loads(out.stdout)["probs"]
        assert math.fsum(n * p for n, p in enumerate(probs)) == pytest.approx(25.0, rel=1e-6)

    @pytest.mark.parametrize("sigma, code", [("3e4", 0), ("1e9", cli.EXIT_CONVERGENCE)])
    def test_huge_clusters_mean_gate(self, sigma, code, capsys):
        # 1 - Q1 cancels when r / sigma is tiny: at sigma = 3e4 the PMF keeps
        # its mean to 2.2e-7, at 1e9 every cluster CDF value rounds to 0
        got, out, err = run_cli(["pmf"] + TCP_ARGS[:-1] + [sigma], capsys)
        assert got == code
        if code == 0:
            d = json.loads(out)
            assert math.fsum(n * p for n, p in enumerate(d["probs"])) == pytest.approx(25.0, rel=1e-6)
        else:
            assert out == "" and "exact mean" in err

    @pytest.mark.parametrize("argv", [
        MCP_ARGS[:5] + ["1e-7"] + MCP_ARGS[6:],
        TCP_ARGS[:5] + ["1e-6"] + TCP_ARGS[6:],
    ], ids=["mcp-1e-7", "tcp-1e-6"])
    def test_sparse_models_exit_zero(self, argv, capsys):
        # the mean gate reads the DFT's terms before the 1e-12 tail cut,
        # which drops a few 1e-12 of mean here
        code, out, _ = run_cli(["pmf"] + argv, capsys)
        assert code == 0
        d = json.loads(out)
        assert math.fsum(n * p for n, p in enumerate(d["probs"])) == pytest.approx(
            5.0 * float(argv[5]), abs=1e-11)

    def test_degenerate_model(self, capsys):
        code, out, _ = run_cli(["pmf"] + EMPTY_ARGS, capsys)
        d = json.loads(out)
        assert d["probs"][0] == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_model_with_empty_samples(self, capsys):
        # var/mean^2 of an all-zero sample is undefined: null, never NaN
        code, out, _ = run_cli(["moments"] + EMPTY_ARGS + ["--mc", "--realizations", "50"], capsys)
        assert code == 0
        assert json.loads(out)["mc"]["normalized_variance"] is None

        code, out, _ = run_cli(["simulate"] + EMPTY_ARGS + ["--realizations", "50"], capsys)
        assert code == 0
        d = json.loads(out)
        assert d["mean_load"] == 0.0 and d["normalized_variance"] is None

        code, out, _ = run_cli(["compare"] + EMPTY_ARGS + ["--realizations", "50"], capsys)
        assert code == cli.EXIT_COMPARISON
        check = {c["check"]: c for c in json.loads(out)["checks"]}
        assert check["normalized_variance_rel_error"]["value"] is None
        assert not check["normalized_variance_rel_error"]["pass"]

    def test_empty_samples_give_null_ccdfs(self, capsys):
        # no realization has a user to condition the SIR or rate on
        run = ["--realizations", "50"]
        code, out, _ = run_cli(["rate"] + EMPTY_ARGS + ["--mc"] + run, capsys)
        assert code == 0
        d = json.loads(out)
        assert d["empirical"] is None and d["max_abs_gap"] is None

        code, out, _ = run_cli(["simulate"] + EMPTY_ARGS + ["--with-sir"] + run, capsys)
        assert code == 0
        d = json.loads(out)
        assert d["sir_thresholds"] == [0.1, 1.0, 10.0] and d["sir_ccdf"] is None

        code, out, _ = run_cli(["compare"] + EMPTY_ARGS + ["--with-rate"] + run, capsys)
        assert code == cli.EXIT_COMPARISON
        check = {c["check"]: c for c in json.loads(out)["checks"]}
        assert check["rate_ccdf_max_abs_gap"]["value"] is None
        assert not check["rate_ccdf_max_abs_gap"]["pass"]

    def test_mc_tv_distance(self, capsys):
        code, out, _ = run_cli(
            ["pmf"] + TCP_ARGS + ["--mc", "--realizations", "3000", "--seed", "3"], capsys
        )
        d = json.loads(out)
        assert d["tv_distance"] is not None and d["tv_distance"] < 0.2


class TestRate:
    def test_curve_monotone(self, capsys):
        code, out, _ = run_cli(["rate"] + TCP_ARGS, capsys)
        assert code == 0
        d = json.loads(out)
        cov = d["coverage"]
        assert all(a >= b - 1e-12 for a, b in zip(cov, cov[1:]))
        assert all(0.0 <= c <= 1.0 for c in cov)

    def test_backhaul_zeroes_high_thresholds(self, capsys):
        argv = ["rate"] + TCP_ARGS + ["--backhaul", "1e5", "--thresholds", "5e4,2e5"]
        code, out, _ = run_cli(argv, capsys)
        d = json.loads(out)
        assert d["coverage"][1] == 0.0  # threshold above the backhaul cap

    def test_threshold_at_backhaul_matches_simulator(self, capsys):
        # one user gets exactly R_b, which is not a rate above rho = R_b
        argv = ["rate"] + TCP_ARGS + ["--backhaul", "2e6", "--thresholds", "2e6", "--mc",
                                      "--realizations", "2000", "--seed", "7"]
        code, out, _ = run_cli(argv, capsys)
        d = json.loads(out)
        assert code == 0
        assert d["coverage"] == d["empirical"] == [0.0]

    def test_no_mass_above_zero_exits_validation(self, capsys):
        # at mbar = 1e-13 the PMF is p_0 alone: coverage given a busy cell is undefined
        argv = ["rate"] + EMPTY_ARGS[:7] + ["1e-13"] + EMPTY_ARGS[8:]
        code, out, err = run_cli(argv, capsys)
        assert code == cli.EXIT_VALIDATION and out == ""
        assert "no mass above load 0" in err

    def test_unparsable_thresholds_exit_validation(self, capsys):
        code, _, err = run_cli(["rate"] + TCP_ARGS + ["--thresholds", "1e5,abc"], capsys)
        assert code == cli.EXIT_VALIDATION
        assert "thresholds" in err

    @pytest.mark.parametrize("argv", [
        ["rate"] + TCP_ARGS + ["--thresholds", "1e5,-1", "--mc", "--realizations", "10"],
        ["rate"] + TCP_ARGS + ["--thresholds", "1e5,0"],
        ["compare"] + TCP_ARGS + ["--thresholds", "-1", "--realizations", "10"],
        ["rate"] + TCP_ARGS + ["--thresholds", ""],
    ], ids=["rate-negative", "rate-zero", "compare-negative", "rate-empty"])
    def test_non_positive_thresholds_exit_before_any_work(self, argv, capsys, no_work):
        code, out, err = run_cli(argv, capsys)
        assert code == cli.EXIT_VALIDATION and out == ""
        assert "--thresholds" in err

    @pytest.mark.parametrize("argv, message", [
        (["rate", "--thresholds", "inf"], "--thresholds"),
        (["rate", "--thresholds", "1e5,1e400"], "--thresholds"),
        (["rate", "--thresholds", "nan"], "--thresholds"),
        (["rate", "--mc", "--backhaul", "nan"], "backhaul"),
        (["rate", "--bandwidth", "inf"], "bandwidth"),
        (["rate", "--alpha", "inf"], "alpha"),
        (["simulate", "--backhaul", "nan"], "backhaul"),
        (["compare", "--tv-tolerance", "inf"], "--tv-tolerance"),
        (["compare", "--tv-tolerance", "nan"], "--tv-tolerance"),
        (["compare", "--tv-tolerance", "-1"], "--tv-tolerance"),
        (["compare", "--variance-tolerance", "inf"], "--variance-tolerance"),
        (["compare", "--with-rate", "--rate-tolerance", "nan"], "--rate-tolerance"),
        (["moments", "--mc", "--parallel-chunks", "0"], "parallel_chunks"),
        (["pmf", "--mc", "--parallel-chunks", "0"], "parallel_chunks"),
        (["rate", "--mc", "--parallel-chunks", "0"], "parallel_chunks"),
        (["compare", "--parallel-chunks", "0"], "parallel_chunks"),
        (["rate", "--mc", "--alpha", "2.5"], "alpha >= 3"),
        (["compare", "--with-rate", "--alpha", "2.5"], "alpha >= 3"),
        (["simulate", "--seed", "-1"], "seed"),
        (["compare", "--seed", "18446744073709551616"], "seed"),
    ], ids=["thresholds-inf", "thresholds-overflow", "thresholds-nan", "backhaul-nan",
            "bandwidth-inf", "alpha-inf", "simulate-backhaul-nan", "tv-inf", "tv-nan",
            "tv-negative", "variance-inf", "rate-nan", "moments-mc-chunks", "pmf-mc-chunks",
            "rate-mc-chunks", "compare-chunks", "rate-mc-alpha", "compare-rate-alpha",
            "simulate-seed-negative", "compare-seed-2-64"])
    def test_non_finite_options_exit_before_any_work(self, argv, message, capsys, no_work):
        code, out, err = run_cli(argv[:1] + TCP_ARGS + argv[1:] + ["--realizations", "10"], capsys)
        assert code == cli.EXIT_VALIDATION and out == ""
        assert message in err

    @pytest.mark.parametrize("command, flag", [("moments", "--out"), ("simulate", "--raw-out")])
    @pytest.mark.parametrize("where", ["missing-folder", "folder"])
    def test_unwritable_output_exits_before_any_work(self, command, flag, where, capsys,
                                                     no_work, tmp_path):
        path = tmp_path / "missing" / "report.out" if where == "missing-folder" else tmp_path
        code, out, err = run_cli([command] + TCP_ARGS + [flag, str(path)], capsys)
        assert code == cli.EXIT_VALIDATION and out == ""
        assert err.startswith("validation error:") and err.count("\n") == 1 and flag in err

    @pytest.mark.parametrize("argv", [["moments", "--mc"], ["pmf", "--mc"], ["rate", "--mc"],
                                      ["compare"]], ids=["moments", "pmf", "rate", "compare"])
    def test_zero_realizations_exit_before_any_work(self, argv, capsys, no_work):
        code, out, err = run_cli(argv[:1] + TCP_ARGS + argv[1:] + ["--realizations", "0"], capsys)
        assert code == cli.EXIT_VALIDATION and out == ""
        assert "realizations" in err

    def test_zero_bandwidth_exits_validation(self, capsys):
        # the default grid spans 0.02 W to 2 W, so W is checked before it is built
        code, out, err = run_cli(["rate"] + TCP_ARGS + ["--bandwidth", "0"], capsys)
        assert code == cli.EXIT_VALIDATION and out == ""
        assert "bandwidth" in err

    def test_mc_gap_reported(self, capsys):
        argv = ["rate"] + TCP_ARGS + ["--mc", "--realizations", "3000", "--seed", "5",
                "--thresholds", "5e4,2e5,8e5"]
        code, out, _ = run_cli(argv, capsys)
        d = json.loads(out)
        assert d["max_abs_gap"] is not None and d["max_abs_gap"] < 0.1


class TestSimulate:
    @pytest.mark.parametrize("cluster", [["--sigma", "1e200"],
                                         ["--kind", "mcp", "--cluster-radius", "1e200"],
                                         ["--sigma", "2.6914"]],
                             ids=["sigma-1e200", "radius-1e200", "just-past-bound"])
    def test_huge_clusters_exit_before_any_draw(self, cluster, capsys, monkeypatch):
        # a stream's expected parents, 256 lambda_p pi (6 sigma)^2, pass
        # 2^20 just above sigma = 2.69134
        def forbidden(*args):
            raise AssertionError("no stream may be drawn")

        monkeypatch.setattr(montecarlo, "_pass", forbidden)
        code, out, err = run_cli(["simulate"] + TCP_ARGS + cluster, capsys)
        assert code == cli.EXIT_VALIDATION and out == ""
        assert "1,048,576" in err and err.count("\n") == 1

    def test_summary_and_raw_dump(self, capsys, tmp_path):
        raw = tmp_path / "raw.csv"
        argv = ["simulate"] + TCP_ARGS + ["--with-sir", "--realizations", "400",
                "--seed", "9", "--raw-out", str(raw)]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        d = json.loads(out)
        assert d["realizations"] == 400
        assert abs(d["mean_load"] - 25.0) < 3.0
        with open(raw) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["realization_index", "load", "sir", "rate"]
        assert len(rows) == 401
        loaded = [int(r[1]) for r in rows[1:]]
        assert sum(p * i for i, p in enumerate(d["empirical_pmf"])) == pytest.approx(
            np.mean(loaded)
        )

    def test_load_only_raw_dump_has_blank_sir(self, capsys, tmp_path):
        raw = tmp_path / "raw.csv"
        argv = ["simulate"] + TCP_ARGS + ["--realizations", "70", "--seed", "9",
                                          "--raw-out", str(raw)]
        assert run_cli(argv, capsys)[0] == 0
        with open(raw) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 71
        assert all(r[0] == str(i) and r[2:] == ["", ""] for i, r in enumerate(rows[1:]))

    def test_sir_window_sized_from_alpha(self, capsys):
        # at alpha = 3 each realization draws stations out to |u| + W', with
        # W' = 3.94, and adds the mean interference beyond; the window it
        # reports is no wider than a few W'
        argv = ["simulate"] + TCP_ARGS + ["--with-sir", "--alpha", "3", "--realizations",
                                          "200", "--seed", "7"]
        code, out, _ = run_cli(argv, capsys)
        assert code == cli.EXIT_OK
        # std of the faded interference beyond the window against the mean
        # from beyond r0 = 0.5, at alpha = 3 and unit density
        window = json.loads(out)["window_radius"]
        std = math.sqrt(2.0 * math.pi * 2.0 * window ** -4.0 / 4.0)
        assert std / (2.0 * math.pi / 0.5) <= 0.01
        assert window < 8.0

    @pytest.mark.parametrize("argv", [
        ["pmf"] + TCP_ARGS + ["--self-test-nb"],
        ["simulate"] + TCP_ARGS + ["--window-radius", "20"],
        # simulate never reads a rate grid
        ["simulate"] + TCP_ARGS + ["--thresholds", "1e5", "--realizations", "10"],
    ], ids=["self-test-nb", "window-radius", "thresholds"])
    def test_retired_options_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_VALIDATION
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_byte_determinism(self, capsys):
        argv = ["simulate"] + MCP_ARGS + ["--realizations", "300", "--seed", "31"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2


class TestCompare:
    def test_gates_pass_on_fig2_model(self, capsys):
        argv = ["compare"] + TCP_ARGS + ["--realizations", "20000", "--seed", "12"]
        code, out, _ = run_cli(argv, capsys)
        d = json.loads(out)
        assert code == 0 and d["passed"]
        names = {c["check"] for c in d["checks"]}
        assert {"mean_within_3_stderr", "normalized_variance_rel_error",
                "pmf_tv_distance"} <= names

    def test_single_realization_fails_variance_gate(self, capsys):
        # one sample has zero variance, so the relative error is undefined
        argv = ["compare"] + TCP_ARGS + ["--realizations", "1", "--seed", "12"]
        code, out, _ = run_cli(argv, capsys)
        assert code == cli.EXIT_COMPARISON
        check = {c["check"]: c for c in json.loads(out)["checks"]}
        assert check["normalized_variance_rel_error"]["value"] is None
        assert not check["normalized_variance_rel_error"]["pass"]

    def test_delta_perturbation_trips_rate_gate(self, capsys, monkeypatch):
        # a coverage kernel shifted to delta = 2.5 must fail the rate gate
        monkeypatch.setattr(
            analytic, "sir_ccdf", lambda alpha, tau: sir_ccdf_by_quadrature(alpha, tau, 2.5)
        )
        argv = ["compare"] + TCP_ARGS + ["--with-rate", "--realizations", "8000", "--seed", "12"]
        code, out, _ = run_cli(argv, capsys)
        d = json.loads(out)
        rate_check = [c for c in d["checks"] if c["check"] == "rate_ccdf_max_abs_gap"][0]
        assert not rate_check["pass"]
        assert code == cli.EXIT_COMPARISON

    def test_gates_are_the_mc_fields_of_the_reports(self, capsys, monkeypatch):
        run = ["--realizations", "3000", "--seed", "7"]
        grid = ["--thresholds", "5e4,2e5,8e5"]
        mc = {cmd: json.loads(run_cli([cmd] + TCP_ARGS + ["--mc"] + run + extra, capsys)[1])
              for cmd, extra in (("moments", []), ("pmf", []), ("rate", grid))}

        calls = {}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("run_load_simulation", "run_sir_simulation"):
            counted(montecarlo, name)
        for name in ("load_moments", "load_pmf"):
            counted(analytic, name)
        code, out, _ = run_cli(["compare"] + TCP_ARGS + ["--with-rate"] + run + grid, capsys)
        assert code in (cli.EXIT_OK, cli.EXIT_COMPARISON)
        assert calls == {"run_sir_simulation": 1, "load_moments": 1, "load_pmf": 1}

        check = {c["check"]: c for c in json.loads(out)["checks"]}
        moments = mc["moments"]
        assert check["mean_within_3_stderr"]["value"] == abs(moments["mean"] - moments["mc"]["mean"])
        assert check["mean_within_3_stderr"]["tolerance"] == 3.0 * moments["mc"]["mean_stderr"]
        nv_mc = moments["mc"]["normalized_variance"]
        assert check["normalized_variance_rel_error"]["value"] == (
            abs(moments["normalized_variance"] - nv_mc) / nv_mc)
        assert check["pmf_tv_distance"]["value"] == mc["pmf"]["tv_distance"]
        assert check["rate_ccdf_max_abs_gap"]["value"] == mc["rate"]["max_abs_gap"]


class TestReports:
    def test_json_round_trip(self, capsys):
        _, out, _ = run_cli(["pmf"] + TCP_ARGS, capsys)
        report = cli.parse_report(out)
        assert isinstance(report, cli.PmfReport)
        assert report.tail_mass == json.loads(out)["tail_mass"]
        assert json.loads(cli.render_json(report)) == json.loads(out)

    def test_round_trip_all_types(self, capsys):
        cases = [
            (["moments"] + TCP_ARGS, cli.MomentsReport),
            (["pmf"] + TCP_ARGS, cli.PmfReport),
            (["rate"] + TCP_ARGS + ["--thresholds", "1e5"], cli.RateReport),
            (["simulate"] + TCP_ARGS + ["--realizations", "50", "--seed", "1"],
             cli.SimulateReport),
            (["compare"] + TCP_ARGS + ["--realizations", "3000", "--seed", "1",
              "--tv-tolerance", "0.5"], cli.CompareReport),
        ]
        for argv, typ in cases:
            _, out, _ = run_cli(argv, capsys)
            report = cli.parse_report(out)
            assert isinstance(report, typ)
            assert json.loads(cli.render_json(report)) == json.loads(out)

    def test_csv_format(self, capsys):
        argv = ["rate"] + TCP_ARGS + ["--thresholds", "1e5,2e5", "--format", "csv"]
        code, out, _ = run_cli(argv, capsys)
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["threshold_bps", "coverage"]
        assert float(rows[1][0]) == 1e5
        assert 0.0 <= float(rows[1][1]) <= 1.0

    @pytest.mark.parametrize("name", sorted(p.name for p in EXAMPLE_DIR.glob("*.json")))
    def test_csv_of_every_example(self, name):
        text = (EXAMPLE_DIR / name).read_text()
        d = json.loads(text)
        rows = list(csv.reader(io.StringIO(cli.render_csv(cli.parse_report(text)))))
        header, body = rows[0], rows[1:]
        kind = d["report"]
        if kind == "pmf":
            assert header == ["n", "analytic"] + ["empirical"] * bool(d.get("empirical"))
            assert len(body) == len(d["probs"])
        elif kind == "rate":
            assert header == ["threshold_bps", "coverage"] + ["empirical"] * bool(d.get("empirical"))
            assert len(body) == len(d["thresholds"])
        elif kind == "compare":
            assert header == ["check", "value", "tolerance", "pass"]
            assert [r[0] for r in body] == [c["check"] for c in d["checks"]]
        else:
            assert header == ["key", "value"]
            skipped = {"report", "probs", "empirical_pmf", "checks"}
            assert [r[0] for r in body] == sorted(d.keys() - skipped)

    def test_csv_pads_short_empirical_pmf(self):
        report = cli.PmfReport(model={}, probs=[0.5, 0.25, 0.25], tail_mass=0.0,
                               empirical=[0.75, 0.25], tv_distance=0.25)
        rows = list(csv.reader(io.StringIO(cli.render_csv(report))))
        assert rows == [["n", "analytic", "empirical"], ["0", "0.5", "0.75"],
                        ["1", "0.25", "0.25"], ["2", "0.25", "0.0"]]

    def test_parse_report_unknown_tag(self):
        with pytest.raises(ConfigurationError, match="unknown report type 'histogram'"):
            cli.parse_report(json.dumps({"report": "histogram", "model": {}}))

    def test_parse_report_unknown_field(self):
        # a pmf report written before the DFT self-test was retired
        d = json.loads((EXAMPLE_DIR / "pmf.json").read_text())
        d["nb_selftest_max_error"] = 1e-12
        with pytest.raises(ConfigurationError, match=r"pmf report: unknown fields "
                           r"\['nb_selftest_max_error'\], missing fields \[\]"):
            cli.parse_report(json.dumps(d))

    def test_parse_report_missing_field(self):
        d = json.loads((EXAMPLE_DIR / "rate.json").read_text())
        del d["coverage"], d["thresholds"]
        with pytest.raises(ConfigurationError,
                           match=r"missing fields \['coverage', 'thresholds'\]"):
            cli.parse_report(json.dumps(d))

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_output_ends_in_one_newline(self, fmt, capsys, tmp_path):
        argv = ["rate"] + TCP_ARGS + ["--thresholds", "1e5,2e5", "--format", fmt]
        _, out, _ = run_cli(argv, capsys)
        path = tmp_path / "report.txt"
        run_cli(argv + ["--out", str(path)], capsys)
        for text in (out, path.read_text()):
            assert text.endswith("\n") and not text.endswith("\n\n")
        assert out == path.read_text()

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        argv = ["moments"] + TCP_ARGS + ["--out", str(path)]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["mean"] == 25.0


def run_entry(argv):
    """`python -m cellload.cli argv` in a fresh interpreter, the program entry a user runs."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, "-m", "cellload.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True)


class TestProcess:
    def test_entry_pmf_matches_main(self, capsys):
        proc = run_entry(["pmf"] + TCP_ARGS)
        code, out, _ = run_cli(["pmf"] + TCP_ARGS, capsys)
        assert proc.returncode == code == 0
        assert proc.stdout == out and proc.stderr == ""

    def test_entry_validation_error(self):
        proc = run_entry(["moments"] + TCP_ARGS[:-1] + ["-0.1"])
        assert proc.returncode == cli.EXIT_VALIDATION
        assert proc.stdout == "" and proc.stderr.startswith("validation error: ")

    def test_entry_convergence_error(self):
        proc = run_entry(["pmf"] + TCP_ARGS[:-1] + ["1e9"])
        assert proc.returncode == cli.EXIT_CONVERGENCE
        assert proc.stdout == "" and "exact mean" in proc.stderr

    def test_entry_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        proc = run_entry(["rate"] + TCP_ARGS + ["--out", str(path)])
        _, out, _ = run_cli(["rate"] + TCP_ARGS, capsys)
        assert proc.returncode == 0 and proc.stdout == ""
        assert path.read_text() == out

    def test_entry_freezes_before_main(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 0)
        assert cli.run() == 0 and calls == ["freeze", "main"]

    def test_main_leaves_collector_unfrozen(self, capsys):
        # only the program entry freezes the start-up heap
        frozen = gc.get_freeze_count()
        assert cli.main(["moments"] + TCP_ARGS) == 0
        assert gc.get_freeze_count() == frozen

    def test_bare_value_error_propagates(self, monkeypatch):
        # a bare ValueError is a programming error, not an invalid input
        def broken(net):
            raise ValueError("not an input error")

        monkeypatch.setattr(analytic, "load_moments", broken)
        with pytest.raises(ValueError, match="not an input error"):
            cli.main(["moments"] + TCP_ARGS)

    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs about a second of every cold CLI process
        src = Path(__file__).resolve().parents[1] / "src"
        probe = "import sys, cellload.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"


def _module_functions(path: Path):
    """Per top-level function of a module: the `args.<name>` attributes it
    reads and the top-level functions it calls by name."""
    tree = ast.parse(path.read_text())
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    reads, calls = {}, {}
    for name, fn in funcs.items():
        nodes = list(ast.walk(fn))
        reads[name] = {n.attr for n in nodes if isinstance(n, ast.Attribute)
                       and isinstance(n.value, ast.Name) and n.value.id == "args"}
        calls[name] = {n.func.id for n in nodes if isinstance(n, ast.Call)
                       and isinstance(n.func, ast.Name) and n.func.id in funcs}
    return reads, calls


def test_every_option_is_read():
    """An accepted option that no code path reads is a setting that silently
    does nothing; every option of every subcommand must be read by its
    command, `emit` or `main`, or by a function they call."""
    reads, calls = _module_functions(Path(cli.__file__))
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    unread = {}
    for command, sub in subparsers.choices.items():
        todo, seen = [f"cmd_{command}", "emit", "main"], set()
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(calls[name])
        read = set().union(*(reads[name] for name in seen))
        dests = {a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)}
        if dests - read:
            unread[command] = sorted(dests - read)
    assert unread == {}
