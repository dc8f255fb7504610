import csv
import io
import json
import math

import numpy as np
import pytest

from cellload import analytic, cli

from helpers import sir_ccdf_by_quadrature

TCP_ARGS = ["--kind", "tcp", "--lambda-b", "1", "--lambda-p", "5", "--mbar", "5",
            "--sigma", "0.05"]
MCP_ARGS = ["--kind", "mcp", "--lambda-b", "1", "--lambda-p", "5", "--mbar", "5",
            "--cluster-radius", "0.1"]
# so few users that every sampled cell is empty
EMPTY_ARGS = ["--kind", "tcp", "--lambda-b", "1", "--lambda-p", "5", "--mbar", "1e-9",
              "--sigma", "0.05"]


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

    def test_missing_kernel_parameter(self, capsys):
        code, _, err = run_cli(
            ["moments", "--kind", "mcp", "--lambda-b", "1", "--lambda-p", "5", "--mbar", "5"],
            capsys,
        )
        assert code == cli.EXIT_VALIDATION
        assert "cluster-radius" in err


class TestPmf:
    def test_inversion_report(self, capsys):
        code, out, _ = run_cli(["pmf"] + TCP_ARGS + ["--dft-size", "128"], capsys)
        assert code == 0
        d = json.loads(out)
        assert len(d["probs"]) == 128
        assert abs(d["raw_sum"] - 1.0) <= 1e-4
        assert d["min_raw"] >= -1e-6

    def test_nb_selftest_flag(self, capsys):
        code, out, _ = run_cli(["pmf"] + TCP_ARGS + ["--self-test-nb"], capsys)
        d = json.loads(out)
        assert d["nb_selftest_max_error"] < 1e-10

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

    def test_mc_tv_distance(self, capsys):
        code, out, _ = run_cli(
            ["pmf"] + TCP_ARGS + ["--mc", "--realizations", "3000", "--seed", "3"], capsys
        )
        d = json.loads(out)
        assert d["tv_distance"] is not None and d["tv_distance"] < 0.2

    def test_non_power_of_two_rejected(self, capsys):
        code, _, err = run_cli(["pmf"] + TCP_ARGS + ["--dft-size", "100"], capsys)
        assert code == cli.EXIT_VALIDATION


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

    def test_mc_gap_reported(self, capsys):
        argv = ["rate"] + TCP_ARGS + ["--mc", "--realizations", "3000", "--seed", "5",
                "--thresholds", "5e4,2e5,8e5"]
        code, out, _ = run_cli(argv, capsys)
        d = json.loads(out)
        assert d["max_abs_gap"] is not None and d["max_abs_gap"] < 0.1


class TestSimulate:
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


class TestReports:
    def test_json_round_trip(self, capsys):
        argv = ["pmf"] + TCP_ARGS + ["--dft-size", "128"]
        _, out, _ = run_cli(argv, capsys)
        report = cli.parse_report(out)
        assert isinstance(report, cli.PmfReport)
        assert report.dft_size == 128
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

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        argv = ["moments"] + TCP_ARGS + ["--out", str(path)]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["mean"] == 25.0
