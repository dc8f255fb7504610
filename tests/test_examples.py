"""Every example under docs/examples/ regenerates from the command that
docs/reports.md and README.md record for it."""

import argparse
import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

from cellload import cli

ROOT = Path(__file__).resolve().parents[1]
EXAMPLE_DIR = ROOT / "docs" / "examples"

TCP = "--kind tcp --lambda-b 1 --lambda-p 5 --mbar 5 --sigma 0.05"
EXAMPLES = {
    "moments.json": f"cellload moments {TCP} --mc --realizations 5000 --seed 7",
    "pmf.json": "cellload pmf --kind mcp --lambda-b 1 --lambda-p 5 --mbar 5 "
    "--cluster-radius 0.1 --mc --realizations 20000 --seed 7",
    "rate.json": f"cellload rate {TCP} "
    "--alpha 4 --bandwidth 1e6 --backhaul 2e6 --thresholds 5e4,1e5,2e5,5e5,1e6 "
    "--mc --realizations 5000 --seed 7",
    "simulate.json": f"cellload simulate {TCP} "
    "--with-sir --realizations 2000 --seed 7 --raw-out samples.csv",
    "compare.json": f"cellload compare {TCP} --with-rate --realizations 20000 --seed 7",
}

# fields computed from the simulated samples alone, compared exactly; every
# other float depends on the analytic chain and is compared at abs 1e-12
MC_FIELDS = {
    "moments.json": {"mc"},
    "pmf.json": {"empirical"},
    "rate.json": {"empirical"},
    "simulate.json": {
        "empirical_pmf", "mean_load", "normalized_variance", "sir_ccdf",
        "variance_load", "window_radius",
    },
    "compare.json": set(),
}

RAW_ROWS = 20   # docs/examples/simulate_raw.csv: the header and the first rows of samples.csv


def _one_line(text: str) -> str:
    return " ".join(text.replace("\\\n", " ").split())


def _assert_matches(got, want, key, exact=False):
    if isinstance(want, dict):
        assert got.keys() == want.keys(), key
        for k in want:
            _assert_matches(got[k], want[k], f"{key}.{k}", exact)
    elif isinstance(want, list):
        assert len(got) == len(want), key
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{key}[{i}]", exact)
    elif exact or not isinstance(want, float):
        assert got == want, (key, got, want)
    else:
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=1e-12), (key, got, want)


def _run(name, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)   # --raw-out writes its file here
    assert cli.main(EXAMPLES[name].split()[1:]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_command_is_documented(name):
    command = EXAMPLES[name]
    assert command in _one_line((ROOT / "docs" / "reports.md").read_text())
    assert command in _one_line((ROOT / "README.md").read_text())


def test_every_example_has_a_command():
    assert {p.name for p in EXAMPLE_DIR.glob("*.json")} == set(EXAMPLES)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_regenerates(name, capsys, monkeypatch, tmp_path):
    got = _run(name, capsys, monkeypatch, tmp_path)
    want = json.loads((EXAMPLE_DIR / name).read_text())
    assert got.keys() == want.keys()
    for key in want:
        _assert_matches(got[key], want[key], key, exact=key in MC_FIELDS[name])


def test_raw_samples_regenerate(capsys, monkeypatch, tmp_path):
    _run("simulate.json", capsys, monkeypatch, tmp_path)
    got = (tmp_path / "samples.csv").read_text().splitlines()
    want = (EXAMPLE_DIR / "simulate_raw.csv").read_text().splitlines()
    assert len(want) == RAW_ROWS + 1
    assert got[: RAW_ROWS + 1] == want


def _documented_fields(tag: str) -> set:
    """Backquoted names in the first column of the field table of a report's
    section in docs/reports.md."""
    text = (ROOT / "docs" / "reports.md").read_text()
    section = re.search(rf"^## {tag} .*?(?=^## |\Z)", text, re.M | re.S)
    assert section, f"docs/reports.md has no section for {tag}"
    rows = re.findall(r"^\| (.*?) \|", section.group(0), re.M)
    return {name for cell in rows for name in re.findall(r"`(\w+)`", cell)}


@pytest.mark.parametrize("tag", sorted(cli.REPORT_TYPES))
def test_every_report_field_is_documented(tag):
    fields = {f.name for f in dataclasses.fields(cli.REPORT_TYPES[tag])} - {"model"}
    assert fields - _documented_fields(tag) == set()


def _options(parser: argparse.ArgumentParser) -> set:
    """Every option string of the parser and of its subcommands, but help."""
    opts = set()
    for action in parser._actions:
        opts.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                opts |= _options(sub)
    return opts - {"-h", "--help"}


def test_every_option_is_documented():
    text = (ROOT / "README.md").read_text() + (ROOT / "docs" / "reports.md").read_text()
    options = _options(cli.build_parser())
    assert "--raw-out" in options and "--tv-tolerance" in options
    missing = {o for o in options if not re.search(rf"(?<![\w-]){re.escape(o)}(?![\w-])", text)}
    assert missing == set()
