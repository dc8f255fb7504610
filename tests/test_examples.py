"""The pmf and rate examples under docs/examples/ regenerate from the commands
that docs/reports.md and README.md record for them."""

import json
import math
from pathlib import Path

import pytest

from cellload import cli

ROOT = Path(__file__).resolve().parents[1]

EXAMPLES = {
    "pmf.json": "cellload pmf --kind mcp --lambda-b 1 --lambda-p 5 --mbar 5 "
    "--cluster-radius 0.1 --dft-size 128 --mc --realizations 20000 --seed 7",
    "rate.json": "cellload rate --kind tcp --lambda-b 1 --lambda-p 5 --mbar 5 --sigma 0.05 "
    "--alpha 4 --bandwidth 1e6 --backhaul 2e6 --thresholds 5e4,1e5,2e5,5e5,1e6 "
    "--mc --realizations 5000 --seed 7",
}

# fields computed from the simulated loads alone; everything else that is a
# float depends on the analytic chain
MC_FIELDS = {"empirical"}


def _one_line(text: str) -> str:
    return " ".join(text.replace("\\\n", " ").split())


def _assert_matches(got, want, key):
    if key in MC_FIELDS or not isinstance(want, (float, list)):
        assert got == want, key
    elif isinstance(want, list):
        assert len(got) == len(want), key
        for g, w in zip(got, want):
            _assert_matches(g, w, key)
    else:
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=1e-12), (key, got, want)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_command_is_documented(name):
    command = EXAMPLES[name]
    assert command in _one_line((ROOT / "docs" / "reports.md").read_text())
    assert command in _one_line((ROOT / "README.md").read_text())


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_regenerates(name, capsys):
    argv = EXAMPLES[name].split()[1:]
    assert cli.main(argv) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((ROOT / "docs" / "examples" / name).read_text())
    assert got.keys() == want.keys()
    for key in want:
        _assert_matches(got[key], want[key], key)
