"""The package runs on numpy alone: no command loads scipy, including a
Thomas `pmf` (Marcum Q) and a `rate` (SIR CCDF), and no module under
src/cellload imports it.  Nor do they load numpy.polynomial, whose rules and
series are stored as literals.  The analytic commands also load none of the
simulator (`cellload.montecarlo`) or its machinery (the process pool and
numpy.random).  Each CLI case runs in a fresh interpreter, since this test
process has long imported all of them."""

import ast
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
TCP = "--kind tcp --lambda-b 1 --lambda-p 5 --mbar 5 --sigma 0.05"
MCP = "--kind mcp --lambda-b 1 --lambda-p 5 --mbar 5 --cluster-radius 0.1"
CHILD = """
import contextlib, io, json, sys
import cellload, cellload.cli
argv = {argv!r}.split()
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cellload.cli.main(argv) == 0
print(json.dumps(sorted(sys.modules)))
"""
# The simulator and its packages: its process pool and its SFC64 streams.
SIMULATOR = ("cellload.montecarlo", "concurrent.futures", "multiprocessing", "numpy.random")
ANALYTIC_ARGV = pytest.mark.parametrize(
    "argv",
    ["", f"moments {TCP}", f"pmf {MCP}", f"pmf {TCP}", f"rate {TCP}", f"rate {MCP}"],
    ids=["import", "moments", "matern-pmf", "thomas-pmf", "thomas-rate", "matern-rate"],
)


@functools.lru_cache(maxsize=None)
def loaded_modules(argv: str) -> tuple:
    """The modules a fresh interpreter holds after `import cellload,
    cellload.cli` and, unless argv is empty, `cellload.cli.main(argv)`."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", CHILD.format(argv=argv)],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=path),
    )
    return tuple(json.loads(run.stdout.splitlines()[-1]))


@ANALYTIC_ARGV
def test_no_scipy(argv):
    assert [m for m in loaded_modules(argv) if m.partition(".")[0] == "scipy"] == []


@ANALYTIC_ARGV
def test_no_numpy_polynomial(argv):
    # the quadrature rules and the covariogram series are stored, not computed
    assert [m for m in loaded_modules(argv) if m.startswith("numpy.polynomial")] == []


@ANALYTIC_ARGV
def test_no_simulator_machinery(argv):
    loaded = [m for m in loaded_modules(argv)
              if any(m == pkg or m.startswith(pkg + ".") for pkg in SIMULATOR)]
    assert loaded == []


def test_no_module_imports_scipy():
    imported = []
    for path in sorted((Path(SRC) / "cellload").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
            else:
                continue
            imported += [f"{path.name}: {n}" for n in names if n.partition(".")[0] == "scipy"]
    assert imported == []
