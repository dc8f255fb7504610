"""Smoke test of the benchmark itself.

    python -m pytest -q perfbench/smoke_check.py

The file name keeps it out of the default test collection: it spawns the
benchmark at its tiny size for every workload, untraced and traced, which
takes about two minutes because each CLI `moments` call fills the E[V^2]
kernel.
"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Names the benchmark must not use: private names, and public ones slated for removal.
RETIRED = {"Realization", "realizations", "collect_cell_area", "integrate_nested",
           "integrate_semi_infinite", "DiscPair"}


def _cellload_name_problems(tree: ast.AST, where: str) -> list:
    bound = set()
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cellload"):
            for alias in node.names:
                bound.add(alias.asname or alias.name)
                if alias.name.startswith("_") or alias.name in RETIRED:
                    problems.append(f"{where}:{node.lineno} imports cellload name {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("cellload"):
                    bound.add((alias.asname or alias.name).split(".")[0])
                    if any(part.startswith("_") for part in alias.name.split(".")):
                        problems.append(f"{where}:{node.lineno} imports {alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                private = node.attr.startswith("_") and not node.attr.startswith("__")
                if private or node.attr in RETIRED:
                    problems.append(f"{where}:{node.lineno} uses cellload name {node.attr}")
        elif isinstance(node, ast.Name) and node.id in RETIRED:
            problems.append(f"{where}:{node.lineno} uses {node.id}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and "cellload" in node.value:
            try:  # code strings run in child interpreters
                inner = ast.parse(node.value)
            except SyntaxError:
                continue
            problems += _cellload_name_problems(inner, f"{where}:{node.lineno} (code string)")
    return problems


def test_benchmark_uses_only_public_cellload_names():
    problems = []
    for path in sorted(HERE.glob("*.py")):
        if path.name == Path(__file__).name:  # holds a deliberate bad example
            continue
        problems += _cellload_name_problems(ast.parse(path.read_text()), path.name)
    for module, attr, _ in spans.LAYER_WRAPS:
        if attr.startswith("_") or attr in RETIRED:
            problems.append(f"spans.LAYER_WRAPS wraps {module}.{attr}")
    assert not problems, "\n".join(problems)


def test_name_check_catches_private_use():
    tree = ast.parse("from cellload import analytic\nanalytic._ev2_kernel()\n")
    assert _cellload_name_problems(tree, "probe")


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_workload_prints_every_metric_and_a_span_tree(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == expected
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    record = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed0-trace1.json").read_text())
    assert record["spans"]
    assert spans.check_tree(record["spans"]) == []


def test_fails_without_the_program():
    bare = ROOT / ".perfbench_out" / "bare"  # only BENCHMARK.json and perfbench/
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("mc-sample", 0, cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
