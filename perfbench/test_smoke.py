"""Smoke test of the benchmark itself at tiny size (coarse grid, 2 events,
a few epochs). Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.5"]
    return subprocess.run(
        cmd + ["--trace", str(trace), "--size", "tiny", *extra], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    text, result = result_of(run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(re.match(rf"{re.escape(name)} = \S+ {re.escape(unit)}\b", line) for line in text), name
    if not trace:
        assert any(line.startswith("error_rate = ") for line in text)
    if trace and workload == "fit_thermal":
        assert result["metrics"]["backend.calls"]["value"] == 0


@pytest.mark.parametrize("fault", ["wrong", "raise"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_fault_is_a_failed_op(workload, fault):
    text, result = result_of(run(workload, 0, "--inject-fault", fault))
    assert result["failed"] == 1 and result["attempted"] >= 2
    assert not result["correct"]
    assert any(line == f"error_rate = {1 / result['attempted']:.4f} (1/{result['attempted']} ops failed)" for line in text)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("solve_cold", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
