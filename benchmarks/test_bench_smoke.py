"""Smoke test of the benchmark at tiny sizes.

Every workload and the traced run must finish, pass their own output
checks and print every metric BENCHMARK.json declares, with its unit.
No timing is asserted.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parent / "BENCHMARK.json"
SPEC = json.loads(SPEC_PATH.read_text())


def run_benchmark(script: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload,trace", [
    ("train", 0), ("eval", 0), ("predict", 0), ("eval", 1),
])
def test_workload_passes_its_checks_and_prints_every_metric(workload, trace):
    proc = run_benchmark(HERE / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    printed = {tuple(line.split()[::2]) for line in lines[:-1] if len(line.split()) == 3}
    assert set(declared.items()) <= printed


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path / HERE.name / "run.py", "train", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
