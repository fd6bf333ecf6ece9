"""tools/bench_pairs.py at tiny sizes: HEAD against HEAD, one seed of the
predict workload, and the keys of the file it writes. No timing is
asserted."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_bench_pairs_writes_both_sides_of_every_metric(tmp_path):
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                      capture_output=True).returncode != 0:
        pytest.skip("this checkout is not a git repository with a commit")
    out = tmp_path / "BENCH_0.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "HEAD", "--out", str(out),
         "--workloads", "predict", "--seeds", "1", "--seconds", "0", "--size", "tiny"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())

    assert set(report) == {"revisions", "environment", "protocol", "workloads"}
    revisions = report["revisions"]
    assert set(revisions) == {"base", "change", "change_dirty"}
    assert revisions["base"] == revisions["change"] and len(revisions["base"]) == 40
    assert set(report["environment"]) == {"nproc", "python", "numpy", "blas"}
    assert report["protocol"]["seeds"] == 1 and report["protocol"]["size"] == "tiny"
    assert set(report["workloads"]) == {"predict"}
    predict = report["workloads"]["predict"]
    (pair,) = predict["pairs"]
    assert pair["seed"] == 1 and pair["first"] == "base"
    for side in ("base", "change"):
        assert pair[side]["correct"] and pair[side]["failed"] == 0
    assert set(predict["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        metric = predict["metrics"][spec["name"]]
        assert set(metric) == {"unit", "better", "bound", "base", "change", "pairs_won",
                               "relative_change", "bound_held"}
        assert (metric["unit"], metric["better"], metric["bound"]) == (
            spec["unit"], spec["better"], spec["bound"])
        for side in ("base", "change"):
            assert set(metric[side]) == {"values", "median", "iqr"}
            assert len(metric[side]["values"]) == 1 and metric[side]["iqr"] == 0
        assert metric["pairs_won"] in (0, 1) and isinstance(metric["bound_held"], bool)
