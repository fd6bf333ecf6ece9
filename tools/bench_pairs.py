#!/usr/bin/env python3
"""Measure the working tree against a base revision, in alternating pairs.

    python3 tools/bench_pairs.py BASE --out BENCH_<pr>.json
        [--workloads train,eval,predict] [--seeds 10] [--seconds 8] [--size full]

BASE (any revision git can name) is exported with ``git archive`` into a
temporary directory, so nothing is written under ``.git``. For each seed
1..N and each workload, ``benchmarks/run.py --workload W --seed i
--seconds S --trace 0`` runs once in that export and once in the working
tree, each in a process of its own; odd seeds run the base first, even
seeds the working tree. The result is written to the --out file.

Per workload and end-to-end metric of the working tree's BENCHMARK.json,
the file holds every run's value on both sides, each side's median and
interquartile range, the pairs the working tree won, the relative change
of the medians, the metric's bound and whether the bound held (the
working tree's median no worse than the base's by more than the bound).
It also records both revisions, whether the working tree had uncommitted
changes, and the environment the benchmark itself reports: nproc, Python,
numpy and the BLAS. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("train", "eval", "predict")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the revision to measure against")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default=10, type=int, help="pairs per workload")
    parser.add_argument("--seconds", default=8.0, type=float)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    args = parser.parse_args(argv)
    args.workloads = args.workloads.split(",")
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown or args.seeds < 1:
        parser.error(f"unknown workloads {sorted(unknown)}" if unknown
                     else "--seeds must be >= 1")
    return args


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, into: Path):
    archive = into / "base.zip"
    git("archive", "--format=zip", "-o", str(archive), rev)
    with zipfile.ZipFile(archive) as z:
        z.extractall(into / "tree")
    archive.unlink()
    return into / "tree"


def run_once(tree: Path, workload: str, seed: int, seconds: float, size: str) -> dict:
    """One benchmark process in tree: its result line and its run record."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--size", size],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {workload} seed {seed} in {tree} failed:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    record = next(line.split(" ", 1)[1] for line in lines if line.startswith("record "))
    return {"result": json.loads(lines[-1]),
            "environment": json.loads((tree / record).read_text())["environment"]}


def spread(values) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"values": values, "median": statistics.median(values), "iqr": q3 - q1}


def summary(spec: dict, base: list, change: list) -> dict:
    """One metric's two sides, from the pairs' results in seed order."""
    higher = spec["better"] == "higher"
    b, c = spread(base), spread(change)
    relative = c["median"] / b["median"] - 1.0 if b["median"] else 0.0
    worse = -relative if higher else relative
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "base": b, "change": c,
        "pairs_won": sum((y > x) if higher else (y < x) for x, y in zip(base, change)),
        "relative_change": relative,
        "bound_held": worse <= spec["bound"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    revisions = {
        "base": git("rev-parse", "--verify", f"{args.base}^{{commit}}"),
        "change": git("rev-parse", "--verify", "HEAD"),
        "change_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
    }
    workloads, environment = {}, None
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {"base": export(revisions["base"], Path(tmp)), "change": ROOT}
        for workload in args.workloads:
            pairs, results = [], {side: [] for side in trees}
            for seed in range(1, args.seeds + 1):
                order = ("base", "change") if seed % 2 else ("change", "base")
                for side in order:
                    run = run_once(trees[side], workload, seed, args.seconds, args.size)
                    results[side].append(run["result"])
                    environment = environment or run["environment"]
                pairs.append({"seed": seed, "first": order[0], **{
                    side: {key: results[side][-1][key] for key in ("correct", "attempted",
                                                                   "failed")}
                    for side in trees}})
            workloads[workload] = {"pairs": pairs, "metrics": {
                m["name"]: summary(m, *([r["metrics"][m["name"]]["value"] for r in results[side]]
                                        for side in ("base", "change")))
                for m in spec}}
    report = {
        "revisions": revisions,
        "environment": {key: environment[key] for key in ("nproc", "python", "numpy", "blas")},
        "protocol": {"seeds": args.seeds, "seconds": args.seconds, "size": args.size,
                     "trace": 0, "order": "odd seeds run the base first"},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
