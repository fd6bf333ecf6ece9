#!/usr/bin/env python3
"""Benchmark of the treehar pipeline on generated synthetic inputs.

    python3 benchmarks/run.py --workload {train,eval,predict} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

With ``--trace 0`` the chosen workload is set up several times, warmed up,
timed for ``--seconds`` and set up as often again; the median set-up time
is ``setup_s``, and every output is checked. With ``--trace 1`` a separate
traced run reports the per-layer metrics instead. The metric names and
units are those of BENCHMARK.json. Each metric is printed as
``name value unit``; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. A run record
(environment, input hashes, counts) and, for the traced run, the spans with
self times are written under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "eval", "predict"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny inputs for the smoke test")
    return parser.parse_args(argv)


def limit_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        wanted = int(current) if current.isdigit() and 0 < int(current) < nproc else nproc
        os.environ[var] = str(wanted)
    return nproc


def git_commit():
    """The checked-out commit read from .git, or None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "treehar").is_dir():
        print(f"benchmark: no package source at {SRC / 'treehar'}", file=sys.stderr)
        return 2
    nproc = limit_threads()
    sys.path.insert(0, str(SRC))

    import bench_layers
    import bench_workloads as bw

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    sizes = bw.SIZES[args.size]
    tag = f"{args.workload}-s{args.seed}-{args.size}"
    work = WORK / tag
    WORK.mkdir(exist_ok=True)
    if args.trace:
        setup = bench_layers.setup_traced

        def run(state, seconds, sizes, checks):
            return bench_layers.run_traced(state, seconds, sizes, checks,
                                           WORK / f"trace-{tag}.json")
    else:
        setup, run = bw.WORKLOADS[args.workload]

    checks = bw.Checks()
    setup_times = []

    def set_up():
        shutil.rmtree(work, ignore_errors=True)
        elapsed, state = bw.timed(setup, work, args.seed, sizes)
        setup_times.append(elapsed)
        return state

    try:
        for _ in range(sizes.setup_repeats):
            state = set_up()
        bw.warm_up_blas(sizes.blas_warmup_s)
        values, detail, inputs = run(state, args.seconds, sizes, checks)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not args.trace:
            # Set up as often again after the timed loop: the machine's
            # speed drifts over tens of seconds, and setup_s should sample
            # both ends of the run rather than one moment.
            del state
            for _ in range(sizes.setup_repeats):
                set_up()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not args.trace:
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = peak_rss_mb
    if set(values) != set(declared):
        raise RuntimeError(f"measured {sorted(values)}, declared {sorted(declared)}")
    detail["failed_share"] = (checks.failed / max(checks.attempted, 1), "share")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "environment": environment(nproc),
        "inputs": inputs,
        "setup_s_each": setup_times,
        "detail": {name: {"value": v, "unit": u} for name, (v, u) in detail.items()},
        "metrics": {name: {"value": v, "unit": declared[name]} for name, v in values.items()},
        "attempted": checks.attempted, "failed": checks.failed,
        "failures": checks.messages,
    }
    record_path = WORK / f"record-{tag}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    for name, (value, unit) in detail.items():
        print(f"{name} {value!r} {unit}")
    for name in declared:
        print(f"{name} {values[name]!r} {declared[name]}")
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": declared[name]}
                    for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
