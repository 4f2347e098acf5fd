#!/usr/bin/env python3
"""The earshot benchmark.

Run from the repository root:

    python3 bench/run.py --workload {render,stream,study,all} --seed N --seconds S --trace {0,1}

One workload per process.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The line
before it holds the provenance, the workload's own metrics in wall-clock
units and the failed checks.  ``--workload all`` runs every
workload in a fresh child process and prints each one's lines in turn.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("render", "stream", "study")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def git_state():
    """(sha, dirty) of the checkout, or (None, None) outside a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None, None
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return sha, bool(status.strip())


def as_json(table) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in table.items()}


def run_all(args) -> int:
    """Every workload in its own fresh process, so RSS and warm-up stay its own."""
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        child = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(child.stdout)
        code = code or child.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    if not os.path.isfile(os.path.join(SRC, "earshot", "__init__.py")):
        print(f"bench: no earshot sources under {SRC}", file=sys.stderr)
        return 2
    # One single-threaded harness; NumPy's own pool is capped at the usable cores.
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ.setdefault(var, str(nproc))
    sys.path.insert(0, SRC)

    import numpy as np

    import earshot
    import workloads
    from tracer import Tracer

    if os.path.dirname(os.path.abspath(earshot.__file__)) != os.path.join(SRC, "earshot"):
        print(f"bench: imported earshot from {earshot.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    tracer = Tracer() if args.trace else None
    run = workloads.Run(seed=args.seed, seconds=args.seconds, work=work, src=SRC, tracer=tracer)
    try:
        metrics, overhead, detail, counts = workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is not None:
        tracer.write(os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        metrics = dict(tracer.metrics(), **overhead)
    sha, dirty = git_state()
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "git_dirty": dirty,
        "backend": earshot.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "samples_behind_percentiles": counts,
    }
    print(json.dumps({"provenance": provenance, "workload_metrics": as_json(detail),
                      "failed_checks": run.problems}))
    print(json.dumps({
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": as_json(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
