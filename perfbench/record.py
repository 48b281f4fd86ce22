"""Write a results file for the checked-out commit.  Run from the
repository root:

    python3 perfbench/record.py

Runs every workload once untraced and once traced (see run.py), with
seed 1 and the `run_seconds` of BENCHMARK.json, and
writes perfbench/results/<commit>.json with the environment block and,
per workload, the untraced end-to-end summary (median, max and sample
count per metric), fail_ratio, the traced per-layer metrics, the full
span table of the first traced pass and the tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

import run


def environment(root):
    """Versions, BLAS, CPU count, thread variables and commit of this run."""
    import numpy
    import scipy

    sys.path.insert(0, os.path.join(root, "src"))
    try:
        from lpplab import kernels
    finally:
        sys.path.pop(0)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = sorted(
        {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"}
        | {k for k in os.environ if k.endswith("_NUM_THREADS")}
    )
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "kernels_backend": kernels.BACKEND,
        "thread_env": {k: os.environ.get(k, "unset") for k in threads},
        "commit": commit,
    }


def main():
    root = os.getcwd()
    run.check_checkout(root)
    spec = run.load_spec(root)
    seconds = spec["run_seconds"]

    env = environment(root)
    results = {"environment": env, "run_seconds": seconds, "workloads": {}}
    for name in run.WORKLOADS:
        entry = {}
        for trace in (0, 1):
            report = run.run(root, spec, name, 1, seconds, trace)
            entry["traced" if trace else "untraced"] = report
            print(f"{name} trace={trace}: {report['failed']}/{report['attempted']} passes failed",
                  flush=True)
        results["workloads"][name] = entry

    path = os.path.join(run.HERE, "results", f"{env['commit'][:12]}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
