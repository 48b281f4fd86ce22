"""End-to-end cost of every shipped config, one fresh process each.

    python benchmarks/bench_e2e.py [--root CHECKOUT]

Runs each `configs/*.json` of the checkout (default: this repository)
through `python -m lpplab <experiment> --seed 1 --workers 1` with the
checkout's `src/` on the path, in a new process per config, and writes
`BENCH_<commit>.json` at the checkout's root: per config the wall time,
the CPU time (user + system) and the peak resident memory of the child
process, its exit status and the SHA-256 of each CSV it wrote.  It then
runs the checkout's tier-1 suite once and records its wall time and its
passed and failed counts, and adds an environment block (Python, numpy,
scipy, the BLAS and its version, the CPU count and the thread
variables).  `<commit>` is the first 12 characters of the checkout's
HEAD; `dirty` records whether tracked files differed from it.  Every
speed claim compares two such files taken on the same machine, and
equal digests in the two show that a change kept the outputs
byte-identical.

Before the configs it starts 5 fresh processes that import `lpplab.cli`
and print the public `scipy.*` subpackages the import loaded, and
records the median wall time and peak RSS of the five, with that list,
in a `startup` block.  The environment block also records
`PYTHONDONTWRITEBYTECODE`: when it is set, every process compiles
lpplab's sources again, and that is part of every wall time here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
STARTUP_RUNS = 5
# imports the CLI, then prints the public scipy subpackages that import loaded
STARTUP_SCRIPT = (
    "import sys, lpplab.cli; print(' '.join(sorted(m for m, mod in sys.modules.items()"
    " if m.startswith('scipy.') and '._' not in m and hasattr(mod, '__path__'))))"
)


def _git(root, *args):
    return subprocess.run(
        ["git", *args], cwd=root, capture_output=True, text=True, check=True
    ).stdout.strip()


def environment():
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    names = sorted(set(THREAD_VARS) | {k for k in os.environ if k.endswith("_NUM_THREADS")})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k, "unset") for k in names},
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", "unset"),
        "machine": platform.machine(),
    }


def csv_digests(out_dir):
    """SHA-256 of each CSV in out_dir, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.glob("*.csv"))
    }


def run_config(root, config, out_dir):
    """Wall s, CPU s, peak RSS MB, exit status and CSV digests of one
    config run."""
    experiment = json.loads(config.read_text())["experiment"]
    out = out_dir / config.stem
    cmd = [
        sys.executable, "-m", "lpplab", experiment, "--config", str(config),
        "--out", str(out), "--seed", "1", "--workers", "1",
    ]
    wall, usage, status = timed(
        cmd, root, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    return {
        "experiment": experiment,
        "wall_s": round(wall, 3),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),  # ru_maxrss is in KiB
        "exit_status": status,
        "csv_sha256": csv_digests(out),
    }


def timed(cmd, root, **popen):
    """Wall s and the rusage of one child process run in root with the
    checkout's src/ on the path, and its exit status."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, **popen)
    _, status, usage = os.wait4(proc.pid, 0)
    return time.perf_counter() - t0, usage, os.waitstatus_to_exitcode(status)


def startup(root):
    """Median wall s and peak RSS MB of STARTUP_RUNS fresh processes that
    import lpplab.cli, and the public scipy subpackages the import loaded."""
    walls, rss = [], []
    with tempfile.TemporaryFile("w+") as out:
        for _ in range(STARTUP_RUNS):
            out.seek(0)
            out.truncate()
            wall, usage, status = timed(
                [sys.executable, "-c", STARTUP_SCRIPT], root,
                stdout=out, stderr=subprocess.DEVNULL,
            )
            if status != 0:
                raise SystemExit(f"importing lpplab.cli failed with status {status}")
            walls.append(wall)
            rss.append(usage.ru_maxrss / 1024)  # ru_maxrss is in KiB
        out.seek(0)
        modules = out.read().split()
    return {
        "command": "python -c 'import lpplab.cli'",
        "runs": STARTUP_RUNS,
        "median_wall_s": round(statistics.median(walls), 3),
        "median_peak_rss_mb": round(statistics.median(rss), 1),
        "scipy_subpackages": modules,
    }


def run_tier1(root):
    """Wall s and passed/failed counts of one run of the checkout's tier-1
    suite, from pytest's closing summary line."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *TIER1], cwd=root, env=env, capture_output=True, text=True
    )
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed)", summary)}
    return {
        "command": "python " + " ".join(TIER1),
        "wall_s": round(wall, 3),
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0),
        "summary": summary,
        "exit_status": proc.returncode,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--root", default=Path(__file__).resolve().parents[1], type=Path,
        help="checkout to measure (default: this repository)",
    )
    root = parser.parse_args(argv).root.resolve()
    commit = _git(root, "rev-parse", "HEAD")
    dirty = bool(_git(root, "status", "--porcelain", "--untracked-files=no"))
    configs = sorted((root / "configs").glob("*.json"))
    start = startup(root)
    print(f"startup: median wall {start['median_wall_s']:.3f} s, "
          f"peak {start['median_peak_rss_mb']:.1f} MB, "
          f"scipy {' '.join(start['scipy_subpackages'])}")
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config in configs:
            results[config.name] = run_config(root, config, Path(tmp))
            r = results[config.name]
            print(f"{config.name}: wall {r['wall_s']:.2f} s, cpu {r['cpu_s']:.2f} s, "
                  f"peak {r['peak_rss_mb']:.1f} MB, exit {r['exit_status']}")
    tier1 = run_tier1(root)
    print(f"tier-1: wall {tier1['wall_s']:.1f} s, {tier1['summary']}")
    report = {
        "commit": commit,
        "dirty": dirty,
        "seed": 1,
        "workers": 1,
        "environment": environment(),
        "startup": start,
        "configs": results,
        "total_wall_s": round(sum(r["wall_s"] for r in results.values()), 3),
        "tier1": tier1,
    }
    out = root / f"BENCH_{commit[:12]}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 0 if all(r["exit_status"] == 0 for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
