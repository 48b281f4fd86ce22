"""End-to-end cost of every shipped config, one fresh process each.

    python benchmarks/bench_e2e.py [--root CHECKOUT] [--parent CHECKOUT] [--pairs K]

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

Before the configs it starts 15 fresh processes that import
`lpplab.cli` and print the public `scipy.*` subpackages the import
loaded and whether it loaded `jsonschema`, and records the median wall
time, CPU time (user + system) and peak RSS of the fifteen, with that
list and flag, in a `startup` block.  The CPU time resolves an import
change of a few tens of milliseconds that the wall time, with its
spread, cannot.  The environment block also records
`PYTHONDONTWRITEBYTECODE`: when it is set, every process compiles
lpplab's sources again, and that is part of every wall time here.

With `--parent CHECKOUT` it measures a parent/change pair in one go: per
config, and for the startup block, it runs the parent and the change K
times each (`--pairs K`), alternating them and swapping which goes
first in each pair, and writes both `BENCH_*.json` files at the
change's root.  A config's `wall_s`, `cpu_s` and `peak_rss_mb` (and the
startup block's medians) are then medians over the K runs; `quartiles`
holds the first and third quartiles of each, and `change_won`, the same
in both files, counts the pairs in which the change read lower.  The
startup block's pair is one batch of 15 imports per side, its medians
and quartiles are over all K batches' imports, and a pair is won on the
batch medians.  `--pairs K` without `--parent` repeats each config K
times on one checkout; `--pairs 1` without it is the single run above.
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
METRICS = ("wall_s", "cpu_s", "peak_rss_mb")
DIGITS = {"wall_s": 3, "cpu_s": 3, "peak_rss_mb": 1}
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
STARTUP_RUNS = 15
# imports the CLI, then prints the public scipy subpackages that import
# loaded and whether it loaded jsonschema
STARTUP_SCRIPT = (
    "import json, sys, lpplab.cli; print(json.dumps([sorted(m for m, mod in sys.modules.items()"
    " if m.startswith('scipy.') and '._' not in m and hasattr(mod, '__path__')),"
    " 'jsonschema' in sys.modules]))"
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


def startup_batch(root):
    """Wall s, CPU s and peak RSS MB of each of STARTUP_RUNS fresh processes
    that import lpplab.cli, the public scipy subpackages the import loaded
    and whether it loaded jsonschema."""
    batch = {"wall_s": [], "cpu_s": [], "peak_rss_mb": []}
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
            batch["wall_s"].append(wall)
            batch["cpu_s"].append(usage.ru_utime + usage.ru_stime)
            batch["peak_rss_mb"].append(usage.ru_maxrss / 1024)  # ru_maxrss is in KiB
        out.seek(0)
        batch["modules"], batch["jsonschema_loaded"] = json.loads(out.read())
    return batch


def startup(batches):
    """The startup block of one checkout's batches: the medians over all
    their processes, and with more than one batch their quartiles."""
    pooled = {m: [x for b in batches for x in b[m]] for m in METRICS}
    block = {
        "command": "python -c 'import lpplab.cli'",
        "runs": len(pooled["wall_s"]),
        "median_wall_s": round(statistics.median(pooled["wall_s"]), 3),
        "median_cpu_s": round(statistics.median(pooled["cpu_s"]), 3),
        "median_peak_rss_mb": round(statistics.median(pooled["peak_rss_mb"]), 1),
        "scipy_subpackages": batches[0]["modules"],
        "jsonschema_loaded": batches[0]["jsonschema_loaded"],
    }
    if len(batches) > 1:
        block["quartiles"] = {m: quartiles(pooled[m], DIGITS[m]) for m in METRICS}
    return block


def quartiles(xs, digits):
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [round(q1, digits), round(q3, digits)]


def merge_runs(runs):
    """One config's entry from its runs on one checkout: the medians, the
    first exit status that is not 0 and the first run's digests, and with
    more than one run the quartiles and whether every run wrote the same
    CSV bytes."""
    entry = {"experiment": runs[0]["experiment"]}
    for m in METRICS:
        entry[m] = round(statistics.median(r[m] for r in runs), DIGITS[m])
    entry["exit_status"] = next((r["exit_status"] for r in runs if r["exit_status"]), 0)
    entry["csv_sha256"] = runs[0]["csv_sha256"]
    if len(runs) > 1:
        entry["runs"] = len(runs)
        entry["quartiles"] = {m: quartiles([r[m] for r in runs], DIGITS[m]) for m in METRICS}
        entry["csv_same_every_run"] = all(r["csv_sha256"] == entry["csv_sha256"] for r in runs)
    return entry


def change_won(parent, change):
    """Per metric, the pairs in which the change read lower than the parent."""
    return {m: sum(c < p for p, c in zip(parent[m], change[m])) for m in METRICS}


def alternate(measure, sides, pairs):
    """measure(side) `pairs` times per side, one pair at a time, the side
    that goes first swapped from pair to pair; the results per side."""
    runs = [[] for _ in sides]
    for k in range(pairs):
        order = list(enumerate(sides))
        for i, side in order[::-1] if k % 2 else order:
            runs[i].append(measure(side))
    return runs


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
        help="checkout to measure, the change of a pair (default: this repository)",
    )
    parser.add_argument(
        "--parent", type=Path, help="checkout of the parent commit, to measure as a pair"
    )
    parser.add_argument("--pairs", type=int, default=1, help="runs per config and side")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    root = args.root.resolve()
    sides = [root] if args.parent is None else [args.parent.resolve(), root]
    commits = [_git(side, "rev-parse", "HEAD") for side in sides]
    if len(set(commits)) < len(commits):
        raise SystemExit("the parent and the change are the same commit")
    labels = ["change"] if len(sides) == 1 else ["parent", "change"]

    batches = alternate(startup_batch, sides, args.pairs)
    starts = [startup(b) for b in batches]
    if len(sides) == 2:
        medians = [{m: [statistics.median(b[m]) for b in bs] for m in METRICS} for bs in batches]
        for block in starts:
            block["change_won"] = change_won(*medians)
    for label, start in zip(labels, starts):
        print(f"startup ({label}): median wall {start['median_wall_s']:.3f} s, "
              f"cpu {start['median_cpu_s']:.3f} s, "
              f"peak {start['median_peak_rss_mb']:.1f} MB, "
              f"scipy {' '.join(start['scipy_subpackages'])}, "
              f"jsonschema {'loaded' if start['jsonschema_loaded'] else 'not loaded'}")

    names = sorted({c.name for side in sides for c in (side / "configs").glob("*.json")})
    results = [{} for _ in sides]
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            present = [i for i, side in enumerate(sides) if (side / "configs" / name).is_file()]
            runs = alternate(
                lambda i: run_config(sides[i], sides[i] / "configs" / name, Path(tmp) / str(i)),
                present, args.pairs,
            )
            for i, r in zip(present, runs):
                results[i][name] = merge_runs(r)
            if len(present) == 2:
                won = change_won(*({m: [x[m] for x in r] for m in METRICS} for r in runs))
                for i in present:
                    results[i][name]["change_won"] = won
            for i in present:
                r = results[i][name]
                print(f"{name} ({labels[i]}): wall {r['wall_s']:.2f} s, cpu {r['cpu_s']:.2f} s, "
                      f"peak {r['peak_rss_mb']:.1f} MB, exit {r['exit_status']}"
                      + (f", change won {r['change_won']['wall_s']}/{args.pairs} on wall"
                         if "change_won" in r else ""))

    status = 0
    for i, side in enumerate(sides):
        tier1 = run_tier1(side)
        print(f"tier-1 ({labels[i]}): wall {tier1['wall_s']:.1f} s, {tier1['summary']}")
        report = {
            "commit": commits[i],
            "dirty": bool(_git(side, "status", "--porcelain", "--untracked-files=no")),
            "seed": 1,
            "workers": 1,
            "environment": environment(),
            "startup": starts[i],
            "configs": results[i],
            "total_wall_s": round(sum(r["wall_s"] for r in results[i].values()), 3),
            "tier1": tier1,
        }
        if len(sides) == 2:
            report["pairs"] = args.pairs
            report["paired_with"] = commits[1 - i]
        elif args.pairs > 1:
            report["pairs"] = args.pairs
        out = root / f"BENCH_{commits[i][:12]}.json"
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}")
        if any(r["exit_status"] != 0 for r in results[i].values()):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
