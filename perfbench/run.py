"""Benchmark entry point.  Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run first starts one unmeasured warm-up process that only imports
`lpplab.cli` and validates the workload's configs, then runs passes
(see one_pass.py) until the next one would end after S seconds or
after the run's time limit, RUN_LIMIT_S.  With `--trace 0` every pass is untraced; with `--trace 1`
untraced and traced passes alternate.  A pass fails if a call exits
nonzero, writes no CSV, or writes a CSV whose bytes differ from the
first pass of this run, or if tracing left a wrapper behind.

Output: one line per metric (median, max, sample count), a `fail_ratio`
line, and as the last line a JSON object with `correct`, `attempted`,
`failed` and `metrics`: the `end_to_end` metrics of BENCHMARK.json with
`--trace 0`, its `per_layer` metrics with `--trace 1`.  record.py
writes the whole report of every workload to a results file.

The benchmark sets no BLAS thread variables: the passes run with the
environment they are given.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import layer_metric  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_LIMIT_S = 170  # a run must end within 180 s, a hung pass included
E2E = ("setup_s", "run_s", "cpu_s", "peak_rss_mb")


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_checkout(root):
    """Raise SystemExit unless root holds the program's sources."""
    for rel in ("BENCHMARK.json", "src/lpplab/cli.py"):
        if not os.path.isfile(os.path.join(root, rel)):
            raise SystemExit(f"error: {rel} not found under {root}; run from the repository root")


def spawn_pass(root, workload, seed, out, deadline, trace=False, setup_only=False):
    """Run one_pass.py in a fresh process, killed at the `time.monotonic()`
    deadline; its JSON result, or None on failure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    argv = [sys.executable, os.path.join(HERE, "one_pass.py"), "--workload", workload,
            "--seed", str(seed), "--out", out]
    argv += ["--trace"] * trace + ["--setup-only"] * setup_only
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            argv + ["--spawned", repr(spawned)], cwd=root, env=env,
            stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        print("pass killed: the run's time limit was reached", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"pass exited with status {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pass_ok(rec, reference):
    """Whether a pass is correct; the reference is the first pass's CSV digests."""
    if rec is None or rec.get("leftover_wrappers"):
        return False
    digests = [c["csv"] for c in rec["calls"]]
    return (
        all(c["status"] == 0 for c in rec["calls"])
        and all(digests)
        and (reference is None or digests == reference)
    )


def summarize(values):
    return {"median": statistics.median(values), "max": max(values), "n": len(values)}


def run(root, spec, workload, seed, seconds, trace):
    """Measure one workload for about `seconds`; the full report as a dict.

    `spec` is BENCHMARK.json; the report's `metrics` are its end_to_end
    metrics, or with `trace` its per_layer metrics.
    """
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    stop = min(start + seconds, deadline)
    samples = {k: [] for k in E2E}
    traced_run_s, snapshots = [], []
    attempted = failed = 0
    reference = None
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as work:
        if spawn_pass(root, workload, seed, work, deadline, setup_only=True) is None:  # warm-up
            raise SystemExit("error: the program does not start")
        walls = []
        while True:
            traced = trace and attempted % 2 == 1
            out = os.path.join(work, f"pass-{attempted}")
            t0 = time.monotonic()
            rec = spawn_pass(root, workload, seed, out, deadline, trace=traced)
            walls.append(time.monotonic() - t0)
            attempted += 1
            if reference is None and rec is not None:
                reference = [c["csv"] for c in rec["calls"]]
            if not pass_ok(rec, reference):
                failed += 1
            if rec is not None:
                samples["setup_s"].append(rec["setup_s"])
                if traced:
                    traced_run_s.append(rec["run_s"])
                    snapshots.append(rec["trace"])
                else:
                    for k in ("run_s", "cpu_s", "peak_rss_mb"):
                        samples[k].append(rec[k])
            min_passes = 2 if trace else 1
            if rec is None or (
                attempted >= min_passes and time.monotonic() + max(walls) > stop
            ):
                break

    if not samples["run_s"] or (trace and not snapshots):
        raise SystemExit("error: no pass completed")
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "samples": samples,
        "summary": {k: summarize(v) for k, v in samples.items() if v},
        "elapsed_s": time.monotonic() - start,
    }
    if not trace:
        report["metrics"] = {
            m["name"]: {"value": report["summary"][m["name"]]["median"], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
        return report
    report["traced_run_s"] = summarize(traced_run_s)
    report["trace_overhead_s"] = (
        statistics.median(traced_run_s) - statistics.median(samples["run_s"])
    )
    report["trace"] = snapshots[0]
    report["metrics"] = {}
    for m in spec["per_layer"]:
        if m["name"] == "traced_run_s":
            value = report["traced_run_s"]["median"]
        elif m["name"] == "trace_overhead_s":
            value = report["trace_overhead_s"]
        else:
            value = statistics.median(layer_metric(snap, m["name"]) for snap in snapshots)
        report["metrics"][m["name"]] = {"value": value, "unit": m["unit"]}
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description="lpplab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    check_checkout(root)
    spec = load_spec(root)
    report = run(root, spec, args.workload, args.seed, args.seconds, args.trace)
    for name, s in report["summary"].items():
        print(f"{args.workload} {name}: median {s['median']:.4f} max {s['max']:.4f} n={s['n']}")
    if "trace_overhead_s" in report:
        print(f"{args.workload} trace_overhead_s: {report['trace_overhead_s']:.4f}")
    print(f"{args.workload} fail_ratio: {report['failed']}/{report['attempted']} "
          f"= {report['fail_ratio']:.4f}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
