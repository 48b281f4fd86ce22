"""One pass of a workload, in a fresh process (started by run.py).

    python3 perfbench/one_pass.py --workload NAME --seed N --out DIR \
        --spawned T [--trace] [--setup-only]

`--spawned` is the parent's `time.monotonic()` just before it started
this process (CLOCK_MONOTONIC is shared by all processes on Linux).
The pass imports `lpplab.cli`, loads and validates the workload's
configs, and reports that instant as `setup_s`.  It then calls
`lpplab.cli.main` once per config, writing under DIR, and prints one
JSON line: setup_s, run_s (first call to last return), cpu_s (process
CPU time over the same interval, all threads), peak_rss_mb, each call's
exit status and the SHA-256 of each CSV it wrote.  With `--trace` the
calls run under `tracer.Tracer` and the line also carries its span
table and whether every original was restored afterwards.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def csv_digests(out_dir):
    digests = {}
    if not os.path.isdir(out_dir):  # the call failed before writing
        return digests
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def run_calls(cli, calls, seed, out):
    """Call `cli.main` once per call, writing under `out`; returns each
    call's exit status and output directory.  The CLI's report lines
    are swallowed."""
    statuses, out_dirs = [], []
    for i, call in enumerate(calls):
        out_dir = os.path.join(out, f"{i}-{call.experiment}")
        argv = [
            call.experiment, "--config", call.config, "--out", out_dir,
            "--workers", str(call.workers), "--seed", str(seed),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            statuses.append(cli.main(argv))
        out_dirs.append(out_dir)
    return statuses, out_dirs


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from lpplab import cli
    from lpplab.harness import load_config
    from workloads import WORKLOADS

    src = os.path.realpath("src") + os.sep
    if not os.path.realpath(cli.__file__).startswith(src):
        raise SystemExit(f"lpplab imported from {cli.__file__}, not from {src}")
    calls = WORKLOADS[args.workload]
    for call in calls:
        load_config(call.config)
    result = {"setup_s": time.monotonic() - args.spawned}
    if args.setup_only:
        print(json.dumps(result))
        return

    tracer = None
    if args.trace:
        from tracer import Tracer, leftover_wrappers

        tracer = Tracer()
        tracer.install()
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        statuses, out_dirs = run_calls(cli, calls, args.seed, args.out)
        result["run_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - c0
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        result["trace"] = tracer.snapshot()
        result["leftover_wrappers"] = leftover_wrappers()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["calls"] = [
        {"experiment": call.experiment, "status": status, "csv": csv_digests(out)}
        for call, status, out in zip(calls, statuses, out_dirs)
    ]
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
