"""Command line front end.

One subcommand per experiment.  The runner produces a report in memory;
this layer owns all file I/O: one CSV per table plus a JSON manifest
with the config echo, model constants, fit results, check outcomes,
wall time and the environment the runner ran in.  The runner runs with
BLAS at 1 thread (see blas.py), and a process that imports this module
before numpy starts OpenBLAS at 1 thread unless OPENBLAS_NUM_THREADS is
set, and leaves the variable as it found it.  Exit status: 0 when every
check passed, 2 when a check failed, 1 on error.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from pathlib import Path

# Set while numpy loads its OpenBLAS, which reads it once: the library then
# starts no thread pool to spin up and cap.  A caller's value wins, and one
# set here is removed once read, so that child processes do not inherit it.
_PIN_BLAS = "OPENBLAS_NUM_THREADS" not in os.environ
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np

if _PIN_BLAS:
    del os.environ["OPENBLAS_NUM_THREADS"]
from numpy.random import default_rng

from .blas import blas_thread_counts, blas_threads, thread_budget
from .harness import load_config, write_csv, write_manifest
from .harness.experiments import RUNNERS


def _dist_version(name):
    """The version in the name of the first `<name>-<version>.dist-info`
    directory on sys.path, which is where importlib.metadata finds it,
    or "unknown" when there is none."""
    prefix, suffix = f"{name}-", ".dist-info"
    for entry in sys.path:
        try:
            children = os.listdir(entry or ".")
        except OSError:  # a zip archive or a missing directory
            continue
        for child in children:
            if child.startswith(prefix) and child.endswith(suffix):
                return child[len(prefix) : -len(suffix)]
    return "unknown"


# Read once at import from the directory names, with no importlib.metadata
# (which loads email and locale); scipy itself is imported by the
# iterative solver alone.
SCIPY_VERSION = _dist_version("scipy")
PACKAGE_VERSION = _dist_version("lpplab")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lpplab",
        description="finite-size checks of quasi-local perturbation response",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--workers", type=int, default=1, help="thread count for sweeps")
        p.add_argument("--seed", type=int, default=0, help="seed for random probes")
    return parser


# Built once, at import: argparse's first build loads gettext and locale,
# which a run would otherwise load after the setup.
PARSER = _build_parser()


def main(argv=None):
    # What is alive now, the imported modules above all, outlives the run:
    # frozen, it is not scanned again by the full collections in the runner
    # (about 35 ms each for the ~50k objects the imports leave).
    gc.freeze()
    args = PARSER.parse_args(argv)
    try:
        config = load_config(args.config)
        if config["experiment"] != args.experiment:
            raise ValueError(
                f"config is for {config['experiment']!r}, "
                f"subcommand is {args.experiment!r}"
            )
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        rng = default_rng(args.seed)

        t0 = time.perf_counter()
        with blas_threads(1):
            report = RUNNERS[args.experiment](config, workers=args.workers, rng=rng)
            environment = {
                "numpy": np.__version__,
                "scipy": SCIPY_VERSION,
                "blas_thread_counts": blas_thread_counts(),
                "cpu_count": os.cpu_count(),
                "thread_budget": thread_budget(),
            }
        wall = time.perf_counter() - t0

        outputs = []
        for i, table in enumerate(report["tables"]):
            stem = (
                args.experiment
                if i == 0
                else f"{args.experiment}-{table['name']}"
            )
            outputs.append(
                write_csv(out_dir / f"{stem}.csv", table["header"], table["rows"])
            )

        manifest = {
            "command": " ".join([args.experiment, "--config", str(args.config)]),
            "package_version": PACKAGE_VERSION,
            "config": config,
            "seed": args.seed,
            "workers": args.workers,
            "constants": report["constants"],
            "fits": {k: r.to_dict() for k, r in report["records"].items()},
            "checks": report["checks"],
            "warnings": list(report["warnings"]),
            "outputs": [Path(p).name for p in outputs],
            "wall_time_s": wall,
            "environment": environment,
        }
        outputs.append(
            write_manifest(out_dir / f"{args.experiment}-manifest.json", manifest)
        )
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for check in report["checks"]:
        tag = "PASS" if check["passed"] else "FAIL"
        line = f"[{tag}] {check['name']}"
        if check["detail"]:
            line += f": {check['detail']}"
        print(line)
    for w in report["warnings"]:
        print(f"warning: {w}")
    n_fail = sum(not c["passed"] for c in report["checks"])
    print(
        f"{args.experiment}: {len(report['checks']) - n_fail}/{len(report['checks'])} "
        f"checks passed in {wall:.1f}s; wrote {len(outputs)} files to {out_dir}"
    )
    return 2 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
