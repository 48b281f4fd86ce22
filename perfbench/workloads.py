"""The benchmark's workloads: which CLI calls one pass makes.

A pass is one fresh Python process that calls `lpplab.cli.main` once per
entry, in order, with the benchmark's `--seed`.  Config paths are
relative to the repository root.  Configs under `perfbench/configs/`
are shipped configs cut down so that one pass takes 4 to 8 seconds on
a 2-core machine; see README.md for what was cut and why.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Call:
    experiment: str
    config: str
    workers: int


WORKLOADS = {
    "quasilocal-transport": (
        Call("weak-step", "perfbench/configs/weak-step.json", 1),
        Call("impurity-lppl", "perfbench/configs/impurity-lppl.json", 1),
    ),
    "probe-sweeps": (
        Call("lr-cone", "perfbench/configs/lr-cone.json", 2),
        Call("clustering", "perfbench/configs/clustering.json", 2),
        Call("tqo", "configs/tqo.json", 2),
    ),
    "boson-flow": (
        Call("sequential-coupling", "perfbench/configs/sequential-coupling.json", 1),
        Call("kato-flow", "configs/kato-flow.json", 1),
        Call("ct-profile", "configs/ct-profile.json", 1),
    ),
}
