"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q

The traced calls here use small configs (a 6-spin weak step, the shipped
kato-flow and ct-profile) so the file runs in seconds.
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from lpplab import cli, operators, sectors  # noqa: E402
from lpplab.harness import experiments, load_config  # noqa: E402
from one_pass import csv_digests, run_calls  # noqa: E402
from tracer import Tracer, is_wrapper, layer_metric, leftover_wrappers, lpplab_modules  # noqa: E402
from workloads import WORKLOADS, Call  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def small_calls(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    cfg = json.loads((ROOT / "configs" / "weak-step.json").read_text(encoding="utf-8"))
    cfg["model"]["n"] = 6
    cfg["sweep"]["l_values"] = [1, 2, 3]
    small = tmp_path / "weak-step-n6.json"
    small.write_text(json.dumps(cfg), encoding="utf-8")
    return (
        Call("weak-step", str(small), 1),
        Call("kato-flow", "configs/kato-flow.json", 1),
        Call("ct-profile", "configs/ct-profile.json", 2),
    )


def traced_run(calls, out):
    tracer = Tracer()
    tracer.install()
    try:
        statuses, out_dirs = run_calls(cli, calls, 0, str(out))
    finally:
        tracer.restore()
    return statuses, [csv_digests(d) for d in out_dirs], tracer.snapshot()


def bindings():
    """Every attribute of every lpplab module, class and module-level dict."""
    seen = {}
    for mod in lpplab_modules():
        for key, obj in vars(mod).items():
            seen[(mod.__name__, key)] = obj
            if isinstance(obj, dict):
                for k, v in obj.items():
                    seen[(mod.__name__, key, k)] = v
            elif inspect.isclass(obj):
                for k, v in vars(obj).items():
                    seen[(mod.__name__, key, "." + k)] = v
    return seen


def test_workload_configs_validate_against_the_schema(monkeypatch):
    monkeypatch.chdir(ROOT)
    for calls in WORKLOADS.values():
        for call in calls:
            assert load_config(call.config)["experiment"] == call.experiment


def test_benchmark_json_matches_the_workload_table():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]


def test_every_per_layer_metric_names_a_traced_span():
    tracer = Tracer()
    tracer.install()
    tracer.restore()
    derived = {"traced_run_s", "trace_overhead_s", "lattice.s"}
    for m in SPEC["per_layer"]:
        span, _, field = m["name"].rpartition(".")
        if m["name"] not in derived:
            assert span in tracer.spans, m["name"]
            assert field in ("calls", "s", "self_s", "hit_ratio", "dim3_sum",
                             "complex_share", "step_doublings", "steps", "bytes")


def test_install_replaces_imported_names_and_restore_puts_back_every_original():
    before = bindings()
    originals = (operators.eigendecompose, experiments.RUNNERS["weak-step"])
    tracer = Tracer()
    tracer.install()
    try:
        assert is_wrapper(operators.eigendecompose)
        assert sectors.eigendecompose is operators.eigendecompose
        assert is_wrapper(experiments.RUNNERS["weak-step"])
        assert is_wrapper(vars(sectors.HamiltonianPath)["spectral"])
    finally:
        tracer.restore()
    assert leftover_wrappers() == []
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert (operators.eigendecompose, experiments.RUNNERS["weak-step"]) == originals


def test_traced_pass_writes_the_same_csv_bytes(small_calls, tmp_path):
    statuses, out_dirs = run_calls(cli, small_calls, 0, str(tmp_path / "plain"))
    plain = [csv_digests(d) for d in out_dirs]
    traced_statuses, traced, snapshot = traced_run(small_calls, tmp_path / "traced")
    assert statuses == traced_statuses
    assert all(plain) and plain == traced
    assert snapshot["spans"]["harness.run_weak_step"]["calls"] == 1


def test_two_traced_passes_give_identical_exact_counters(small_calls, tmp_path):
    _, _, first = traced_run(small_calls, tmp_path / "a")
    _, _, second = traced_run(small_calls, tmp_path / "b")
    assert first["counters"] == second["counters"]
    assert {k: v["calls"] for k, v in first["spans"].items()} == {
        k: v["calls"] for k, v in second["spans"].items()
    }
    for name in (
        "operators.eigendecompose.dim3_sum",
        "operators.eigendecompose.complex_share",
        "sectors.HamiltonianPath.spectral.hit_ratio",
        "spectral_flow.BlockSectorPath.spectral.hit_ratio",
        "spectral_flow.integrate_flow.steps",
        "harness.write_csv.bytes",
    ):
        assert layer_metric(first, name) == layer_metric(second, name) > 0, name
