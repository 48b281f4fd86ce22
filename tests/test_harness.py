"""Harness layer: fitting, CSV/manifest I/O, config validation, CLI."""

import collections
import json
import math
import os
import pathlib
import subprocess
import sys
import threading
from dataclasses import replace

import jsonschema
import numpy as np
import pytest
import scipy.linalg
from embed_oracle import commutator_norm
from flow_oracle import block_projector
from tqo_oracle import full_space_tqo_check

from lpplab import blas, cli, lattice, models, operators, quasilocal, sectors
from lpplab import spectral_flow as sflow
from lpplab.blas import blas_thread_counts, fan_out, pmap, thread_budget
from lpplab.cli import main
from lpplab.exceptions import InsufficientData
from lpplab.harness import (
    NOISE_FLOOR,
    DecayRecord,
    fit_decay,
    load_config,
    validate_config,
    write_csv,
    write_manifest,
)
from lpplab.harness import config as hconfig
from lpplab.harness import experiments
from lpplab.harness.experiments import (
    RUNNERS,
    _ramp_path,
    build_model,
    run_clustering,
    run_impurity_lppl,
    run_kato_flow,
    run_lr_cone,
    run_sequential_coupling,
    run_tqo,
    run_weak_step,
)
from lpplab.harness.io import format_cell
from lpplab.interactions import DecayFunctions
from lpplab.operators import embed_matrix, sigma_x, sigma_y, sigma_z

ROOT = pathlib.Path(__file__).resolve().parents[1]


# ------------------------------------------------------------- fit_decay


def test_fit_exact_exponential():
    pts = [(l, math.exp(-l)) for l in range(6)]
    mu, c, r2 = fit_decay(pts)
    assert abs(mu - 1.0) < 1e-12
    assert abs(c - 1.0) < 1e-12
    assert abs(r2 - 1.0) < 1e-12


def test_fit_constant_series_has_zero_rate():
    mu, c, r2 = fit_decay([(l, 0.25) for l in range(5)])
    assert mu == 0.0
    assert abs(c - 0.25) < 1e-12


def test_fit_synthetic_with_noise_floor():
    # additive 1e-13 bends the tail; the fit should still see ~0.7
    pts = [(l, 0.5 * math.exp(-0.7 * l) + 1e-13) for l in range(9)]
    mu, c, r2 = fit_decay(pts)
    assert abs(mu - 0.7) < 0.02
    assert r2 > 0.99


def test_fit_increasing_series_clamps_rate_to_zero():
    mu, _, _ = fit_decay([(l, math.exp(l)) for l in range(5)])
    assert mu == 0.0


def test_fit_requires_three_points_above_floor():
    with pytest.raises(InsufficientData):
        fit_decay([(0, 1.0), (1, 0.1), (2, 1e-15), (3, 1e-16)])
    with pytest.raises(InsufficientData):
        fit_decay([(l, 1e-15) for l in range(6)])


def test_record_counts_dropped_points():
    pts = [(0, 1.0), (1, 0.1), (2, 0.01), (3, 1e-14)]
    rec = DecayRecord.measure(pts)
    assert rec.n_dropped == 1
    assert rec.mu_hat is not None and abs(rec.mu_hat - math.log(10)) < 1e-9


def test_record_survives_unfittable_data():
    rec = DecayRecord.measure([(0, 1e-15), (1, 1e-16)])
    assert rec.mu_hat is None
    assert rec.r_squared is None
    assert any(w.startswith("no fit:") for w in rec.warnings)


def test_record_to_dict_is_json_ready():
    rec = DecayRecord.measure(
        [(l, math.exp(-l)) for l in range(4)],
        reference_rate=0.9,
        constants={"mu": 1.0, "g": 2.0},
    )
    blob = json.dumps(rec.to_dict())
    back = json.loads(blob)
    assert back["mu_hat"] == pytest.approx(1.0)
    assert back["constants"]["g"] == 2.0


# ------------------------------------------------------------------- io


def test_format_cell_float_has_17_significant_digits():
    assert format_cell(1.5) == "1.5000000000000000e+00"
    assert format_cell(1 / 3) == "3.3333333333333331e-01"
    assert format_cell(math.inf) == "inf"


def test_format_cell_other_types():
    assert format_cell(True) == "true"
    assert format_cell(False) == "false"
    assert format_cell(7) == "7"
    assert format_cell("label") == "label"
    with pytest.raises(TypeError):
        format_cell(1 + 2j)


def test_write_csv(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ["a", "b"], [(1, 0.5), (2, 0.25)])
    text = p.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,5.0000000000000000e-01"
    assert text.endswith("\n")


def test_write_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a", "b"], [(1,)])


def test_manifest_serializes_numpy(tmp_path):
    p = tmp_path / "m.json"
    write_manifest(
        p,
        {
            "scalar": np.float64(0.5),
            "count": np.int64(3),
            "flag": np.bool_(True),
            "arr": np.arange(3),
            "z": 1 + 2j,
        },
    )
    back = json.loads(p.read_text(encoding="utf-8"))
    assert back["scalar"] == 0.5
    assert back["count"] == 3
    assert back["flag"] is True
    assert back["arr"] == [0, 1, 2]
    assert back["z"] == {"re": 1.0, "im": 2.0}


# --------------------------------------------------------------- config


def test_validate_minimal_config():
    validate_config({"schema_version": 1, "experiment": "lr-cone"})


def test_validate_rejects_unknown_experiment():
    with pytest.raises(ValueError, match="experiment"):
        validate_config({"schema_version": 1, "experiment": "nope"})


def test_validate_rejects_typo_key():
    with pytest.raises(ValueError, match="swee"):
        validate_config(
            {"schema_version": 1, "experiment": "lr-cone", "swee": {}}
        )


def test_validate_rejects_bad_nested_value():
    with pytest.raises(ValueError, match="model/nu"):
        validate_config(
            {
                "schema_version": 1,
                "experiment": "kato-flow",
                "model": {"kind": "xy-ring", "nu": 3},
            }
        )


@pytest.mark.parametrize("key, value", [("coupling", "exchange-ramp"), ("potential", 0.5)])
def test_validate_rejects_impurity_keys_no_runner_reads(key, value):
    # a key the runners ignore would change nothing in the run
    with pytest.raises(ValueError, match=f"at impurity: .*'{key}' was unexpected"):
        validate_config(
            {
                "schema_version": 1,
                "experiment": "kato-flow",
                "impurity": {"site": 2, "strength": 0.5, key: value},
            }
        )


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "c.json"
    cfg = {
        "schema_version": 1,
        "experiment": "ct-profile",
        "model": {"kind": "xy-ring", "L": 8},
    }
    p.write_text(json.dumps(cfg), encoding="utf-8")
    assert load_config(p) == cfg


def test_shipped_schema_passes_its_metaschema():
    # the loader trusts the packaged schema, so its metaschema check is here
    jsonschema.Draft202012Validator.check_schema(hconfig._schema())
    with pytest.raises(ValueError, match="config invalid at model/nu"):
        validate_config(
            {"schema_version": 1, "experiment": "kato-flow", "model": {"kind": "xy-ring", "nu": 3}}
        )


def test_validate_rejects_top_level_seed():
    # the CLI's --seed is the one seed; a config key would be ignored
    with pytest.raises(ValueError, match="'seed' was unexpected"):
        validate_config({"schema_version": 1, "experiment": "tqo", "seed": 7})


def test_build_model_dispatch():
    model = build_model({"kind": "transverse-field-Ising", "n": 4})
    assert isinstance(model, models.Model)
    assert model.graph.n_sites == 4
    with pytest.raises(ValueError, match="kind"):
        build_model({"kind": "heisenberg"})


# -------------------------------------------------------------- runners


def test_lr_cone_report_shape():
    cfg = {
        "schema_version": 1,
        "experiment": "lr-cone",
        "model": {"kind": "transverse-field-Ising", "n": 6},
        "sweep": {"t_max": 0.5, "n_times": 4, "distances": [1, 2, 3]},
    }
    rep = run_lr_cone(cfg)
    assert rep["experiment"] == "lr-cone"
    assert rep["tables"][0]["name"] == "lr-cone"
    assert len(rep["tables"][0]["rows"]) == 12
    bound_check = next(c for c in rep["checks"] if c["name"] == "lieb-robinson-bound")
    assert bound_check["passed"]


LR_CONE_ORACLE_CASES = [
    # (model, perturbation site): the open chain with the probe inside it,
    # site 0, whose flip blocks of sigma leave the half-states, a periodic
    # chain, and a model with no spin flip (the full-volume path)
    ({"kind": "transverse-field-Ising", "n": 6}, 1),
    ({"kind": "transverse-field-Ising", "n": 6}, 0),
    (
        {"kind": "transverse-field-Ising", "n": 6, "periodic": True, "J": 0.8, "h": 1.1},
        2,
    ),
    ({"kind": "xy-with-potential", "n": 6}, 1),
]


# the periodic case crosses the cone threshold at few distinct times, so
# the slope fit (not checked here) warns that it is poorly conditioned
@pytest.mark.filterwarnings("ignore:Polyfit may be poorly conditioned")
@pytest.mark.parametrize("pauli", ["x", "y", "z"])
def test_lr_cone_norms_match_dense_commutators(pauli):
    # oracle: the full commutator [e^{iHt} A e^{-iHt}, B] with the
    # evolution from expm of the dense Hamiltonian, no eigenbasis involved
    sigma = {"x": sigma_x, "y": sigma_y, "z": sigma_z}[pauli]
    for mcfg, site in LR_CONE_ORACLE_CASES:
        cfg = {
            "schema_version": 1,
            "experiment": "lr-cone",
            "model": mcfg,
            "perturbation": {"site": site},
            "probes": {"pauli": pauli},
            "sweep": {"t_max": 1.5, "n_times": 4, "distances": [1, 2, 3, 4]},
        }
        rows = run_lr_cone(cfg)["tables"][0]["rows"]
        # a periodic chain of 6 has no site at distance 4
        assert len(rows) == (12 if mcfg.get("periodic") else 16)
        model = build_model(mcfg)
        H = model.hamiltonian().dense()
        dims = model.graph.site_dims
        A = embed_matrix(sigma, (site,), dims)
        for t, d, b, measured, _ in rows:
            U = scipy.linalg.expm(1j * t * H)
            want = commutator_norm(U @ A @ U.conj().T, embed_matrix(sigma, (b,), dims))
            assert abs(measured - want) <= 1e-12, (mcfg, site, t, d, b, measured, want)
        assert max(r[3] for r in rows) > 0.1  # the grid reaches visible growth


def test_lr_cone_on_the_ising_chain_forms_no_full_volume_matrix(monkeypatch):
    # the spin-flip path reads the blocks only: neither the full-volume
    # A(t) nor the lifted eigenvectors are built
    def refuse(*args, **kwargs):
        raise AssertionError("lr-cone left the spin-flip blocks")

    monkeypatch.setattr(experiments, "_full_commutators", refuse)
    monkeypatch.setattr(operators.SpectralData, "vectors", property(refuse))
    for pauli in ("x", "z"):
        rows = run_lr_cone({
            "schema_version": 1, "experiment": "lr-cone",
            "model": {"kind": "transverse-field-Ising", "n": 6},
            "probes": {"pauli": pauli},
            "sweep": {"t_max": 0.5, "n_times": 2, "distances": [1]},
        })["tables"][0]["rows"]
        assert len(rows) == 2


@pytest.mark.skipif(
    not blas_thread_counts(),
    reason="no bundled OpenBLAS exporting scipy_openblas_set_num_threads",
)
def test_pmap_splits_blas_threads_among_workers():
    before = blas_thread_counts()
    cap = max(1, (os.cpu_count() or 1) // 2)
    seen = pmap(lambda _: blas_thread_counts(), range(4), 2)
    assert seen == [[min(k, cap) for k in before]] * 4
    assert blas_thread_counts() == before

    def boom(_):
        raise RuntimeError("worker failed")

    with pytest.raises(RuntimeError, match="worker failed"):
        pmap(boom, range(4), 2)
    assert blas_thread_counts() == before


def test_pmap_workers_get_a_share_of_the_thread_budget(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert thread_budget() == 2
    assert pmap(lambda _: thread_budget(), range(4), 2) == [1] * 4

    # so a stage split over the budget inside a worker starts no nested pool
    def split_threads(_):
        seen = set()
        with fan_out() as run:
            run(lambda lo, hi: seen.add(threading.get_ident()), 10)
        return seen == {threading.get_ident()}

    assert pmap(split_threads, range(4), 2) == [True] * 4


def test_weak_step_runner_is_deterministic():
    cfg = {
        "schema_version": 1,
        "experiment": "weak-step",
        "model": {"kind": "transverse-field-Ising", "n": 6, "h": 20.0},
        "perturbation": {"site": 0, "epsilon": 0.05},
        "sweep": {"l_values": [1, 2, 3]},
    }
    r1 = run_weak_step(cfg)
    r2 = run_weak_step(cfg)
    assert r1["tables"][0]["rows"] == r2["tables"][0]["rows"]
    # the tenfold-drop check needs the full l range of the shipped config;
    # at this size only the fit checks are meaningful
    by_name = {c["name"]: c["passed"] for c in r1["checks"]}
    assert by_name["decay-rate-positive"]
    assert by_name["fit-quality"]


def test_sigma_y_ramp_runs_complex_and_passes():
    cfg = {
        "schema_version": 1,
        "experiment": "weak-step",
        "model": {"kind": "transverse-field-Ising", "n": 7, "h": 200.0},
        "perturbation": {"site": 0, "pauli": "y", "epsilon": 0.05},
        "sweep": {"l_values": [1, 3, 5]},
    }
    model = build_model(cfg["model"])
    path = _ramp_path(cfg, model, DecayFunctions(model.graph, 1.0))
    assert path.hamiltonian(0.0).dtype == np.float64
    for s in (0.05, 1.0):
        assert path.hamiltonian(s).dtype == np.complex128
        assert path.spectral(s).vectors.dtype == np.complex128
    rep = run_weak_step(cfg)
    assert all(c["passed"] for c in rep["checks"]), rep["checks"]


def _tqo_config():
    cfg = load_config(ROOT / "configs" / "tqo.json")
    return cfg, np.random.default_rng(7)


def test_tqo_check_matches_full_space_oracle(monkeypatch):
    # every bulk probe of the shipped tqo config, checked both ways
    compressed = models.tqo_check
    seen = []

    def both(B, A, Lstar, geom):
        z, dev = compressed(B, A, Lstar, geom)
        z_ref, dev_ref = full_space_tqo_check(B @ B.conj().T, A, Lstar, geom)
        seen.append((A.support, abs(z - z_ref), dev, dev_ref))
        return z, dev

    monkeypatch.setattr(models, "tqo_check", both)
    cfg, rng = _tqo_config()
    run_tqo(cfg, rng=rng)
    assert len(seen) > 50
    for support, dz, dev, dev_ref in seen:
        assert dz <= 1e-12, support
        assert dev <= 1e-10 and dev_ref <= 1e-10, support


IMPURITY_SMALL = {
    "schema_version": 1,
    "experiment": "impurity-lppl",
    "model": {"kind": "transverse-field-Ising", "n": 6, "J": 1.0, "h": 30.0},
    "impurity": {"site": 3, "dim": 2, "strength": 1.0, "pauli": "z"},
    "sweep": {"l_values": [1, 2, 3], "n_steps": 4},
}


@pytest.mark.parametrize("experiment", ["tqo", "impurity-lppl"])
def test_dressed_deviations_ignore_the_sector_basis(experiment, monkeypatch):
    # the dressed sector at s=1 is exactly degenerate in both runners, so
    # the eigensolver's choice of basis inside it is arbitrary; a random
    # unitary rotation of that basis must leave every row unchanged
    def run():
        if experiment == "tqo":
            cfg, rng = _tqo_config()
            return run_tqo(cfg, rng=rng)
        return run_impurity_lppl(IMPURITY_SMALL)

    ref = run()
    original = sectors.HamiltonianPath.sector
    rot_rng = np.random.default_rng(5)

    def rotated(self, s):
        sec = original(self, s)
        if s != 1.0:
            return sec
        d = sec.basis.shape[1]
        M = rot_rng.normal(size=(d, d)) + 1j * rot_rng.normal(size=(d, d))
        U, _ = np.linalg.qr(M)
        return replace(sec, basis=sec.basis @ U)

    monkeypatch.setattr(sectors.HamiltonianPath, "sector", rotated)
    got = run()
    assert all(c["passed"] for c in got["checks"]), got["checks"]
    rows, ref_rows = got["tables"][0]["rows"], ref["tables"][0]["rows"]
    assert len(rows) == len(ref_rows)
    for row, ref_row in zip(rows, ref_rows):
        for cell, ref_cell in zip(row, ref_row):
            if isinstance(ref_cell, str):
                assert cell == ref_cell
            else:
                assert abs(cell - ref_cell) <= 1e-12, (row, ref_row)


def test_impurity_runners_report_final_step_counts(monkeypatch):
    # a row violation flagged on the 4th step solve doubles a walk that
    # starts at n = 4; the control's n = 2 does not double; the gap
    # certified on the first grid is reported as it is
    solve, calls = quasilocal.solve_step_coefficients, []

    def violating_fourth(prev, next):
        c, info = solve(prev, next)
        calls.append(None)
        return c, dict(info, violations=1) if len(calls) == 4 else info

    monkeypatch.setattr(quasilocal, "solve_step_coefficients", violating_fourth)
    consts = run_impurity_lppl(IMPURITY_SMALL)["constants"]
    assert (consts["n_steps_final"], consts["control_n_steps_final"]) == (8, 2)
    assert 0 < consts["gap_certified"] <= consts["g"]
    calls.clear()
    consts = run_clustering({
        "schema_version": 1, "experiment": "clustering", "mode": "impurity",
        "model": {"kind": "transverse-field-Ising", "n": 6, "J": 1.0, "h": 2.0},
        "impurity": {"site": 3}, "sweep": {"l_values": [2], "n_steps": 4},
    })["constants"]
    assert consts["n_steps_final"] == 8
    assert 0 < consts["gap_certified"] <= consts["g"]


def test_filter_runners_report_their_rule_sizes_per_radius():
    # the node count and max|omega| T of the filter's rules go into the
    # manifest's constants, one entry per radius; T grows with l, and so
    # do both
    consts = run_weak_step({
        "schema_version": 1, "experiment": "weak-step",
        "model": {"kind": "transverse-field-Ising", "n": 6, "h": 20.0},
        "perturbation": {"site": 0, "epsilon": 0.05}, "sweep": {"l_values": [1, 2, 3]},
    })["constants"]
    Q, theta = consts["quadrature_nodes"], consts["omega_T_max"]
    assert len(Q) == len(theta) == 3
    assert Q == sorted(Q) and theta == sorted(set(theta)) and theta[0] > 0
    consts = run_impurity_lppl(IMPURITY_SMALL)["constants"]
    assert len(consts["quadrature_nodes"]) == len(consts["omega_T_max"]) == 3


@pytest.fixture
def eig_calls(monkeypatch):
    """Counts of eigendecompose calls made through models and sectors."""
    calls = {"models": 0, "sectors": 0}

    def counting(module, fn):
        def wrapped(*args, **kwargs):
            calls[module] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(models, "eigendecompose", counting("models", models.eigendecompose))
    monkeypatch.setattr(sectors, "eigendecompose", counting("sectors", sectors.eigendecompose))
    return calls


def test_runners_diagonalize_each_model_once(eig_calls):
    small = {"kind": "transverse-field-Ising", "n": 6}
    run_lr_cone({
        "schema_version": 1, "experiment": "lr-cone", "model": small,
        "sweep": {"t_max": 0.5, "n_times": 2, "distances": [1]},
    })
    assert eig_calls == {"models": 1, "sectors": 0}
    run_clustering({"schema_version": 1, "experiment": "clustering", "model": small})
    assert eig_calls == {"models": 2, "sectors": 0}
    cfg, rng = _tqo_config()
    run_tqo(cfg, rng=rng)
    # the bulk toric code once, the dressed impurity path once (at s=1)
    assert eig_calls == {"models": 3, "sectors": 1}


def test_transport_runners_diagonalize_each_path_point_once(eig_calls, monkeypatch):
    # no builder diagonalizes; clustering reads s = 1 after its 4-step
    # walk, which the path keeps
    run_clustering({
        "schema_version": 1, "experiment": "clustering", "mode": "impurity",
        "model": {"kind": "transverse-field-Ising", "n": 6, "J": 1.0, "h": 2.0},
        "impurity": {"site": 3}, "sweep": {"l_values": [2], "n_steps": 4},
    })
    assert eig_calls == {"models": 0, "sectors": 5}
    # the transforms reuse the s = 0 sector each sweep started from: the
    # bulk chain once, the 4-step sweep's 5 points, and one point of the
    # 2-step control, whose W = 0 leaves H(s) the same at all 3 points
    run_impurity_lppl(IMPURITY_SMALL)
    assert eig_calls == {"models": 1, "sectors": 11}
    # weak-step reads the path at s0 and s0 + epsilon, and nothing else:
    # its gap check reads those two cached spectra, so no full-size
    # eigvalsh is taken
    eigvalsh, full = np.linalg.eigvalsh, []

    def counting_eigvalsh(a, *args, **kwargs):
        full.append(len(a) == 2**6)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    consts = run_weak_step({
        "schema_version": 1, "experiment": "weak-step",
        "model": {"kind": "transverse-field-Ising", "n": 6, "h": 20.0},
        "perturbation": {"site": 0, "epsilon": 0.05}, "sweep": {"l_values": [1, 2, 3]},
    })["constants"]
    assert eig_calls == {"models": 1, "sectors": 13}
    assert full and not any(full)
    assert 0 < consts["gap_certified"] <= consts["g"]


def test_impurity_clustering_runs_the_walk_alone(monkeypatch):
    # clustering reads the walk's coefficient norms, step count and gap
    # bound, so no filter, R or recursion runs, and no rule size is kept
    localized = []
    batch = quasilocal._localized_R_batch

    def counting(*args, **kwargs):
        localized.append(None)
        return batch(*args, **kwargs)

    monkeypatch.setattr(quasilocal, "_localized_R_batch", counting)
    report = run_clustering({
        "schema_version": 1, "experiment": "clustering", "mode": "impurity",
        "model": {"kind": "transverse-field-Ising", "n": 6, "J": 1.0, "h": 2.0},
        "impurity": {"site": 3}, "sweep": {"l_values": [2], "n_steps": 4},
    })
    assert localized == []
    norms = next(c for c in report["checks"] if c["name"] == "coefficient-one-norms")
    assert norms["passed"] and norms["detail"].endswith("over 4 steps")
    assert report["constants"]["n_steps_final"] == 4
    assert "quadrature_nodes" not in report["constants"]


def test_flow_runners_diagonalize_only_the_points_they_read(monkeypatch):
    # block eigh calls per block dimension on the small flow configs
    # (ds = 0.1, so 10 steps): a pass that reads its errors takes s = 0,
    # the 10 midpoints and the 10 endpoints; sequential-coupling reads
    # only U from its one-impurity passes, which take s = 0, the
    # midpoints and s = 1
    shapes = collections.Counter()
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        shapes[a.shape[0]] += 1
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    run_sequential_coupling({"schema_version": 1, "experiment": "sequential-coupling",
                             **FLOW_CONFIGS["sequential-coupling"]})
    # n = 1 (dim 8) and n = 2 (dim 28): the coupled pass 21, each
    # one-impurity pass 12, and one per pass of the uncoupled control
    assert (shapes[8], shapes[28]) == (21 + 2 * 12 + 3,) * 2
    shapes.clear()
    run_kato_flow({"schema_version": 1, "experiment": "kato-flow",
                   **FLOW_CONFIGS["kato-flow"]})
    # n = 1 (dim 9) reads the untruncated series: 21, then 11 for the
    # step-halving probe at 2 ds; n = 2 has an empty sector and no eigh
    assert (shapes[9], shapes[36]) == (21 + 11, 0)


def test_clustering_bulk_takes_the_gap_from_the_spectrum():
    base = {"schema_version": 1, "experiment": "clustering", "mode": "bulk"}
    rep = run_clustering(dict(base, model={"kind": "xy-ring", "L": 6}))
    # constant potential gamma = 1: the gap above the vacuum is gamma
    assert rep["constants"]["g"] == pytest.approx(1.0, abs=1e-12)
    assert len(rep["tables"][0]["rows"]) == 15
    with pytest.raises(ValueError, match="bulk ground state is degenerate"):
        run_clustering(dict(base, model={"kind": "toric", "L": 2}))


# ------------------------------------------------------------------ cli


def _ct_config(tmp_path, **extra):
    cfg = {
        "schema_version": 1,
        "experiment": "ct-profile",
        "model": {"kind": "xy-ring", "L": 8},
        "ct": {"z_values": [-0.5, -2.0], "n_particles": 1},
    }
    cfg.update(extra)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return p


def test_cli_happy_path(tmp_path, capsys):
    cfg = _ct_config(tmp_path)
    out = tmp_path / "out"
    code = main(["ct-profile", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "ct-profile.csv").exists()
    manifest = json.loads((out / "ct-profile-manifest.json").read_text())
    assert manifest["config"]["experiment"] == "ct-profile"
    assert manifest["checks"] and all(c["passed"] for c in manifest["checks"])
    assert "wall_time_s" in manifest
    lines = (out / "ct-profile.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "z,distance,value"
    assert "[PASS]" in capsys.readouterr().out


@pytest.mark.skipif(
    not blas_thread_counts(),
    reason="no bundled OpenBLAS exporting scipy_openblas_set_num_threads",
)
def test_cli_runs_the_runner_with_blas_at_one_thread(tmp_path, monkeypatch):
    before = blas_thread_counts()
    pinned = [1] * len(before)
    cfg = _ct_config(tmp_path)
    out = tmp_path / "out"
    argv = ["ct-profile", "--config", str(cfg), "--out", str(out)]
    seen = []

    def runner(config, workers, rng):
        seen.append(blas_thread_counts())
        return {"tables": [], "records": {}, "constants": {}, "checks": [], "warnings": []}

    monkeypatch.setitem(RUNNERS, "ct-profile", runner)
    assert main(argv) == 0
    assert seen == [pinned]
    assert blas_thread_counts() == before
    env = json.loads((out / "ct-profile-manifest.json").read_text())["environment"]
    assert env["blas_thread_counts"] == pinned
    assert env["cpu_count"] == os.cpu_count()
    assert env["thread_budget"] == thread_budget()

    def failing(config, workers, rng):
        seen.append(blas_thread_counts())
        raise RuntimeError("runner failed")

    monkeypatch.setitem(RUNNERS, "ct-profile", failing)
    assert main(argv) == 1
    assert seen == [pinned, pinned]
    assert blas_thread_counts() == before


def test_cli_runs_are_byte_identical(tmp_path):
    cfg = _ct_config(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["ct-profile", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "ct-profile.csv").read_bytes())
    assert outs[0] == outs[1]


FLOW_CONFIGS = {
    "kato-flow": {
        "model": {"kind": "xy-ring", "L": 8},
        "impurity": {"site": 2, "n_spins": 1, "strength": 0.5},
        "flow": {"ds": 0.1, "n_max": 2, "l_values": [0, 1, 2]},
        "ct": {"z_values": [-0.5]},
        "tolerances": {"flow_error": 1e-3},
    },
    "sequential-coupling": {
        "model": {"kind": "xy-ring", "L": 6},
        "impurity": {"sites": [0, 3], "n_spins": 1, "strength": 0.5},
        "flow": {"ds": 0.1, "n_max": 2, "l_values": [1, 2]},
    },
}


SWEEP_CONFIGS = {
    "lr-cone": {
        "model": {"kind": "transverse-field-Ising", "n": 6},
        "sweep": {"t_max": 0.5, "n_times": 3, "distances": [1, 2]},
    },
    "clustering": {"model": {"kind": "transverse-field-Ising", "n": 6}},
}


@pytest.mark.parametrize("experiment", sorted(SWEEP_CONFIGS))
def test_sweep_csvs_do_not_depend_on_workers(experiment, tmp_path):
    # the flow runners' counterpart is test_flow_runners_agree_across_workers
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"schema_version": 1, "experiment": experiment,
                    **SWEEP_CONFIGS[experiment]}),
        encoding="utf-8",
    )
    csvs = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        argv = [experiment, "--config", str(cfg), "--out", str(out),
                "--workers", str(workers)]
        assert main(argv) == 0
        csvs[workers] = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    assert csvs[1] and csvs[1] == csvs[2]


def _csv_cells(out):
    return {
        p.name: [line.split(",") for line in p.read_text(encoding="utf-8").splitlines()]
        for p in sorted(out.glob("*.csv"))
    }


@pytest.mark.parametrize("experiment", sorted(FLOW_CONFIGS))
def test_flow_runners_agree_across_workers(experiment, tmp_path):
    # the workers split independent (system, block) flow passes; BLAS
    # runs at 1 thread under the CLI at every worker count, so the
    # values agree bit for bit across worker counts and repeat runs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"schema_version": 1, "experiment": experiment,
                    **FLOW_CONFIGS[experiment]}),
        encoding="utf-8",
    )
    outs = {}
    for name, workers in (("w1", 1), ("w2", 2), ("w2-again", 2)):
        out = tmp_path / name
        argv = [experiment, "--config", str(cfg), "--out", str(out),
                "--workers", str(workers)]
        assert main(argv) == 0
        outs[name] = out
    assert _csv_cells(outs["w2"]).keys() == _csv_cells(outs["w1"]).keys()
    for name, rows in _csv_cells(outs["w1"]).items():
        other = _csv_cells(outs["w2"])[name]
        assert rows[0] == other[0]
        a = np.array(rows[1:], dtype=float)
        b = np.array(other[1:], dtype=float)
        assert a.shape == b.shape
        assert np.array_equal(np.isinf(a), np.isinf(b))
        finite = np.isfinite(a)
        assert np.array_equal(a[finite], b[finite])
    for name in _csv_cells(outs["w2"]):
        assert (outs["w2"] / name).read_bytes() == (outs["w2-again"] / name).read_bytes()


def test_sequential_coupling_matches_dense_traces():
    # the runner takes each omega = tr(P X) / D from diag(P), with
    # diag(U P0 U^T) the row sums of (U B0)^2; here the same steps come
    # from dense U P0 U^T and traces against diagonal occupation matrices
    cfg = {"schema_version": 1, "experiment": "sequential-coupling",
           **FLOW_CONFIGS["sequential-coupling"], "control": False}
    rows = run_sequential_coupling(cfg)["tables"][0]["rows"]
    L, (x0, y0), radii, ns = 6, (0, 3), [1.0, 2.0], range(3)
    ring = lattice.chain(L, periodic=True)

    def system(cx, cy):
        return sflow.BosonSystem(ring, 1.0, (sflow.ImpurityModes(x0, 1, cx),
                                             sflow.ImpurityModes(y0, 1, cy)))

    jobs = [(system(0.5, 0.5), (x0, y0)), (system(0.5, 0.0), (x0,)),
            (system(0.0, 0.5), (y0,))]
    P0, P1, flows, occ = [], [], [], []
    for n in ns:
        paths = [sflow.BlockSectorPath(sys_, n) for sys_, _ in jobs]
        flows.append([sflow.integrate_flows(p, radii, 0.1, K=K)
                      for p, (_, K) in zip(paths, jobs)])
        occ.append([np.diag([float(m in cfg) for cfg in paths[0].block.configs])
                    for m in (L, L + 1)])
        P0.append(block_projector(paths[0], 0.0))
        P1.append(block_projector(paths[0], 1.0))
    D = sum(math.comb(2, n) for n in ns)

    def omega(Ps, k):
        X = [a @ b if k == "ab" else (a, b)[k] for a, b in occ]
        return sum(np.trace(P @ x) for P, x in zip(Ps, X)) / D

    for i, row in enumerate(rows):
        U_xy = [f[0][i][0] for f in flows]
        U_f = [f[1][i][0] @ f[2][i][0] for f in flows]
        PU = [U @ P @ U.T for U, P in zip(U_xy, P0)]
        PF = [U @ P @ U.T for U, P in zip(U_f, P0)]
        w_ab, wu_ab, wf_ab = omega(P1, "ab"), omega(PU, "ab"), omega(PF, "ab")
        wf_a, wf_b, w_a, w_b = omega(PF, 0), omega(PF, 1), omega(P1, 0), omega(P1, 1)
        expect = [abs(w_ab - wu_ab), abs(wu_ab - wf_ab), abs(wf_ab - wf_a * wf_b),
                  abs(wf_a * wf_b - w_a * w_b), abs(w_ab - w_a * w_b)]
        assert row[0] == radii[i]
        assert np.abs(np.array(row[1:6]) - expect).max() <= 1e-13


def test_cli_failing_check_exits_2(tmp_path, capsys):
    cfg = _ct_config(tmp_path, tolerances={"ct_rel_error": 1e-12})
    code = main(["ct-profile", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "[FAIL]" in capsys.readouterr().out


def test_cli_config_subcommand_mismatch_exits_1(tmp_path, capsys):
    cfg = _ct_config(tmp_path)
    code = main(["lr-cone", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_invalid_config_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"schema_version": 1, "experiment": "lr-cone", "x": 1}))
    code = main(["lr-cone", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


UNUSED_BY_DENSE_RUNS = (
    "scipy.linalg", "scipy.sparse", "scipy.sparse.linalg", "scipy.sparse.csgraph",
    "scipy.special", "jsonschema",
)


def _fresh_python(script, openblas_threads=None):
    """The last stdout line of `script` run in a fresh interpreter on src/,
    since this suite's own imports load the modules under test.  The
    child gets OPENBLAS_NUM_THREADS only when openblas_threads is given:
    this suite's own import of lpplab.cli has set it to 1 here."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(openblas_threads)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1]


def test_dense_cli_run_imports_no_scipy_or_jsonschema(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "experiment": "lr-cone",
                               **SWEEP_CONFIGS["lr-cone"]}))
    script = (
        "import sys\n"
        "from lpplab import cli\n"
        f"status = cli.main(['lr-cone', '--config', {str(cfg)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}])\n"
        f"print(status, [m for m in {UNUSED_BY_DENSE_RUNS!r} if m in sys.modules])\n"
    )
    assert _fresh_python(script) == "0 []"


RUN_CONFIGS = {
    "weak-step": {
        "model": {"kind": "transverse-field-Ising", "n": 6, "h": 20.0},
        "perturbation": {"site": 0, "epsilon": 0.05},
        "sweep": {"l_values": [1, 2, 3]},
    },
    "impurity-lppl": {k: v for k, v in IMPURITY_SMALL.items() if k != "experiment"},
    "kato-flow": FLOW_CONFIGS["kato-flow"],
}


def test_cli_runs_import_nothing_the_setup_did_not(tmp_path):
    # setup is `import lpplab.cli` plus load_config, as in perfbench; a
    # module first loaded inside cli.main would move its cost into the run
    calls = []
    for experiment, body in RUN_CONFIGS.items():
        cfg = tmp_path / f"{experiment}.json"
        cfg.write_text(json.dumps({"schema_version": 1, "experiment": experiment, **body}))
        calls.append([experiment, "--config", str(cfg), "--out", str(tmp_path / experiment)])
    script = (
        "import contextlib, io, json, sys\n"
        "from lpplab import cli\n"
        "from lpplab.harness import load_config\n"
        f"calls = {calls!r}\n"
        "for call in calls:\n"
        "    load_config(call[2])\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    statuses = [cli.main(call) for call in calls]\n"
        "print(json.dumps([statuses, sorted(set(sys.modules) - before)]))\n"
    )
    statuses, new = json.loads(_fresh_python(script))
    assert all(status in (0, 2) for status in statuses), statuses  # 2: a check failed
    assert new == []


@pytest.mark.skipif(
    len(blas._candidates()) < 2,
    reason="numpy and scipy do not both bundle an OpenBLAS",
)
def test_iterative_solve_inside_a_cap_caps_the_openblas_it_loads():
    # scipy's OpenBLAS loads with scipy.sparse.linalg, inside the cap; the
    # counts read during eigsh are those of the libraries the solver found,
    # read without a new look, so they show its own adoption of the cap
    script = (
        "import json\n"
        "from lpplab import blas, models\n"
        "model = models.build_gapped_chain('transverse-field-Ising', {'n': 6})\n"
        "seen = {'outside': blas.blas_thread_counts()}\n"
        "def counting(*args, **kwargs):\n"
        "    seen['during'] = [pair[0]() for pair in blas._found.values() if pair]\n"
        "    return eigsh(*args, **kwargs)\n"
        "with blas.blas_threads(1):\n"
        "    seen['capped'] = blas.blas_thread_counts()\n"
        "    import scipy.sparse.linalg as spla\n"
        "    eigsh, spla.eigsh = spla.eigsh, counting\n"
        "    model.spectral(mode='iterative', k=4)\n"
        "seen['after'] = blas.blas_thread_counts()\n"
        "print(json.dumps(seen))\n"
    )
    seen = json.loads(_fresh_python(script))
    assert len(seen["outside"]) == 1  # numpy's alone: scipy's is not loaded yet
    assert seen["capped"] == [1]
    assert seen["during"] == [1, 1]
    assert len(seen["after"]) == 2 and seen["after"][0] == seen["outside"][0]


CLI_START_SCRIPT = (
    "import json, sys\n"
    "from lpplab import cli\n"
    "from lpplab import blas\n"
    "print(json.dumps([blas.blas_thread_counts(),\n"
    "                  [m for m in ('importlib.metadata', 'email') if m in sys.modules]]))\n"
)


def test_cli_import_starts_openblas_at_one_thread_without_package_metadata():
    counts, loaded = json.loads(_fresh_python(CLI_START_SCRIPT))
    assert counts == [1]
    assert loaded == []


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs for a 2-thread OpenBLAS")
def test_cli_import_keeps_the_callers_openblas_threads():
    counts, _ = json.loads(_fresh_python(CLI_START_SCRIPT, openblas_threads=2))
    assert counts == [2]


def _metadata_version(name):
    """The oracle: importlib.metadata's version of a distribution, or
    "unknown" where it finds none."""
    from importlib import metadata

    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return "unknown"


@pytest.mark.parametrize("name", ["numpy", "scipy", "lpplab", "no-such-distribution"])
def test_version_reader_matches_importlib_metadata(name):
    assert cli._dist_version(name) == _metadata_version(name)


def test_version_reader_on_an_installed_and_an_uninstalled_checkout(tmp_path, monkeypatch):
    info = tmp_path / "lpplab-0.1.0.dist-info"
    info.mkdir()
    (info / "METADATA").write_text("Metadata-Version: 2.1\nName: lpplab\nVersion: 0.1.0\n")
    monkeypatch.setattr(sys, "path", [str(ROOT / "src"), str(tmp_path)])
    assert cli._dist_version("lpplab") == _metadata_version("lpplab") == "0.1.0"
    monkeypatch.setattr(sys, "path", [str(ROOT / "src")])
    assert cli._dist_version("lpplab") == _metadata_version("lpplab") == "unknown"
    assert cli._dist_version("numpy") == _metadata_version("numpy") == "unknown"
