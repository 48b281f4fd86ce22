"""Harness layer: fitting, CSV/manifest I/O, config validation, CLI."""

import json
import math
import os
import pathlib
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from tqo_oracle import full_space_tqo_check

from lpplab import models, sectors
from lpplab.blas import blas_thread_counts
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
from lpplab.harness.experiments import (
    _pmap,
    _ramp_path,
    build_model,
    run_clustering,
    run_impurity_lppl,
    run_lr_cone,
    run_tqo,
    run_weak_step,
)
from lpplab.harness.io import format_cell
from lpplab.interactions import DecayFunctions
from lpplab.operators import commutator_norm, embed_matrix, sigma_x, sigma_y, sigma_z

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


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "c.json"
    cfg = {
        "schema_version": 1,
        "experiment": "ct-profile",
        "model": {"kind": "xy-ring", "L": 8},
    }
    p.write_text(json.dumps(cfg), encoding="utf-8")
    assert load_config(p) == cfg


def test_build_model_dispatch():
    model, meta = build_model({"kind": "transverse-field-Ising", "n": 4})
    assert model.graph.n_sites == 4
    assert meta["gap"] > 0
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


@pytest.mark.parametrize("pauli", ["x", "y", "z"])
def test_lr_cone_norms_match_dense_commutators(pauli):
    # oracle: the full commutator [e^{iHt} A e^{-iHt}, B] with the
    # evolution from expm of the dense Hamiltonian, no eigenbasis involved
    cfg = {
        "schema_version": 1,
        "experiment": "lr-cone",
        "model": {"kind": "transverse-field-Ising", "n": 6},
        "perturbation": {"site": 1},
        "probes": {"pauli": pauli},
        "sweep": {"t_max": 1.5, "n_times": 4, "distances": [1, 2, 3, 4]},
    }
    rows = run_lr_cone(cfg)["tables"][0]["rows"]
    assert len(rows) == 16
    model, _ = build_model(cfg["model"])
    H = model.hamiltonian("dense")
    dims = model.graph.site_dims
    sigma = {"x": sigma_x, "y": sigma_y, "z": sigma_z}[pauli]
    A = embed_matrix(sigma, (1,), dims)
    for t, d, b, measured, _ in rows:
        U = scipy.linalg.expm(1j * t * H)
        want = commutator_norm(U @ A @ U.conj().T, embed_matrix(sigma, (b,), dims))
        assert abs(measured - want) <= 1e-12, (t, d, b, measured, want)
    assert max(r[3] for r in rows) > 0.1  # the grid reaches visible growth


@pytest.mark.skipif(
    not blas_thread_counts(),
    reason="no bundled OpenBLAS exporting scipy_openblas_set_num_threads",
)
def test_pmap_splits_blas_threads_among_workers():
    before = blas_thread_counts()
    cap = max(1, (os.cpu_count() or 1) // 2)
    seen = _pmap(lambda _: blas_thread_counts(), range(4), 2)
    assert seen == [[min(k, cap) for k in before]] * 4
    assert blas_thread_counts() == before

    def boom(_):
        raise RuntimeError("worker failed")

    with pytest.raises(RuntimeError, match="worker failed"):
        _pmap(boom, range(4), 2)
    assert blas_thread_counts() == before


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
    model, _ = build_model(cfg["model"])
    path = _ramp_path(cfg, model, DecayFunctions(model.graph, 1.0))
    assert path.hamiltonian(0.0).dtype == np.float64
    for s in (0.05, 1.0):
        assert path.hamiltonian(s).dtype == np.complex128
        assert path.spectral(s).vectors.dtype == np.complex128
    rep = run_weak_step(cfg)
    assert all(c["passed"] for c in rep["checks"]), rep["checks"]


def _tqo_config():
    cfg = load_config(ROOT / "configs" / "tqo.json")
    return cfg, np.random.default_rng(cfg["seed"])


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


def test_runners_diagonalize_each_model_once(monkeypatch):
    calls = {"models": 0, "sectors": 0}

    def counting(module, fn):
        def wrapped(*args, **kwargs):
            calls[module] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(models, "eigendecompose", counting("models", models.eigendecompose))
    monkeypatch.setattr(sectors, "eigendecompose", counting("sectors", sectors.eigendecompose))
    small = {"kind": "transverse-field-Ising", "n": 6}
    run_lr_cone({
        "schema_version": 1, "experiment": "lr-cone", "model": small,
        "sweep": {"t_max": 0.5, "n_times": 2, "distances": [1]},
    })
    assert calls == {"models": 1, "sectors": 0}
    run_clustering({"schema_version": 1, "experiment": "clustering", "model": small})
    assert calls == {"models": 2, "sectors": 0}
    cfg, rng = _tqo_config()
    run_tqo(cfg, rng=rng)
    # the bulk toric code once, the dressed impurity path once (at s=1)
    assert calls == {"models": 3, "sectors": 1}


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


def _csv_cells(out):
    return {
        p.name: [line.split(",") for line in p.read_text(encoding="utf-8").splitlines()]
        for p in sorted(out.glob("*.csv"))
    }


@pytest.mark.parametrize("experiment", sorted(FLOW_CONFIGS))
def test_flow_runners_agree_across_workers(experiment, tmp_path):
    # the workers split independent (system, block) flow passes; BLAS
    # rounds differently under their thread cap, so values agree to
    # 1e-12 across worker counts and bit for bit at a fixed count
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
        assert np.abs(a[finite] - b[finite]).max() <= 1e-12
    for name in _csv_cells(outs["w2"]):
        assert (outs["w2"] / name).read_bytes() == (outs["w2-again"] / name).read_bytes()


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
