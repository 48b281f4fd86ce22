"""Acceptance gate: the ten primary checks, one pass/fail line each.

Each test drives a shipped config (or the library directly), asserts
the stated tolerance, and prints a single [PASS]/[FAIL] line.  Run with
-s to see the lines as they happen.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from flow_oracle import fd_projector_derivative
from quadrature_oracle import quadrature_projector
from transport_oracle import gaussian_filtered_projector

from lpplab import lattice, models, quasilocal
from lpplab import spectral_flow as sflow
from lpplab.cli import main
from lpplab.harness import load_config
from lpplab.harness.experiments import (
    run_clustering,
    run_impurity_lppl,
    run_kato_flow,
    run_lr_cone,
    run_tqo,
    run_transport,
    run_weak_step,
)
from lpplab.operators import embed_matrix, partial_trace_localize

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _report(num, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {num}: {label}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def _checks(report):
    return {c["name"]: c for c in report["checks"]}


def _all_passed(report):
    bad = [c["name"] for c in report["checks"] if not c["passed"]]
    detail = "; ".join(
        f"{c['name']}: {c['detail']}" for c in report["checks"]
    )
    return not bad, detail


# 1 -------------------------------------------------------------------


def test_criterion_1_filter_identity_and_equalities():
    t0 = time.perf_counter()
    model = models.build_gapped_chain("transverse-field-Ising", {"n": 8})
    S = model.spectral(mode="dense")
    lam = float(S.values[0])
    alpha = 2.0
    P_spec = gaussian_filtered_projector(S, lam, alpha)
    P_quad = quadrature_projector(S, lam, alpha)
    dev = float(np.linalg.norm(P_spec - P_quad, 2))

    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        g, mu, c_mu, pp = np.exp(rng.uniform(-1.5, 1.5, size=4))
        l = float(rng.uniform(0.5, 8.0))
        v = 2.0 * c_mu * pp / mu
        params = quasilocal.choose_filter_params(g, mu, c_mu, pp, v, l)
        e1 = g * g / (4 * params.alpha)
        e2 = params.alpha * params.T**2
        e3 = mu * (l - v * params.T)
        worst = max(
            worst,
            max(abs(e - params.exponent) for e in (e1, e2, e3))
            / max(params.exponent, 1.0),
        )
    wall = time.perf_counter() - t0
    _report(
        1,
        "filter quadrature matches spectral form; exponent equalities hold",
        dev <= 1e-8 and worst <= 1e-12 and wall < 60,
        f"identity dev {dev:.2e}, equality dev {worst:.2e}, {wall:.1f}s",
    )


# 2 -------------------------------------------------------------------


def test_criterion_2_lr_cone():
    t0 = time.perf_counter()
    rep = run_lr_cone(load_config(CONFIGS / "lr-cone.json"), workers=2)
    wall = time.perf_counter() - t0
    checks = _checks(rep)
    n_rows = len(rep["tables"][0]["rows"])
    _report(
        2,
        "commutator growth stays under the propagation bound",
        checks["lieb-robinson-bound"]["passed"] and n_rows == 160 and wall < 120,
        f"{checks['lieb-robinson-bound']['detail']}, {wall:.1f}s",
    )


# 3 -------------------------------------------------------------------


def test_criterion_3_weak_step():
    t0 = time.perf_counter()
    rep = run_weak_step(load_config(CONFIGS / "weak-step.json"))
    wall = time.perf_counter() - t0
    ok, detail = _all_passed(rep)
    _report(3, "localized weak step errors decay in l", ok and wall < 300,
            f"{detail}, {wall:.1f}s")


# 4 -------------------------------------------------------------------


def test_criterion_4_transport():
    rep = run_transport(load_config(CONFIGS / "transport.json"))
    ok, detail = _all_passed(rep)
    _report(4, "sector transport errors decay in l with bounded steps", ok, detail)


# 5 -------------------------------------------------------------------


def test_criterion_5_impurity_lppl():
    rep = run_impurity_lppl(load_config(CONFIGS / "impurity-lppl.json"))
    ok, detail = _all_passed(rep)
    _report(5, "impurity dressing is quasi-local with exact W=0 control", ok, detail)


# 6 -------------------------------------------------------------------


def test_criterion_6_clustering():
    rep_b = run_clustering(load_config(CONFIGS / "clustering.json"))
    rep_i = run_clustering(load_config(CONFIGS / "clustering-impurity.json"))
    ok_b, detail_b = _all_passed(rep_b)
    ok_i, detail_i = _all_passed(rep_i)
    _report(
        6,
        "correlations cluster in the bulk and reorganize around the impurity",
        ok_b and ok_i,
        f"bulk: {detail_b} | impurity: {detail_i}",
    )


# 7 -------------------------------------------------------------------


def test_criterion_7_tqo():
    t0 = time.perf_counter()
    cfg = load_config(CONFIGS / "tqo.json")
    rep = run_tqo(cfg, rng=np.random.default_rng(7))
    wall = time.perf_counter() - t0
    ok, detail = _all_passed(rep)
    _report(7, "topological ground space passes probe and impurity checks",
            ok and wall < 300, f"{detail}, {wall:.1f}s")


# 8 -------------------------------------------------------------------


def test_criterion_8_kato_flow():
    rep = run_kato_flow(load_config(CONFIGS / "kato-flow.json"))
    ok, detail = _all_passed(rep)
    _report(8, "spectral flow integrates accurately and truncates locally",
            ok, detail)


# 9 -------------------------------------------------------------------


def test_criterion_9_oracle_equivalences():
    # partial-trace localization vs an independent Pauli twirl
    rng = np.random.default_rng(23)
    G = lattice.chain(4)
    X = (1, 2)
    env = (0, 3)
    paulis = [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    dev_twirl = 0.0
    for _ in range(50):
        M = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        A = (M + M.conj().T) / 2
        loc = partial_trace_localize(A, X, G)
        lifted = embed_matrix(loc.matrix, loc.support, G.site_dims)
        twirl = np.zeros_like(A)
        for p1 in paulis:
            for p2 in paulis:
                U = embed_matrix(np.kron(p1, p2), env, G.site_dims)
                twirl += U @ A @ U.conj().T
        twirl /= 16.0
        dev_twirl = max(dev_twirl, float(np.linalg.norm(lifted - twirl, 2)))

    # iterative vs dense spectra, lowest four at twelve spins
    model = models.build_gapped_chain("transverse-field-Ising", {"n": 12})
    S_it = model.spectral(mode="iterative", k=4)
    S_dn = model.spectral(mode="dense")
    dev_eig = float(np.abs(S_it.values[:4] - S_dn.values[:4]).max())

    # resolvent vs finite-difference projector derivative
    ring = lattice.chain(8, periodic=True)
    system = sflow.BosonSystem(
        ring, 1.0, (sflow.ImpurityModes(0, 1, 0.5),)
    )
    path = sflow.BlockSectorPath(system, 1)
    dev_fd = 0.0
    for s in (0.2, 0.7):
        dP_res = sflow.projector_derivative(path, s)
        dP_fd = fd_projector_derivative(path, s)
        dev_fd = max(dev_fd, float(np.linalg.norm(dP_res - dP_fd, 2)))

    _report(
        9,
        "independent oracles agree (twirl, dense spectra, finite differences)",
        dev_twirl <= 1e-10 and dev_eig <= 1e-8 and dev_fd <= 1e-6,
        f"twirl {dev_twirl:.2e}, eig {dev_eig:.2e}, fd {dev_fd:.2e}",
    )


# 10 ------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    outputs = {}
    for exp in ("ct-profile", "tqo"):
        digests = []
        for run in ("a", "b"):
            out = tmp_path / f"{exp}-{run}"
            code = main(
                [exp, "--config", str(CONFIGS / f"{exp}.json"),
                 "--out", str(out), "--seed", "7"]
            )
            assert code == 0, f"{exp} run exited {code}"
            digests.append(
                tuple(
                    p.read_bytes()
                    for p in sorted(out.glob("*.csv"))
                )
            )
        outputs[exp] = digests[0] == digests[1]
    _report(
        10,
        "repeated runs produce byte-identical tables",
        all(outputs.values()),
        ", ".join(f"{k}: {'identical' if v else 'DIFFER'}" for k, v in outputs.items()),
    )
