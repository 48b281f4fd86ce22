"""Model builders: gapped chains, the xy model and its boson picture,
impurity attachment, and the toric code."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from boson_oracle import (
    S1,
    S2,
    S3,
    MMCorrespondence,
    coupling_preset,
    vacuum_state,
)
from embed_oracle import commutator_norm, embed, scaled_terms, site_slope, term_sum
from tqo_oracle import full_space_tqo_check

from lpplab import lattice, models, sectors
from lpplab.exceptions import NotApplicable
from lpplab.operators import (
    CACHE_SIZE,
    LocalOperator,
    eigendecompose,
    embed_matrix,
    operator_norm,
    sigma_x,
    sigma_y,
    sigma_z,
)


def test_spin_operators():
    assert np.allclose(models.S_plus, S1 + 1j * S2)
    assert np.allclose(models.S_minus, S1 - 1j * S2)
    comm = S3 @ models.S_plus - models.S_plus @ S3
    assert np.allclose(comm, models.S_plus)
    assert np.allclose(models.n_up, 0.5 * np.eye(2) + S3)


# --------------------------------------------------------- gapped chains


def _gap(model):
    vals = model.spectral().values
    return float(vals[1] - vals[0])


def test_tfim_zero_coupling_gap_exact():
    # J=0 decouples the sites; the gap is exactly 2h
    model = models.build_gapped_chain(
        "transverse-field-Ising", {"n": 6, "J": 0.0, "h": 1.3}
    )
    assert abs(_gap(model) - 2.6) < 1e-10


def test_tfim_degenerate_point_has_zero_gap():
    # h=0 leaves the two ferromagnetic product states degenerate; the
    # builder does not judge that, the spectrum's readers do
    model = models.build_gapped_chain(
        "transverse-field-Ising", {"n": 6, "J": 1.0, "h": 0.0}
    )
    assert _gap(model) < 1e-10


def test_tfim_paramagnetic_gap():
    model = models.build_gapped_chain(
        "transverse-field-Ising", {"n": 8, "J": 1.0, "h": 2.0}
    )
    assert _gap(model) > 0.5
    assert model.graph.n_sites == 8


@pytest.mark.parametrize("periodic", [False, True])
def test_tfim_flip_blocks_match_the_full_eigh(periodic):
    model = models.build_gapped_chain(
        "transverse-field-Ising", {"n": 7, "J": 0.9, "h": 1.4, "periodic": periodic}
    )
    S = model.spectral(mode="dense")
    assert [b.parity for b in S.blocks] == [1, -1]
    H = model.hamiltonian()
    dense = H.dense()
    # oracle: the full-volume eigh that the two blocks replace
    assert np.abs(S.values - np.linalg.eigh(dense)[0]).max() <= 1e-12
    V = S.vectors
    res = np.linalg.norm(H @ V - V * S.values, axis=0)
    assert res.max() <= S.residual_tol <= 1e-10
    assert np.abs(V.T @ V - np.eye(len(V))).max() <= 1e-12
    # the blocks between the parities, (H[s, s'] - H[s, s'-bar]
    # + H[s-bar, s'] - H[s-bar, s'-bar]) / 2 over the half-states s, s',
    # are exactly 0
    half = len(dense) // 2
    top, bottom = dense[:half], dense[half:][::-1]
    off = top[:, :half] - top[:, ::-1][:, :half]
    off += bottom[:, :half] - bottom[:, ::-1][:, :half]
    assert not off.any()
    with pytest.raises(ValueError, match="global spin flip"):
        eigendecompose(dense + np.diag(np.arange(2 * half)), spin_flip=True)


def test_xy_chain_kind_matches_single_particle():
    n, gamma = 6, 0.7
    model = models.build_gapped_chain(
        "xy-with-potential", {"n": n, "gamma": gamma}
    )
    sp = models.single_particle_hamiltonian(model.graph, np.full(n, gamma))
    lam = np.linalg.eigvalsh(sp)
    assert abs(model.spectral().values[0]) < 1e-12
    assert abs(_gap(model) - lam[0]) < 1e-10
    assert _gap(model) >= gamma - 1e-12


def test_chain_kind_unknown():
    with pytest.raises(ValueError, match="unknown chain kind"):
        models.build_gapped_chain("heisenberg", {"n": 4})


def test_potential_validation():
    with pytest.raises(ValueError, match="u\\(x\\) >= gamma"):
        models.build_gapped_chain(
            "xy-with-potential", {"n": 4, "gamma": 1.0, "u": [1.0, 0.5, 1.0, 1.0]}
        )
    with pytest.raises(ValueError, match="u\\(x\\) >= gamma"):
        models.build_xy_model(models.XYModelSpec(L=4, gamma=0.0))
    with pytest.raises(ValueError, match="one value per site"):
        models.build_gapped_chain(
            "xy-with-potential", {"n": 4, "gamma": 1.0, "u": [1.0, 1.0]}
        )


# ------------------------------------------------------------- xy model


def test_xy_vacuum_annihilated():
    model = models.build_xy_model(models.XYModelSpec(L=8, gamma=1.0))
    H = model.hamiltonian().dense()
    vac = vacuum_state(model.graph)
    assert np.linalg.norm(H @ vac) < 1e-13
    assert abs(model.spectral().values[0]) < 1e-12  # the vacuum is the ground state


def test_xy_ring_gap_is_gamma():
    # constant potential: the one-boson dispersion u + 2 - 2cos(k) has
    # minimum u, so the gap equals gamma exactly
    model = models.build_xy_model(models.XYModelSpec(L=8, gamma=1.0))
    vals = np.linalg.eigvalsh(model.hamiltonian().dense())
    assert abs(vals[0]) < 1e-12
    assert abs(vals[1] - 1.0) < 1e-10


def test_xy_single_particle_block():
    L = 8
    model = models.build_xy_model(models.XYModelSpec(L=L, gamma=1.0))
    H = model.hamiltonian().dense()
    mm = MMCorrespondence(model.graph)
    Hb = mm.to_boson(H)
    sl = mm.block_slices[1]
    sp = models.single_particle_hamiltonian(model.graph, np.ones(L))
    assert np.abs(Hb[sl, sl] - sp).max() == 0.0
    # ring dispersion
    ks = 2 * np.pi * np.arange(L) / L
    disp = np.sort(1.0 + 2.0 - 2.0 * np.cos(ks))
    assert np.allclose(np.linalg.eigvalsh(sp), disp, atol=1e-10)


def test_xy_number_conservation():
    model = models.build_xy_model(models.XYModelSpec(L=6, gamma=1.0))
    mm = MMCorrespondence(model.graph)
    Hb = mm.to_boson(model.hamiltonian().dense())
    mask = np.zeros(Hb.shape, dtype=bool)
    for npart, sl in mm.block_slices.items():
        mask[sl, sl] = True
    assert np.abs(Hb[~mask]).max() == 0.0


def test_xy_torus():
    model = models.build_xy_model(models.XYModelSpec(L=3, nu=2, gamma=1.0))
    assert model.graph.n_sites == 9
    assert all(len(model.graph.neighbors(x)) == 4 for x in model.graph.sites())
    H = model.hamiltonian().dense()
    vac = vacuum_state(model.graph)
    assert np.linalg.norm(H @ vac) < 1e-13
    vals = np.linalg.eigvalsh(H)
    assert abs(vals[1] - 1.0) < 1e-10


def test_xy_spec_validation():
    with pytest.raises(ValueError, match="nu must be"):
        models.build_xy_model(models.XYModelSpec(L=4, nu=3))
    with pytest.raises(ValueError, match="L >= 3"):
        models.build_xy_model(models.XYModelSpec(L=2))


# --------------------------------------- Matsubara-Matsueda correspondence


def test_mm_vacuum_and_ordering():
    G = lattice.chain(4, periodic=True)
    mm = MMCorrespondence(G)
    assert mm.configs[0] == ()
    assert mm.perm[0] == 2**4 - 1
    assert mm.configs[mm.block_slices[1]] == [(0,), (1,), (2,), (3,)]
    vac = vacuum_state(G)
    b = mm.to_boson(vac)
    assert b[0] == 1.0 and np.linalg.norm(b[1:]) == 0.0


def test_mm_unitary_roundtrip():
    G = lattice.chain(5)
    mm = MMCorrespondence(G)
    rng = np.random.default_rng(7)
    v = rng.normal(size=32) + 1j * rng.normal(size=32)
    w = rng.normal(size=32) + 1j * rng.normal(size=32)
    assert abs(np.vdot(mm.to_boson(v), mm.to_boson(w)) - np.vdot(v, w)) < 1e-12
    assert np.allclose(mm.to_spin(mm.to_boson(v)), v)
    M = rng.normal(size=(32, 32))
    assert np.allclose(mm.to_spin(mm.to_boson(M)), M)


def test_mm_raising_operator_creates_boson():
    G = lattice.chain(3)
    mm = MMCorrespondence(G)
    x = 1
    Sp = embed(LocalOperator((x,), (2,), models.S_plus), G)
    B = mm.to_boson(Sp)
    for ci, cfg_in in enumerate(mm.configs):
        for co, cfg_out in enumerate(mm.configs):
            expect = 1.0 if (x not in cfg_in and set(cfg_out) == set(cfg_in) | {x}) else 0.0
            assert B[co, ci] == expect


def test_mm_spectra_identity_by_block():
    # union of the per-number block spectra reproduces the spin spectrum
    model = models.build_xy_model(models.XYModelSpec(L=8, gamma=1.0))
    mm = MMCorrespondence(model.graph)
    H = model.hamiltonian().dense()
    Hb = mm.to_boson(H)
    pieces = [
        np.linalg.eigvalsh(Hb[sl, sl]) for _, sl in sorted(mm.block_slices.items())
    ]
    assert np.allclose(
        np.sort(np.concatenate(pieces)), np.linalg.eigvalsh(H), atol=1e-10
    )


@given(st.integers(2, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_mm_index_roundtrip(n, data):
    cfg = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1)))))
    mm = MMCorrespondence(lattice.chain(n))
    assert mm.config(mm.spin_index(cfg)) == cfg


# ------------------------------------------------------------- impurities


def _xy_with_impurity(theta=0.4, L=6, site=2):
    model = models.build_xy_model(models.XYModelSpec(L=L, gamma=1.0))
    W = coupling_preset("hopping-ramp", theta, n_spins=1)
    return model, models.attach_impurity(model, site, 2, W, mu=1.0)


def test_attach_impurity_product_basis_exact():
    model, path = _xy_with_impurity()
    assert path.graph.site_dims[2] == 4
    assert path.rule == ("fixed_d", 2)
    sec = path.sector(0.0)
    H0 = path.hamiltonian(0.0).dense()
    for j in range(2):
        r = H0 @ sec.basis[:, j] - sec.values_in[j] * sec.basis[:, j]
        assert np.linalg.norm(r) < 1e-10
    assert np.abs(sec.values_in).max() < 1e-10


def test_attach_impurity_lift_acts_trivially_on_internal_space():
    model, path = _xy_with_impurity()
    Hb = model.hamiltonian().dense()
    H0 = path.hamiltonian(0.0).dense()
    rng = np.random.default_rng(3)
    v = rng.normal(size=Hb.shape[0]) + 1j * rng.normal(size=Hb.shape[0])
    for i in range(2):
        phi = np.eye(2)[:, i]
        lifted = models.lift_state(v, model.graph.site_dims, 2, phi)
        expect = models.lift_state(Hb @ v, model.graph.site_dims, 2, phi)
        assert np.linalg.norm(H0 @ lifted - expect) < 1e-10


def test_attach_impurity_zero_coupling_projector_is_product():
    model = models.build_xy_model(models.XYModelSpec(L=5, gamma=1.0))
    path = models.attach_impurity(model, 1, 2, np.zeros((4, 4)), mu=1.0)
    sec = path.sector(0.7)
    P = sec.basis @ sec.basis.conj().T
    vac = vacuum_state(model.graph)
    cols = [
        models.lift_state(vac, model.graph.site_dims, 1, np.eye(2)[:, i])
        for i in range(2)
    ]
    B = np.stack(cols, axis=1)
    assert operator_norm(P - B @ B.conj().T) < 1e-10


def test_attach_impurity_gap_preserved_on_ramp():
    _, path = _xy_with_impurity(theta=0.4)
    g, width = sectors.verify_gap_along_path(path, n_check=5)
    assert g > 0.8
    assert width < 0.2


def test_coupling_presets():
    for name in ("hopping-ramp", "exchange-ramp"):
        M = coupling_preset(name, 0.3, n_spins=1)
        assert np.abs(M - M.conj().T).max() < 1e-14
        S3tot = np.kron(S3, np.eye(2)) + np.kron(np.eye(2), S3)
        assert commutator_norm(M, S3tot) < 1e-14
    with pytest.raises(ValueError, match="unknown coupling preset"):
        coupling_preset("quench", 1.0)


def test_attach_impurity_trivial_internal_space():
    # dim(I) = 1 degenerates to a plain local perturbation
    model = models.build_xy_model(models.XYModelSpec(L=5, gamma=1.0))
    path = models.attach_impurity(model, 1, 1, 0.1 * sigma_z, mu=1.0)
    assert path.graph.site_dims == model.graph.site_dims
    assert path.rule == ("fixed_d", 1)


def test_attach_impurity_validation():
    model = models.build_xy_model(models.XYModelSpec(L=5, gamma=1.0))
    with pytest.raises(ValueError, match="must be positive"):
        models.attach_impurity(model, 1, 0, np.zeros((0, 0)))


# ------------------------------------------------------------ toric code


@pytest.fixture(scope="module")
def toric2():
    model, geom = models.build_toric_code(2)
    vals, gs, deg, gap = models.ground_sector_data(model)
    return model, geom, vals, gs, deg, gap


def test_toric_geometry_counts(toric2):
    model, geom, *_ = toric2
    assert model.graph.n_sites == 8
    stars = [geom.star(i, j) for i in range(2) for j in range(2)]
    plaqs = [geom.plaquette(i, j) for i in range(2) for j in range(2)]
    # every qubit sits in exactly two stars and two plaquettes
    for q in range(8):
        assert sum(q in s for s in stars) == 2
        assert sum(q in p for p in plaqs) == 2
    assert all(len(set(s)) == 4 for s in stars + plaqs)


def test_toric_stabilizers_commute(toric2):
    model, geom, *_ = toric2
    dense_terms = [embed(t, model.graph) for t in model.family.terms]
    for A, B in itertools.combinations(dense_terms, 2):
        assert commutator_norm(A, B) < 1e-12


def test_toric_ground_space(toric2):
    _, _, vals, gs, deg, gap = toric2
    assert deg == 4
    assert abs(vals[0] + 8.0) < 1e-10
    assert abs(gap - 4.0) < 1e-10


def test_toric_projector_commutes_with_stabilizers(toric2):
    model, geom, _, gs, _, _ = toric2
    P = gs @ gs.conj().T
    for t in model.family.terms:
        assert commutator_norm(P, embed(t, model.graph)) < 1e-11


def test_in_square_rules():
    geom = models.ToricGeometry(3)
    # single edge always fits a unit window
    assert geom.in_square((geom.h_edge(0, 0),), 1)
    # two horizontal edges in one row fit side 2
    pair = (geom.h_edge(0, 0), geom.h_edge(0, 1))
    assert geom.in_square(pair, 2)
    assert not geom.in_square(pair, 1)
    # a full wrap never fits below L
    loop = tuple(geom.h_edge(0, j) for j in range(3))
    assert not geom.in_square(loop, 2)
    assert geom.in_square(loop, 3)  # Lstar >= L is everything
    assert not geom.in_square((geom.h_edge(0, 0),), 0)
    assert geom.default_Lstar == 2


@given(st.integers(0, 2), st.integers(0, 2), st.data())
@settings(max_examples=30, deadline=None)
def test_in_square_translation_invariant(da, db, data):
    geom = models.ToricGeometry(3)
    qubits = data.draw(
        st.sets(st.integers(0, 17), min_size=1, max_size=4)
    )
    Lstar = data.draw(st.integers(1, 2))

    def shift(q):
        cell, horizontal = divmod(q, 2)
        i, j = divmod(cell, 3)
        i, j = (i + da) % 3, (j + db) % 3
        return 2 * (i * 3 + j) + horizontal

    moved = tuple(shift(q) for q in qubits)
    assert geom.in_square(tuple(qubits), Lstar) == geom.in_square(moved, Lstar)


def test_tqo_check_local_observables(toric2):
    model, geom, _, gs, _, _ = toric2
    A = LocalOperator((0,), (2,), sigma_z, hermitian=True)
    z, dev = models.tqo_check(gs, A, 1, geom)
    assert abs(z) < 1e-10
    assert dev < 1e-10
    # an in-window pair
    pair = tuple(sorted((geom.h_edge(0, 0), geom.v_edge(0, 0))))
    A2 = LocalOperator(pair, (2, 2), np.kron(sigma_x, sigma_x), hermitian=True)
    z2, dev2 = models.tqo_check(gs, A2, 1, geom)
    assert dev2 < 1e-10


def test_tqo_check_rejects_wrapping_support(toric2):
    model, geom, _, gs, _, _ = toric2
    loop = tuple(sorted(geom.h_edge(0, j) for j in range(2)))
    A = LocalOperator(loop, (2, 2), np.kron(sigma_z, sigma_z), hermitian=True)
    with pytest.raises(NotApplicable):
        models.tqo_check(gs, A, 1, geom)


def _complex_oracle(H, d):
    """Eigenvalues and the lowest-d projector of H, in complex arithmetic."""
    w, V = np.linalg.eigh(np.asarray(H, dtype=complex))
    return w, V[:, :d] @ V[:, :d].conj().T


def _real_spectral_cases():
    tfim = models.build_gapped_chain("transverse-field-Ising", {"n": 6})
    xy = models.build_xy_model(models.XYModelSpec(L=6, gamma=1.0, u=[1.0, 1.5] * 3))
    toric, _ = models.build_toric_code(2)
    _, impurity = _xy_with_impurity()
    yield "tfim-n6", tfim.hamiltonian().dense(), tfim.spectral(), 1
    yield "xy-ring", xy.hamiltonian().dense(), xy.spectral(), 1
    yield "toric-L2", toric.hamiltonian().dense(), toric.spectral(), 4
    yield "impurity-s1", impurity.hamiltonian(1.0).dense(), impurity.spectral(1.0), 2


def test_real_spectra_match_the_complex_path():
    for name, H, S, d in _real_spectral_cases():
        assert H.dtype == np.float64, name
        assert S.vectors.dtype == np.float64, name
        w, P = _complex_oracle(H, d)
        assert np.abs(S.values - w).max() <= 1e-12, name
        B = S.vectors[:, :d]
        assert np.abs(B @ B.T - P).max() <= 1e-10, name


def _bitwise_cases():
    """(name, dense H, the same H from the oracle's term-by-term sum)."""
    tfim = models.build_gapped_chain("transverse-field-Ising", {"n": 6})
    xy = models.build_xy_model(models.XYModelSpec(L=6, gamma=1.0, u=[1.0, 1.5] * 3))
    toric, _ = models.build_toric_code(2)
    for name, model in (("tfim-n6", tfim), ("xy-ring", xy), ("toric-L2", toric)):
        want = term_sum(model.family.terms, model.graph.site_dims)
        yield name, model.hamiltonian().dense(), want
    _, impurity = _xy_with_impurity()
    ramp = sectors.HamiltonianPath(
        tfim.graph, tfim.family, W=site_slope(tfim.graph, 2, 0.7 * sigma_y)
    )
    for tag, path in (("impurity", impurity), ("sigma-y-ramp", ramp)):
        for s in (0.0, 0.37, 1.0):
            want = term_sum(
                list(path.phi.terms) + scaled_terms(path.W, s), path.graph.site_dims
            )
            yield f"{tag}-s{s}", path.hamiltonian(s).dense(), want


def test_dense_hamiltonians_are_bitwise_the_term_sum():
    seen = set()
    for name, H, want in _bitwise_cases():
        assert H.dtype == want.dtype, name
        assert np.array_equal(H, want), name
        seen.add((name, H.dtype.kind))
    assert ("sigma-y-ramp-s0.37", "c") in seen and ("sigma-y-ramp-s0.0", "f") in seen
    assert ("impurity-s1.0", "f") in seen


def test_model_spectral_is_computed_once():
    model = models.build_gapped_chain("transverse-field-Ising", {"n": 5})
    S = model.spectral(mode="dense")
    assert model.spectral() is S  # "auto" resolves to the same dense data
    it4 = model.spectral(mode="iterative", k=4)
    assert model.spectral(mode="iterative", k=4) is it4
    assert len(model.spectral(mode="iterative", k=6).values) == 6
    model.spectral(mode="iterative", k=5)  # a fourth key drops the least recent
    assert len(model._spectra) == CACHE_SIZE
    assert ("dense", None) not in model._spectra
    assert model == models.Model(model.graph, model.family, model.kind, model.params)


def test_tqo_check_matches_full_space_oracle_with_nonzero_z(toric2):
    # a stabilizer (z = 1), a noncontractible loop (z = 0, deviation 1)
    # and their sum, in a window that holds the whole torus
    model, geom, _, gs, _, _ = toric2
    star = tuple(sorted(geom.star(0, 0)))
    loop = tuple(sorted(geom.h_edge(0, j) for j in range(2)))
    X4 = np.kron(np.kron(sigma_x, sigma_x), np.kron(sigma_x, sigma_x))
    Z2 = np.kron(sigma_z, sigma_z)
    both = tuple(sorted(set(star) | set(loop)))
    probes = [
        LocalOperator(star, (2,) * 4, X4),
        LocalOperator(loop, (2, 2), Z2),
        LocalOperator(both, (2,) * len(both),
                      embed_matrix(X4, [both.index(q) for q in star], (2,) * len(both))
                      + embed_matrix(Z2, [both.index(q) for q in loop], (2,) * len(both))),
    ]
    P = gs @ gs.conj().T
    expected = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    for A, (z_want, dev_want) in zip(probes, expected):
        z, dev = models.tqo_check(gs, A, 2, geom)
        z_ref, dev_ref = full_space_tqo_check(P, A, 2, geom)
        assert abs(z - z_ref) <= 1e-12 and abs(dev - dev_ref) <= 1e-10
        assert abs(z - z_want) <= 1e-10 and abs(dev - dev_want) <= 1e-10


def test_toric_size_validation():
    with pytest.raises(ValueError, match="L in"):
        models.build_toric_code(4)


@pytest.mark.slow
def test_toric_L3_iterative_ground_space():
    # 2^18-dimensional volume, ARPACK with k=8 resolves the ground
    # quadruplet plus the gap
    model, geom = models.build_toric_code(3)
    vals, gs, deg, gap = models.ground_sector_data(model, k=8)
    assert deg == 4
    assert abs(vals[0] + 18.0) < 1e-8
    assert abs(gap - 4.0) < 1e-8
