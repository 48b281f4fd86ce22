"""Sector identification, phase alignment, and step coefficients.

The transverse-field Ising chain used here is assembled by hand with
np.kron (independent of the package's embedding kernels) when it serves
as an oracle, and through InteractionFamily when the path machinery
itself is under test.
"""

import numpy as np
import pytest

from lpplab import interactions as itx
from lpplab import lattice, quasilocal, sectors
from lpplab.exceptions import GapClosed, StepTooLarge
from lpplab.operators import LocalOperator, eigendecompose, sigma_x, sigma_z


def tfim_family(G, J, h):
    terms = []
    for a, b in G.edges:
        terms.append(
            LocalOperator((a, b), (2, 2), -J * np.kron(sigma_z, sigma_z), hermitian=True)
        )
    for x in G.sites():
        terms.append(LocalOperator((x,), (2,), -h * sigma_x, hermitian=True))
    return itx.InteractionFamily(terms)


def tfim_path(n, J=1.0, h=2.0, site=0, w=0.4, rule=("fixed_d", 1)):
    G = lattice.chain(n)
    phi = tfim_family(G, J, h)
    W = itx.linear_ramp(G, site, w * sigma_z)
    return sectors.HamiltonianPath(G, phi, W=W, rule=rule)


def spectral_of(diagonal):
    return eigendecompose(np.diag(np.asarray(diagonal, dtype=float)), mode="dense")


# ---------------------------------------------------------- identify


def test_identify_fixed_d_hand_case():
    sec = sectors.identify_sector(spectral_of([0.0, 0.1, 1.5, 2.0]), ("fixed_d", 2))
    assert np.allclose(sec.values_in, [0.0, 0.1])
    assert sec.gap == pytest.approx(1.4)
    assert sec.width == pytest.approx(0.1)
    assert sec.dim == 2
    P = sec.projector
    assert np.allclose(P @ P, P, atol=1e-12)
    assert np.allclose(P, P.conj().T, atol=1e-12)


def test_identify_degenerate_raises():
    with pytest.raises(GapClosed):
        sectors.identify_sector(spectral_of([1.0, 1.0, 1.0, 1.0]), ("fixed_d", 2))


def test_identify_window_rule():
    sec = sectors.identify_sector(spectral_of([0.0, 1.0, 2.0, 3.0, 4.0]), ("window", 0.5, 2.5))
    assert np.allclose(sec.values_in, [1.0, 2.0])
    assert sec.gap == pytest.approx(1.0)
    assert sec.width == pytest.approx(1.0)


def test_identify_window_validation():
    S = spectral_of([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        sectors.identify_sector(S, ("window", 10.0, 11.0))
    with pytest.raises(ValueError):
        sectors.identify_sector(S, ("window", -1.0, 5.0))


def test_identify_depth_validation():
    S = spectral_of([0.0, 1.0])
    with pytest.raises(ValueError):
        sectors.identify_sector(S, ("fixed_d", 2))


def test_identify_cluster_warning_band():
    sec = sectors.identify_sector(spectral_of([0.0, 5e-10, 1.0]), ("fixed_d", 1))
    assert sec.warnings
    with pytest.raises(GapClosed):
        sectors.identify_sector(spectral_of([0.0, 5e-11, 1.0]), ("fixed_d", 1))


def test_identify_gap_matches_dense_oracle():
    # 8-spin TFIM assembled by hand, unique ground state
    n, J, h = 8, 1.0, 2.0
    eye = np.eye(2)

    def on_site(op, x):
        out = np.array([[1.0]])
        for y in range(n):
            out = np.kron(out, op if y == x else eye)
        return out

    H = np.zeros((2**n, 2**n))
    for x in range(n - 1):
        H -= J * on_site(sigma_z.real, x) @ on_site(sigma_z.real, x + 1)
    for x in range(n):
        H -= h * on_site(sigma_x.real, x)
    vals = np.linalg.eigvalsh(H)
    sec = sectors.identify_sector(eigendecompose(H, mode="dense"), ("fixed_d", 1))
    assert sec.gap == pytest.approx(vals[1] - vals[0], rel=1e-10)
    assert sec.gap > 0.5


# ------------------------------------------------------------ alignment


def _sector_pair(eps=0.02):
    path = tfim_path(6, w=0.8)
    a = path.sector(0.0)
    b = path.sector(eps)
    return a, b


def test_align_identity_on_same_sector():
    a, _ = _sector_pair()
    out = sectors.align_phases(a, a)
    O = a.basis.conj().T @ out.basis
    assert np.allclose(O, np.eye(a.dim), atol=1e-12)


def test_align_fixes_single_phase():
    a, _ = _sector_pair()
    flipped = sectors.SectorSpectrum(
        values_in=a.values_in,
        values_out=a.values_out,
        basis=a.basis * np.exp(1.37j),
        gap=a.gap,
        width=a.width,
    )
    out = sectors.align_phases(a, flipped)
    O = a.basis.conj().T @ out.basis
    assert np.allclose(O, np.eye(a.dim), atol=1e-12)


def test_align_unmixes_degenerate_cluster():
    # two exactly degenerate levels: any unitary mix of the basis pair
    # must be undone by the polar factor
    rng = np.random.default_rng(3)
    D = 8
    H = np.diag([0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    S = eigendecompose(H, mode="dense")
    sec = sectors.identify_sector(S, ("fixed_d", 2))
    theta = 0.7
    U = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex
    )
    mixed = sectors.SectorSpectrum(
        values_in=sec.values_in,
        values_out=sec.values_out,
        basis=sec.basis @ U,
        gap=sec.gap,
        width=sec.width,
    )
    out = sectors.align_phases(sec, mixed)
    assert np.allclose(out.basis, sec.basis, atol=1e-10)


def test_align_keeps_the_phases_of_a_complex_previous_basis():
    # a real eigenbasis aligned against a complex one (an impurity path's
    # initial basis) must take on the complex phase, not drop it
    phase = np.exp(0.4j)
    mk = lambda B: sectors.SectorSpectrum(
        values_in=np.array([0.0]),
        values_out=np.array([1.0]),
        basis=B,
        gap=1.0,
        width=0.0,
    )
    prev = mk(phase * np.eye(4)[:, :1])
    out = sectors.align_phases(prev, mk(np.eye(4)[:, :1]))
    assert out.basis.dtype == np.complex128
    assert np.allclose(out.basis, prev.basis, atol=1e-14)


def test_align_rejects_orthogonal_step():
    basis_a = np.eye(4)[:, :1].astype(complex)
    basis_b = np.eye(4)[:, 1:2].astype(complex)
    mk = lambda B: sectors.SectorSpectrum(
        values_in=np.array([0.0]),
        values_out=np.array([1.0]),
        basis=B,
        gap=1.0,
        width=0.0,
    )
    with pytest.raises(StepTooLarge):
        sectors.align_phases(mk(basis_a), mk(basis_b))


def test_align_small_step_overlaps_large():
    a, b = _sector_pair(eps=0.02)
    out = sectors.align_phases(a, b)
    O = a.basis.conj().T @ out.basis
    assert np.abs(np.diag(O)).min() > 0.9


# ----------------------------------------------------- step coefficients


def test_step_coefficients_identity_for_null_step():
    a, _ = _sector_pair()
    c, info = sectors.solve_step_coefficients(a, a)
    assert np.allclose(c, np.eye(a.dim), atol=1e-12)
    assert info["violations"] == 0
    assert info["residual"] < 1e-12


def test_step_coefficients_reconstruct_exactly():
    # direct full-space oracle: psi_i(next) == sum_j c_ij P(next) psi_j(prev)
    a, b_raw = _sector_pair(eps=0.05)
    b = sectors.align_phases(a, b_raw)
    c, info = sectors.solve_step_coefficients(a, b)
    P_next = b.projector
    for i in range(b.dim):
        recon = sum(c[i, j] * (P_next @ a.basis[:, j]) for j in range(a.dim))
        assert np.linalg.norm(recon - b.basis[:, i]) < 1e-10
    assert info["residual"] < 1e-10


def test_step_coefficients_single_vector_normalization():
    a, b_raw = _sector_pair(eps=0.05)
    b = sectors.align_phases(a, b_raw)
    c, _ = sectors.solve_step_coefficients(a, b)
    overlap = (b.basis.conj().T @ a.basis)[0, 0]
    assert c[0, 0] == pytest.approx(1.0 / overlap, rel=1e-10)
    assert np.abs(c[0, 0]) >= 1.0


def test_step_coefficients_bound_on_small_step():
    path = tfim_path(8, w=0.8)
    a = path.sector(0.0)
    b = sectors.align_phases(a, path.sector(0.02))
    c, info = sectors.solve_step_coefficients(a, b)
    assert info["violations"] == 0
    assert np.abs(c).sum(axis=1).max() <= 2.0 * np.sqrt(a.dim)


def test_step_coefficients_singular_gram():
    basis_a = np.eye(4)[:, :1].astype(complex)
    basis_b = np.eye(4)[:, 1:2].astype(complex)
    mk = lambda B: sectors.SectorSpectrum(
        values_in=np.array([0.0]),
        values_out=np.array([1.0]),
        basis=B,
        gap=1.0,
        width=0.0,
    )
    with pytest.raises(StepTooLarge):
        sectors.solve_step_coefficients(mk(basis_a), mk(basis_b))


# ------------------------------------------------------------- the path


def test_path_gap_certificate_weak_ramp():
    path = tfim_path(6, w=0.4)
    g_min, width_max = sectors.verify_gap_along_path(path, n_check=7)
    assert g_min > 0.5
    assert width_max == 0.0  # one-dimensional sector


def test_path_gap_constant_without_perturbation():
    G = lattice.chain(5)
    path = sectors.HamiltonianPath(G, tfim_family(G, 1.0, 2.0))
    gaps = []
    for s in (0.0, 0.5, 1.0):
        vals = path.sector_values(s)
        gaps.append(vals[1] - vals[0])
    assert np.ptp(gaps) < 1e-12


def _crossing_path(rule):
    # single site, levels 0 and 1 - 2s cross at s = 1/2
    G = lattice.LatticeGraph(1, [])
    phi = itx.InteractionFamily(
        [LocalOperator((0,), (2,), np.diag([0.0, 1.0]).astype(complex), hermitian=True)]
    )
    W = itx.PerturbationPath(G, [(0, lambda s: s * np.diag([0.0, -2.0]))])
    return sectors.HamiltonianPath(G, phi, W=W, rule=rule)


def test_path_detects_crossing():
    path = _crossing_path(("fixed_d", 1))
    with pytest.raises(GapClosed):
        sectors.verify_gap_along_path(path, n_check=9)


def test_split_sector_rules():
    vals = np.array([0.0, 0.1, 1.5, 2.0])
    in_idx, out_idx, gap = sectors.split_sector(vals, ("fixed_d", 2))
    assert list(in_idx) == [0, 1] and list(out_idx) == [2, 3]
    assert gap == pytest.approx(1.4)
    in_idx, out_idx, gap = sectors.split_sector(vals, ("window", 1.0, 1.8))
    assert list(in_idx) == [2] and list(out_idx) == [0, 1, 3]
    assert gap == pytest.approx(0.5)
    with pytest.raises(ValueError, match="beyond"):
        sectors.split_sector(vals, ("window", 1.0, 2.5), complete=False)
    with pytest.raises(GapClosed) as hit:
        sectors.split_sector(np.array([0.0, 0.0, 1.0]), ("fixed_d", 1), s=0.3)
    assert hit.value.s == 0.3 and hit.value.gap == 0.0


def test_one_sector_rule_for_every_gap_consumer():
    # identify_sector, verify_gap_along_path and the weak-step gap agree
    # on where the gap closes and on an ill-posed window
    path = _crossing_path(("fixed_d", 1))
    with pytest.raises(GapClosed) as at_sector:
        path.sector(0.5)
    with pytest.raises(GapClosed) as at_grid:
        sectors.verify_gap_along_path(path, n_check=3)
    with pytest.raises(GapClosed) as at_step:
        quasilocal._step_gap(path, 0.25, 0.75)
    assert at_sector.value.s == at_grid.value.s == at_step.value.s == 0.5
    assert at_sector.value.gap == at_grid.value.gap == at_step.value.gap == 0.0

    empty = _crossing_path(("window", 5.0, 6.0))
    for probe in (
        lambda: empty.sector(0.0),
        lambda: sectors.verify_gap_along_path(empty, n_check=3),
        lambda: quasilocal._step_gap(empty, 0.0, 0.1),
    ):
        with pytest.raises(ValueError, match="no eigenvalues inside window"):
            probe()


def test_path_spectral_cache_reuse_and_eviction():
    path = tfim_path(5)
    S1 = path.spectral(0.25)
    assert path.spectral(0.25) is S1
    path.spectral(0.5)
    path.spectral(0.75)
    path.spectral(1.0)  # evicts 0.25 (cache size 3)
    assert path.spectral(0.25) is not S1


def test_path_initial_basis_override():
    # degenerate two-level sector at s=0: a rotated basis spanning the
    # same plane is accepted verbatim, a wrong-span basis is rejected
    G = lattice.LatticeGraph(1, [], site_dims=4)
    phi = itx.InteractionFamily(
        [
            LocalOperator(
                (0,), (4,), np.diag([0.0, 0.0, 3.0, 4.0]).astype(complex), hermitian=True
            )
        ]
    )
    theta = 0.3
    good = np.zeros((4, 2), dtype=complex)
    good[0, 0], good[1, 0] = np.cos(theta), np.sin(theta)
    good[0, 1], good[1, 1] = -np.sin(theta), np.cos(theta)
    path = sectors.HamiltonianPath(
        G, phi, rule=("fixed_d", 2), initial_basis=good
    )
    assert np.allclose(path.sector(0.0).basis, good)

    bad = np.zeros((4, 2), dtype=complex)
    bad[0, 0], bad[2, 1] = 1.0, 1.0
    path_bad = sectors.HamiltonianPath(G, phi, rule=("fixed_d", 2), initial_basis=bad)
    with pytest.raises(ValueError):
        path_bad.sector(0.0)


def test_path_constants_composition():
    G = lattice.chain(6)
    dec = itx.DecayFunctions(G, mu=1.0)
    phi = tfim_family(G, 1.0, 2.0)
    path = sectors.HamiltonianPath(G, phi, decay=dec)
    consts = path.constants()
    assert consts["v"] == pytest.approx(itx.lr_velocity(phi, dec))
    assert consts["c_mu"] == pytest.approx(dec.convolution_constant)
    path_no = sectors.HamiltonianPath(G, phi)
    with pytest.raises(ValueError):
        path_no.constants()


def test_projector_slope_is_order_eps():
    path = tfim_path(6, w=0.8)
    P0 = path.sector(0.0).projector
    d1 = np.linalg.norm(path.sector(0.04).projector - P0, 2)
    d2 = np.linalg.norm(path.sector(0.02).projector - P0, 2)
    assert d2 == pytest.approx(d1 / 2, rel=0.15)


def test_projector_gauge_independent_oracle():
    # conjugate H by a random unitary, project, rotate back: the sector
    # projector must agree although the eigenbasis gauge differs
    path = tfim_path(5, w=0.6)
    H = path.hamiltonian(0.7, mode="dense")
    sec = sectors.identify_sector(eigendecompose(H, mode="dense"), ("fixed_d", 1))
    rng = np.random.default_rng(11)
    M = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    U, _ = np.linalg.qr(M)
    sec_rot = sectors.identify_sector(
        eigendecompose(U @ H @ U.conj().T, mode="dense"), ("fixed_d", 1)
    )
    P_back = U.conj().T @ sec_rot.projector @ U
    assert np.allclose(P_back, sec.projector, atol=1e-10)
