"""Sector-block spectral flow: Kato generators, truncation, integration,
and Combes-Thomas resolvent profiles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boson_oracle import coupling_preset, number_conservation_defect
from flow_oracle import (
    _expm_i,
    block_projector,
    fd_block_derivative,
    fd_projector_derivative,
    flow_pass,
    loop_assemble,
)
from lpplab import lattice, models
from lpplab import spectral_flow as sf
from lpplab.exceptions import GapClosed, UnitarityLost
from lpplab.operators import (
    CACHE_SIZE,
    _span_error,
    operator_norm,
    sigma_x,
    sigma_y,
    sigma_z,
)


def ring_system(L=10, site=2, theta=0.5, u=1.0):
    G = lattice.chain(L, periodic=True)
    imp = sf.ImpurityModes(site, 1, theta)
    return sf.BosonSystem(G, u, [imp])


def two_impurity_system(L=8, theta=0.5):
    """Impurities at sites 0 and L // 2, both ramped, as in the
    sequential-coupling experiment."""
    G = lattice.chain(L, periodic=True)
    imps = [sf.ImpurityModes(site, 1, theta) for site in (0, L // 2)]
    return sf.BosonSystem(G, 1.0, imps)


class TinyPath:
    """Direct dense path for hand-built Hamiltonians."""

    def __init__(self, H_fn, dH_fn, d):
        self.H_fn = H_fn
        self.dH_fn = dH_fn
        self.d = d
        self.dim = H_fn(0.0).shape[0]

    def dhamiltonian(self, s):
        return self.dH_fn(s)

    def spectral(self, s):
        return np.linalg.eigh(self.H_fn(s))

    def projector(self, s):
        if self.d == 0:
            return np.zeros((self.dim, self.dim), dtype=complex)
        _, vecs = self.spectral(s)
        B = vecs[:, : self.d]
        return (B @ B.conj().T).astype(complex)


# ------------------------------------------------------- system and blocks


def test_boson_system_layout():
    system = ring_system(L=6, site=2)
    assert system.n_modes == 7
    assert system.impurity_modes == (6,)
    assert system.anchor_sites == (2,)
    assert system.capacity == 1
    assert system.mode_site == (0, 1, 2, 3, 4, 5, 2)
    assert system.mode_distance(6, 0) == 2


def test_single_particle_matches_bulk_block():
    G = lattice.chain(7, periodic=True)
    u = np.linspace(1.0, 2.0, 7)
    system = sf.BosonSystem(G, u)
    sp = system.single_particle(0.3)
    assert np.array_equal(sp, models.single_particle_hamiltonian(G, u))


def test_single_particle_coupling_entries():
    system = ring_system(L=6, site=2, theta=0.5)
    sp = system.single_particle(0.8)
    assert sp[2, 6] == sp[6, 2] == -0.4
    assert sp[6, 6] == 0.0
    dsp = system.dsingle_particle()
    assert abs(dsp[2, 6] + 0.5) < 1e-9
    assert np.abs(dsp[:6, :6]).max() == 0.0


def test_block_dimensions_and_order():
    system = ring_system(L=5)
    for n in range(system.n_modes + 1):
        blk = system.block(n)
        assert blk.dim == math.comb(system.n_modes, n)
    blk = system.block(2)
    assert blk.configs[:3] == [(0, 1), (0, 2), (0, 3)]


def test_one_particle_block_is_single_particle_matrix():
    system = ring_system(L=6)
    assert np.allclose(system.block(1).matrix(0.7), system.single_particle(0.7))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_block_assembly_matches_loop_oracle(n):
    system = two_impurity_system(L=6)
    blk = system.block(n)
    for s in (0.0, 0.35, 1.0):
        assert np.array_equal(
            blk.matrix(s), loop_assemble(blk, system.single_particle(s))
        )
    assert np.array_equal(blk.dmatrix(), loop_assemble(blk, system.dsingle_particle()))


@pytest.mark.parametrize("n", [1, 2])
def test_block_slope_matches_central_difference(n):
    # dH/ds is assembled once from the exact slope M1; a central
    # difference of H(s) agrees to rounding, since H is linear in s
    path = sf.BlockSectorPath(two_impurity_system(L=6), n)
    for s in (0.2, 0.5, 0.9):
        dH = path.dhamiltonian(s)
        assert dH.any()
        assert np.abs(dH - fd_block_derivative(path.block, s)).max() <= 1e-8


def test_block_spectra_match_spin_model():
    # the hard-core block decomposition against the full spin Hamiltonian
    L, theta = 6, 0.5
    model = models.build_xy_model(models.XYModelSpec(L=L, gamma=1.0))
    W = coupling_preset("hopping-ramp", theta, n_spins=1)
    path = models.attach_impurity(model, 2, 2, W, mu=1.0)
    system = sf.BosonSystem(
        model.graph, np.ones(L), [sf.ImpurityModes(2, 1, theta)]
    )
    for s in (0.0, 0.37, 1.0):
        spin = np.linalg.eigvalsh(path.hamiltonian(s).dense())
        blocks = np.concatenate(
            [
                np.linalg.eigvalsh(system.block(n).matrix(s))
                for n in range(system.n_modes + 1)
            ]
        )
        assert np.abs(np.sort(blocks) - spin).max() < 1e-12


def test_number_conservation_exact_along_path():
    L, theta = 5, 0.4
    model = models.build_xy_model(models.XYModelSpec(L=L, gamma=1.0))
    for preset in ("hopping-ramp", "exchange-ramp"):
        W = coupling_preset(preset, theta, n_spins=1)
        path = models.attach_impurity(model, 1, 2, W, mu=1.0)
        for s in (0.0, 0.5, 1.0):
            H = path.hamiltonian(s).dense()
            assert number_conservation_defect(H, path.graph, {1: 1}) <= 1e-10


def test_system_validation():
    G = lattice.chain(4)
    with pytest.raises(ValueError, match="not on the graph"):
        sf.BosonSystem(G, 1.0, [sf.ImpurityModes(9, 1, 1.0)])
    with pytest.raises(ValueError, match="at least one mode"):
        sf.BosonSystem(G, 1.0, [sf.ImpurityModes(1, 0, 1.0)])
    with pytest.raises(ValueError, match="one value per site"):
        sf.BosonSystem(G, np.ones(3))
    with pytest.raises(ValueError, match="out of range"):
        sf.BosonSystem(G, 1.0).block(9)


# ------------------------------------------------------- Kato generator


def test_kato_generator_zero_and_hermitian():
    P = np.diag([1.0, 0.0]).astype(complex)
    assert np.abs(sf.kato_generator(P, np.zeros((2, 2)))).max() == 0.0
    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    dP = A + A.conj().T
    Q = np.zeros((4, 4), dtype=complex)
    Q[0, 0] = 1.0
    G = sf.kato_generator(Q, dP)
    assert operator_norm(G - G.conj().T) < 1e-14


def test_kato_generator_rejects_non_projector():
    with pytest.raises(ValueError, match="not a projector"):
        sf.kato_generator(0.5 * np.eye(2), np.zeros((2, 2)))


def _rotating(s):
    v = np.array([np.cos(s), np.sin(s)], dtype=complex)
    P = np.outer(v, v.conj())
    dv = np.array([-np.sin(s), np.cos(s)], dtype=complex)
    dP = np.outer(dv, v.conj()) + np.outer(v, dv.conj())
    return P, dP


def test_kato_generator_rotating_projector():
    for s in (0.0, 0.3, 1.1):
        P, dP = _rotating(s)
        G = sf.kato_generator(P, dP)
        assert np.abs(G - (-sigma_y)).max() < 1e-12
        # intertwining: dP = i[G, P]
        assert operator_norm(dP - 1j * (G @ P - P @ G)) < 1e-8


# --------------------------------------------------- projector derivative


def test_projector_derivative_constant_coupling_is_zero():
    G = lattice.chain(6, periodic=True)
    system = sf.BosonSystem(G, 1.0, [sf.ImpurityModes(2, 1, 0.0)])
    path = sf.BlockSectorPath(system, 1)
    dP = sf.projector_derivative(path, 0.5)
    assert np.abs(dP).max() < 1e-12
    dPf = fd_projector_derivative(path, 0.5)
    assert np.abs(dPf).max() < 1e-8


def test_projector_derivative_avoided_crossing():
    delta = 0.3

    def H(s):
        return (s - 0.5) * sigma_z + delta * sigma_x

    def dH(s):
        return sigma_z

    path = TinyPath(H, dH, 1)
    for s in (0.2, 0.5, 0.9):
        m = s - 0.5
        r = np.hypot(delta, m)
        analytic = (delta * m * sigma_x - delta**2 * sigma_z) / (2 * r**3)
        res = sf.projector_derivative(path, s)
        fd = fd_projector_derivative(path, s, projector=TinyPath.projector)
        assert operator_norm(res - analytic) < 1e-10
        assert operator_norm(fd - analytic) < 1e-6


def test_projector_derivative_methods_agree_on_block():
    path = sf.BlockSectorPath(ring_system(), 1)
    for s in (0.3, 0.7):
        res = sf.projector_derivative(path, s)
        fd = fd_projector_derivative(path, s)
        assert operator_norm(res - res.conj().T) < 1e-12
        assert operator_norm(res - fd) < 1e-6


def test_projector_derivative_gap_closed():
    def H(s):
        return (s - 0.5) * sigma_z

    path = TinyPath(H, lambda s: sigma_z, 1)
    with pytest.raises(GapClosed):
        sf.projector_derivative(path, 0.5)


# -------------------------------------------------- generator truncation


def _block_generator(system, s=0.5):
    path = sf.BlockSectorPath(system, 1)
    dP = sf.projector_derivative(path, s)
    return path, sf.kato_generator(block_projector(path, s), dP)


def test_truncate_generator_full_radius_is_identity():
    system = ring_system()
    path, G = _block_generator(system)
    diam = system.graph.diameter()
    Gl = sf.truncate_generator(G, system.anchor_sites, diam, path.block)
    assert np.allclose(Gl, G)


def test_truncate_generator_mask_and_support():
    system = ring_system(L=8, site=3)
    path, G = _block_generator(system)
    l = 1
    Gl = sf.truncate_generator(G, (3,), l, path.block)
    allowed = lattice.fatten(system.graph, {3}, l)
    imp = set(system.impurity_modes)
    for ci, ca in enumerate(path.block.configs):
        for cj, cb in enumerate(path.block.configs):
            inside = all(
                m in imp or system.mode_site[m] in allowed for m in ca + cb
            )
            if not inside:
                assert Gl[ci, cj] == 0.0
    assert operator_norm(Gl - Gl.conj().T) < 1e-14
    # truncation is idempotent
    assert np.allclose(sf.truncate_generator(Gl, (3,), l, path.block), Gl)


def test_truncate_generator_decay_in_radius():
    system = ring_system()
    path, G = _block_generator(system)
    errs = [
        operator_norm(G - sf.truncate_generator(G, (2,), l, path.block))
        for l in range(0, 5)
    ]
    assert all(errs[i + 1] < errs[i] for i in range(4))
    assert errs[4] < 0.1 * errs[0]


# ------------------------------------------------------- flow integration


def test_flow_untruncated_tracks_projector():
    path = sf.BlockSectorPath(ring_system(), 1)
    U, grid, errs = sf.integrate_flow(path, None, 0.02)
    assert errs[-1] < 1e-5
    assert grid[-1] == 1.0
    assert operator_norm(U.conj().T @ U - np.eye(path.dim)) < 1e-10


def test_flow_rotating_projector_is_exact():
    # constant generator: midpoint exponentials compose into the exact
    # rotation, so the defect stays at machine level
    def H(s):
        v = np.array([np.cos(s), np.sin(s)])
        return -np.outer(v, v)

    def dH(s):
        P, dP = _rotating(s)
        return -dP

    path = TinyPath(H, dH, 1)
    U, _, errs = sf.integrate_flow(path, None, 0.1)
    assert errs[-1] < 1e-12
    expect = np.array(
        [[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]]
    )
    assert operator_norm(U - expect) < 1e-10


def test_flow_halving_reduces_error_fourfold():
    delta = 0.3
    path = TinyPath(
        lambda s: (s - 0.5) * sigma_z + delta * sigma_x, lambda s: sigma_z, 1
    )
    _, _, e1 = sf.integrate_flow(path, None, 0.1)
    _, _, e2 = sf.integrate_flow(path, None, 0.05)
    ratio = e1[-1] / e2[-1]
    assert 3.0 < ratio < 5.0


def test_flow_truncated_error_decays_exponentially():
    path = sf.BlockSectorPath(ring_system(), 1)
    errs = []
    for l in range(0, 5):
        _, _, e = sf.integrate_flow(path, l, 0.02)
        errs.append(e[-1])
    assert all(errs[i + 1] < errs[i] for i in range(4))
    assert errs[4] < 0.05 * errs[0]
    rate = -np.polyfit(np.arange(5), np.log(errs), 1)[0]
    assert rate > 0.5


def test_flow_empty_sector_exactly_trivial():
    # more particles than the impurity can hold: P = 0, G = 0, U = 1
    system = ring_system(L=6)
    path = sf.BlockSectorPath(system, 2)
    assert path.d == 0
    U, _, errs = sf.integrate_flow(path, 2, 0.1)
    assert np.abs(U - np.eye(path.dim)).max() == 0.0
    assert np.abs(errs).max() == 0.0


@pytest.mark.parametrize(
    "system, n, K",
    [(ring_system(), 1, (2,)), (two_impurity_system(), 2, (0, 4))],
    ids=["ring-one-impurity", "two-impurities-n2"],
)
def test_integrate_flows_matches_per_radius_oracle(system, n, K):
    # the oracle steps in complex arithmetic on the whole block and
    # takes dense error norms; the real sub-block steps and span-sized
    # norms round differently, so U and the errors agree to 1e-13
    radii = [None, 1, 2, 3]
    flows = sf.integrate_flows(sf.BlockSectorPath(system, n), radii, 0.1, K=K)
    assert len(flows) == len(radii)
    for l, (U, grid, errs) in zip(radii, flows):
        ref_U, ref_grid, ref_errs = flow_pass(sf.BlockSectorPath(system, n), l, 0.1, K)
        assert U.dtype == np.float64
        assert np.abs(U - ref_U).max() <= 1e-13
        assert np.array_equal(grid, ref_grid)
        assert np.abs(errs - ref_errs).max() <= 1e-13


def _antisymmetric(rng, n):
    A = rng.normal(size=(n, n))
    return (A - A.T) / 2


def test_orthogonal_step_matches_complex_exponential():
    rng = np.random.default_rng(11)
    # a rotation on two coordinates and zeros elsewhere: three zero angles
    rot = np.zeros((5, 5))
    rot[1, 3], rot[3, 1] = 0.7, -0.7
    cases = [_antisymmetric(rng, n) for n in (2, 6, 7)] + [rot]
    for K in cases:
        for ds in (0.01, 0.1, 1.0):
            E = sf._orthogonal_step(K, ds)
            assert E.dtype == np.float64
            assert np.abs(E - _expm_i(1j * ds * K)).max() <= 1e-14
    assert np.array_equal(sf._orthogonal_step(np.zeros((4, 4)), 0.1), np.eye(4))


def _orthonormal(rng, D, d):
    return np.linalg.qr(rng.normal(size=(D, d)))[0]


def test_span_error_matches_dense_norm():
    rng = np.random.default_rng(12)

    def dense(B1, C):
        return operator_norm(B1 @ B1.T - C @ C.T, hermitian=True)

    assert _span_error(np.zeros((6, 0)), np.zeros((6, 0))) == 0.0
    pairs = [(_orthonormal(rng, 4, 4), _orthonormal(rng, 4, 4))]  # d = dim
    for D, d in ((7, 1), (9, 2), (5, 2)):
        B1 = _orthonormal(rng, D, d)
        U = _orthonormal(rng, D, D)
        pairs.append((B1, U @ _orthonormal(rng, D, d)))
        pairs.append((B1, rng.normal(size=(D, d))))  # any U, not only orthogonal
    for B1, C in pairs:
        assert abs(_span_error(B1, C) - dense(B1, C)) <= 1e-14
    # nearly aligned: one column turned by 1e-9 out of the span, so the
    # norm is sin(1e-9), which the compression must not round away
    angle = 1e-9
    F = _orthonormal(rng, 8, 8)
    B1 = F[:, :2]
    C = np.column_stack([np.cos(angle) * F[:, 0] + np.sin(angle) * F[:, 2], F[:, 1]])
    err = _span_error(B1, C)
    assert abs(err - dense(B1, C)) <= 1e-14
    assert abs(err - np.sin(angle)) <= 1e-6 * angle


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_span_step_matches_assembled_generator(dtype):
    # I + Q (E - I) Q* against the step of the assembled D x D
    # K = B Y* - Y B*, on all rows and on 3 kept rows (fewer than 2d)
    rng = np.random.default_rng(13)

    def draw(*shape):
        a = rng.normal(size=shape)
        return a + 1j * rng.normal(size=shape) if dtype is np.complex128 else a

    D, d = 9, 2
    B = np.linalg.qr(draw(D, d))[0]
    Y = 0.5 * draw(D, d)
    for rows in (slice(None), np.arange(D) < 3):
        Bk, Yk = B[rows], Y[rows]
        K = Bk @ Yk.conj().T - Yk @ Bk.conj().T
        for ds in (0.01, 0.1, 1.0):
            Q, F = sf._span_step(Bk, Yk, ds)
            assert Q.dtype == dtype
            step = np.eye(len(Bk)) + Q @ F @ Q.conj().T
            assert np.abs(step - sf._orthogonal_step(K, ds)).max() <= 1e-14
    Q, F = sf._span_step(B, np.zeros_like(B), 0.1)
    assert np.array_equal(np.eye(D) + Q @ F @ Q.conj().T, np.eye(D))


def _count_block_eigh(monkeypatch, dim):
    """A list that grows by one per `eigh` of a dim x dim matrix."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        if a.shape == (dim, dim):
            calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def test_static_block_takes_one_eigh_per_flow(monkeypatch):
    # uncoupled, H(s) does not depend on s: dP = 0, so no step is taken,
    # and one spectrum serves every grid point
    G = lattice.chain(8, periodic=True)
    imps = [sf.ImpurityModes(site, 1, 0.0) for site in (0, 4)]
    path = sf.BlockSectorPath(sf.BosonSystem(G, 1.0, imps), 1)
    calls = _count_block_eigh(monkeypatch, path.dim)
    flows = sf.integrate_flows(path, [None, 1, 2], 0.1, K=(0, 4))
    assert len(calls) == 1
    B0 = sf.sector_basis(path, 0.0)
    for U, _, errs in flows:
        assert np.array_equal(U, np.eye(path.dim))
        assert np.array_equal(errs[1:], np.full(10, _span_error(B0, B0)))
    # the uncoupled control: the basis is the impurity configurations
    assert all(not errs.any() for _, _, errs in flows)


def test_ramped_block_takes_one_eigh_per_grid_point(monkeypatch):
    path = sf.BlockSectorPath(two_impurity_system(), 1)
    calls = _count_block_eigh(monkeypatch, path.dim)
    sf.integrate_flows(path, [None, 1], 0.1, K=(0, 4))
    assert len(calls) == 21  # s = 0, 0.05, ..., 1: endpoints and midpoints


def test_flow_grid_ends_at_one(monkeypatch):
    # 49 * (1/49) is 0.9999999999999999; the grid still ends at s = 1, so
    # a later read of s = 1.0 finds the flow's spectrum there
    path = sf.BlockSectorPath(two_impurity_system(), 1)
    (_, grid, _), = sf.integrate_flows(path, [None], 1 / 49, track=())
    assert grid[-1] == 1.0
    calls = _count_block_eigh(monkeypatch, path.dim)
    sf.sector_basis(path, 1.0)
    assert calls == []


def test_untracked_flow_reads_the_spectrum_at_the_midpoints_and_ends(monkeypatch):
    # track=() skips the ten inner endpoints: s = 0, the ten midpoints
    # and s = 1; U and the s = 1 errors are bitwise the tracked pass's
    radii = [None, 1, 2]
    full = sf.integrate_flows(sf.BlockSectorPath(two_impurity_system(), 1), radii, 0.1,
                              K=(0, 4))
    path = sf.BlockSectorPath(two_impurity_system(), 1)
    calls = _count_block_eigh(monkeypatch, path.dim)
    bare = sf.integrate_flows(path, radii, 0.1, K=(0, 4), track=())
    assert len(calls) == 12
    for (U, grid, errs), (U_t, grid_t, errs_t) in zip(bare, full):
        assert np.array_equal(U, U_t)
        assert np.array_equal(grid, grid_t)
        assert np.array_equal(errs, errs_t[-1:])
        assert errs_t[-1] > 0


def test_tracked_radii_keep_their_series():
    # tracking the untruncated flow alone, as kato-flow does: its series
    # and every U are bitwise the fully tracked pass's
    radii = [None, 1, 2, 3]
    full = sf.integrate_flows(sf.BlockSectorPath(ring_system(), 1), radii, 0.1)
    part = sf.integrate_flows(sf.BlockSectorPath(ring_system(), 1), radii, 0.1,
                              track=(None,))
    assert np.array_equal(part[0][2], full[0][2])
    assert len(part[0][2]) == 11
    for (U, _, errs), (U_t, _, errs_t) in zip(part, full):
        assert np.array_equal(U, U_t)
        assert np.array_equal(errs[-1:], errs_t[-1:])
    assert all(len(errs) == 1 for _, _, errs in part[1:])


def test_sub_block_step_leaves_other_rows_untouched():
    system = ring_system()
    path = sf.BlockSectorPath(system, 1)
    keep = sf._window_keep((2,), 1, path.block)
    assert 0 < keep.sum() < path.dim
    (U, _, _), = sf.integrate_flows(path, [1], 0.1)
    eye = np.eye(path.dim)
    assert np.array_equal(U[~keep], eye[~keep])
    # nor do the kept rows reach the other columns: U = U_keep (+) I
    assert np.array_equal(U[:, ~keep], eye[:, ~keep])
    assert not np.array_equal(U[keep], eye[keep])


def test_block_path_cache_is_bounded():
    path = sf.BlockSectorPath(ring_system(), 1)
    P0 = block_projector(path, 0.0)
    sf.integrate_flows(path, [None, 1], 0.1)
    assert len(path._cache) <= CACHE_SIZE
    assert 0.0 not in path._cache
    assert np.array_equal(block_projector(path, 0.0), P0)


def test_lost_unitarity_is_typed(monkeypatch):
    monkeypatch.setattr(sf, "UNITARITY_TOL", -1.0)
    with pytest.raises(UnitarityLost) as info:
        sf.integrate_flows(sf.BlockSectorPath(ring_system(), 1), [2, None], 0.1)
    assert info.value.l == 2
    assert 0.0 <= info.value.defect < 1e-10


def test_flow_needs_region_for_truncation():
    def H(s):
        return -np.eye(2)

    path = TinyPath(H, lambda s: np.zeros((2, 2)), 1)
    with pytest.raises(ValueError, match="coupling region"):
        sf.integrate_flow(path, 1, 0.1)


# ------------------------------------------------------- Combes-Thomas


def test_config_distance_examples():
    system = ring_system(L=6, site=2)
    blk = system.block(2)
    assert sf.config_distance(blk, (0, 3), (1, 2)) == 1
    assert sf.config_distance(blk, (0, 1), (0, 1)) == 0
    # impurity mode 6 sits at site 2
    assert sf.config_distance(blk, (0, 6), (0, 2)) == 0
    with pytest.raises(ValueError, match="different particle numbers"):
        sf.config_distance(blk, (0, 1), (0,))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_config_distance_symmetric(data):
    system = ring_system(L=6, site=2)
    blk = system.block(2)
    a = tuple(sorted(data.draw(st.sets(st.integers(0, 6), min_size=2, max_size=2))))
    b = tuple(sorted(data.draw(st.sets(st.integers(0, 6), min_size=2, max_size=2))))
    assert sf.config_distance(blk, a, b) == sf.config_distance(blk, b, a)


def test_combes_thomas_single_site():
    G = lattice.chain(1)
    system = sf.BosonSystem(G, 2.0)
    profile = sf.combes_thomas_profile(system.block(1), -1.0, (0,))
    assert sf.profile_rate(profile) is None
    assert len(profile) == 1
    assert abs(profile[0][1] - 1.0 / 3.0) < 1e-12


def test_combes_thomas_free_ring_rate():
    # (-Delta - z)^{-1} on a ring decays at cosh(eta) = (2 - z)/2
    G = lattice.chain(20, periodic=True)
    system = sf.BosonSystem(G, 0.0)
    blk = system.block(1)
    rates = []
    for z in (-0.5, -1.0, -2.0):
        rate = sf.profile_rate(sf.combes_thomas_profile(blk, z, (0,)))
        eta = np.arccosh((2.0 - z) / 2.0)
        assert abs(rate - eta) < 0.1 * eta
        rates.append(rate)
    assert rates[0] < rates[1] < rates[2]


def test_combes_thomas_validation():
    system = ring_system(L=6)
    blk = system.block(1)
    vals = np.linalg.eigvalsh(blk.matrix(0.0))
    with pytest.raises(ValueError, match="within 1e-8"):
        sf.combes_thomas_profile(blk, vals[0], (0,))
    with pytest.raises(ValueError, match="not in the block"):
        sf.combes_thomas_profile(blk, -1.0, (0, 1))
