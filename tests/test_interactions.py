"""Decay-function constants, interaction norms, and perturbation paths.

Oracles here are deliberately dumb: explicit python loops over all site
pairs, hand-built Kronecker products, and closed forms on two-vertex
graphs.  The frozen chain value 8|J| for the nearest-neighbour Ising
family (F0=(1+d)^-2, mu=ln 2) is derived in-line below.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpplab import interactions as itx
from lpplab import lattice, sectors
from lpplab.operators import (
    HamiltonianAction,
    LocalOperator,
    embed_matrix,
    operator_norm,
    sigma_x,
    sigma_z,
)


def ising_family(G, J):
    zz = J * np.kron(sigma_z, sigma_z)
    terms = []
    for a, b in G.edges:
        dims = (G.site_dims[a], G.site_dims[b])
        terms.append(LocalOperator((a, b), dims, zz, hermitian=True))
    return itx.InteractionFamily(terms)


def field_family(G, h):
    terms = [
        LocalOperator((x,), (G.site_dims[x],), h * sigma_x, hermitian=True)
        for x in G.sites()
    ]
    return itx.InteractionFamily(terms)


# ---------------------------------------------------------------- decay


def test_f_norm_single_vertex():
    G = lattice.LatticeGraph(1, [])
    dec = itx.DecayFunctions(G, mu=0.8)
    assert dec.f0_norm == pytest.approx(1.0)  # F0(0) = 1
    assert dec.convolution_constant == pytest.approx(1.0)


def test_f_norm_row_sum_oracle():
    # ||F_0||, the norm in the Lieb-Robinson prefactor, for any mu
    G = lattice.chain(10)
    dec = itx.DecayFunctions(G, mu=0.6)
    best = 0.0
    for x in G.sites():
        s = sum(1.0 / (1.0 + G.distance(x, y)) ** 2 for y in G.sites())
        best = max(best, s)
    assert dec.f0_norm == pytest.approx(best, rel=1e-14)


def test_convolution_constant_two_vertex_closed_form():
    G = lattice.chain(2)
    dec = itx.DecayFunctions(G, mu=0.4)
    # off-diagonal pair: (F(0)F(1) + F(1)F(0)) / F(1) = 2 F(0) = 2,
    # diagonal pair: 1 + F(1)^2 < 2, so C_mu = 2.
    assert dec.convolution_constant == pytest.approx(2.0, rel=1e-14)


def test_convolution_constant_brute_force():
    G = lattice.chain(21)
    dec = itx.DecayFunctions(G, mu=0.5)

    def F(d):
        return np.exp(-0.5 * d) / (1.0 + d) ** 2

    worst = 0.0
    for x in G.sites():
        for y in G.sites():
            s = sum(F(G.distance(x, z)) * F(G.distance(z, y)) for z in G.sites())
            worst = max(worst, s / F(G.distance(x, y)))
    assert dec.convolution_constant == pytest.approx(worst, rel=1e-12)


def test_convolution_constant_monotone_in_mu():
    G = lattice.chain(12)
    vals = [itx.DecayFunctions(G, mu=m).convolution_constant for m in (0.0, 0.5, 1.5)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_decay_rejects_disconnected_graph():
    G = lattice.LatticeGraph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        itx.DecayFunctions(G, mu=1.0)


# ------------------------------------------------------- interaction norm


def interaction_norm_oracle(phi, dec, drop_single_site=False):
    G = dec.graph
    worst = 0.0
    for x in G.sites():
        for y in G.sites():
            s = 0.0
            for t in phi.terms:
                if drop_single_site and len(t.support) < 2:
                    continue
                if x in t.support and y in t.support:
                    s += operator_norm(t.matrix, hermitian=t.hermitian)
            if s:
                worst = max(worst, s / dec.f(G.distance(x, y)))
    return worst


def test_interaction_norm_frozen_chain_value():
    # Adjacent pair carries one bond of norm |J|; F_mu(1) = e^{-ln 2}/4
    # = 1/8, so the supremum is 8|J| (the same-site ratio is only 2|J|).
    G = lattice.chain(8)
    J = 0.7
    dec = itx.DecayFunctions(G, mu=np.log(2.0))
    phi = ising_family(G, J)
    val = itx.interaction_norm(phi, dec)
    assert val == pytest.approx(8 * J, rel=1e-13)
    assert val == pytest.approx(interaction_norm_oracle(phi, dec), rel=1e-13)


def test_interaction_norm_primed_drops_single_site():
    G = lattice.chain(8)
    dec = itx.DecayFunctions(G, mu=np.log(2.0))
    phi = itx.InteractionFamily(list(ising_family(G, 0.7)) + list(field_family(G, 10.0)))
    primed = itx.interaction_norm(phi, dec, drop_single_site=True)
    full = itx.interaction_norm(phi, dec)
    assert primed == pytest.approx(8 * 0.7, rel=1e-13)
    # same-site ratio now 2J + h = 11.4 > 8J
    assert full == pytest.approx(2 * 0.7 + 10.0, rel=1e-13)
    assert full >= primed


def test_interaction_norm_single_site_only():
    G = lattice.chain(5)
    dec = itx.DecayFunctions(G, mu=1.0)
    phi = field_family(G, 2.0)
    assert itx.interaction_norm(phi, dec, drop_single_site=True) == 0.0
    assert itx.interaction_norm(phi, dec) == pytest.approx(2.0)


def test_interaction_norm_homogeneous_in_coupling():
    G = lattice.chain(6)
    dec = itx.DecayFunctions(G, mu=0.9)
    a = itx.interaction_norm(ising_family(G, 0.3), dec)
    b = itx.interaction_norm(ising_family(G, 0.6), dec)
    assert b == pytest.approx(2 * a, rel=1e-13)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.floats(0.1, 3.0)), min_size=1, max_size=6
    ),
    st.floats(0.2, 2.0),
)
def test_primed_norm_never_exceeds_full(bonds, mu):
    G = lattice.chain(8)
    terms = []
    for a, w in bonds:
        terms.append(
            LocalOperator((a, a + 1), (2, 2), w * np.kron(sigma_z, sigma_z), hermitian=True)
        )
        terms.append(LocalOperator((a,), (2,), w * sigma_x, hermitian=True))
    phi = itx.InteractionFamily(terms)
    dec = itx.DecayFunctions(G, mu=mu)
    assert itx.interaction_norm(phi, dec, drop_single_site=True) <= itx.interaction_norm(
        phi, dec
    ) + 1e-12


# ------------------------------------------------------------- velocity, xi


def test_lr_velocity_composition():
    G = lattice.chain(8)
    dec = itx.DecayFunctions(G, mu=np.log(2.0))
    phi = ising_family(G, 0.7)
    v = itx.lr_velocity(phi, dec)
    expect = 2.0 * (8 * 0.7) * dec.convolution_constant / np.log(2.0)
    assert v == pytest.approx(expect, rel=1e-12)


def test_lr_velocity_ignores_single_site_terms():
    G = lattice.chain(8)
    dec = itx.DecayFunctions(G, mu=0.8)
    base = ising_family(G, 0.5)
    augmented = itx.InteractionFamily(list(base) + list(field_family(G, 7.0)))
    assert itx.lr_velocity(base, dec) == itx.lr_velocity(augmented, dec)


def test_lr_velocity_single_site_only_is_zero():
    G = lattice.chain(5)
    dec = itx.DecayFunctions(G, mu=1.0)
    assert itx.lr_velocity(field_family(G, 3.0), dec) == 0.0


def test_lr_velocity_rejects_mu_zero():
    G = lattice.chain(5)
    dec = itx.DecayFunctions(G, mu=0.0)
    with pytest.raises(ValueError):
        itx.lr_velocity(ising_family(G, 1.0), dec)


def test_xi_closed_forms():
    assert itx.xi(1.0, 0.0, 5.0) == pytest.approx(1.0)
    assert itx.xi(1.0, 2.0, 4.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        itx.xi(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        itx.xi(1.0, 1.0, 0.0)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 50.0))
def test_xi_identity_with_lr_velocity(g):
    # 1/mu + 2v/g = (g + 4 C ||Phi||') / (mu g) when v is the LR velocity
    G = lattice.chain(8)
    dec = itx.DecayFunctions(G, mu=np.log(2.0))
    phi = ising_family(G, 0.7)
    v = itx.lr_velocity(phi, dec)
    x = dec.convolution_constant * itx.interaction_norm(phi, dec, drop_single_site=True)
    lhs = itx.xi(dec.mu, v, g)
    rhs = (g + 4 * x) / (dec.mu * g)
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ------------------------------------------------------------ LR bound rhs


def test_lr_bound_rhs_hand_formula():
    G = lattice.chain(10)
    dec = itx.DecayFunctions(G, mu=0.6)
    phi = ising_family(G, 1.0)
    A = LocalOperator((1,), (2,), 2.0 * sigma_z, hermitian=True)
    B = LocalOperator((7, 8), (2, 2), np.kron(sigma_x, sigma_x), hermitian=True)
    t = 0.9
    v = itx.lr_velocity(phi, dec)
    got = itx.lr_bound_rhs(A, B, t, phi, dec)
    # |bd X| = 1, |bd Y| = 2, d(X, Y) = 6
    expect = (2 * dec.f0_norm / dec.convolution_constant) * 2.0 * 1.0 * 1 * np.exp(
        -0.6 * (6 - v * t)
    )
    assert got == pytest.approx(expect, rel=1e-12)


def test_lr_bound_rhs_doubling_distance_squares_decay():
    G = lattice.chain(12)
    dec = itx.DecayFunctions(G, mu=0.7)
    phi = ising_family(G, 1.0)
    A = LocalOperator((0,), (2,), sigma_z, hermitian=True)
    B2 = LocalOperator((2,), (2,), sigma_z, hermitian=True)
    B4 = LocalOperator((4,), (2,), sigma_z, hermitian=True)
    r2 = itx.lr_bound_rhs(A, B2, 0.0, phi, dec)
    r4 = itx.lr_bound_rhs(A, B4, 0.0, phi, dec)
    assert r4 / r2 == pytest.approx(np.exp(-0.7 * 2), rel=1e-12)


def test_lr_bound_rhs_rejects_touching_supports():
    G = lattice.chain(6)
    dec = itx.DecayFunctions(G, mu=0.5)
    phi = ising_family(G, 1.0)
    A = LocalOperator((2,), (2,), sigma_z, hermitian=True)
    with pytest.raises(ValueError):
        itx.lr_bound_rhs(A, A, 0.0, phi, dec)


# ------------------------------------------------------------- assembly


def test_assemble_matches_hand_kron():
    G = lattice.chain(3)
    J = 1.3
    phi = ising_family(G, J)
    H = itx.assemble_hamiltonian(phi, G).dense()
    eye = np.eye(2)
    hand = J * (
        np.kron(np.kron(sigma_z, sigma_z), eye) + np.kron(eye, np.kron(sigma_z, sigma_z))
    )
    assert np.allclose(H, hand, atol=1e-14)


def test_assemble_matvec_agrees_with_dense():
    G = lattice.chain(5)
    phi = itx.InteractionFamily(list(ising_family(G, 0.8)) + list(field_family(G, 1.1)))
    act = itx.assemble_hamiltonian(phi, G)
    H = act.dense()
    rng = np.random.default_rng(7)
    x = rng.normal(size=32) + 1j * rng.normal(size=32)
    assert isinstance(act, HamiltonianAction) and act.shape == (32, 32)
    assert isinstance(H, np.ndarray) and H.shape == (32, 32)
    csr = act.sparse()
    assert csr.format == "csr"
    assert np.allclose(csr @ x, H @ x, atol=1e-12)


def test_assemble_empty_is_zero():
    G = lattice.chain(3)
    phi = itx.InteractionFamily([])
    H = itx.assemble_hamiltonian(phi, G).dense()
    assert np.all(H == 0)


def test_assemble_with_path_at_s():
    G = lattice.chain(4)
    phi = ising_family(G, 1.0)
    Wf = 0.9 * sigma_x
    W = itx.InteractionFamily([LocalOperator((2,), (2,), Wf, hermitian=True)])
    path = sectors.HamiltonianPath(G, phi, W=W)
    H0 = path.hamiltonian(0.0).dense()
    assert np.allclose(H0, itx.assemble_hamiltonian(phi, G).dense(), atol=1e-14)
    Hs = path.hamiltonian(0.7).dense()
    lift = embed_matrix(0.7 * Wf, (2,), [2, 2, 2, 2])
    assert np.allclose(Hs - H0, lift, atol=1e-13)
