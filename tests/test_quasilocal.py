"""Filter parameters, the closed-form R, and localized transport.

The strongest oracles here are independent evaluations: the truncated
Gaussian against adaptive quadrature, the closed-form R against the
panel-doubling time quadrature in quadrature_oracle, commuting (H, H0)
reducing the whole R matrix to scalar Gaussians at eigenvalue
differences, and an unperturbed step that must return the identity
exactly because the sector eigenvalue sits on an interpolation node.
These check the full-volume R stack of transport_oracle, which takes
Phi in the Faddeeva closed form; the library's Gauss-Legendre factor W
and its comp are checked against that form entry by entry, and its R,
localized from its factors, against the partial trace of the stack.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from embed_oracle import from_graph, site_slope
from hypothesis import given, settings
from hypothesis import strategies as st
from quadrature_oracle import quadrature_projector, quadrature_R_batch
from scipy.integrate import quad
from transport_oracle import (
    build_R,
    build_R_stack,
    einsum_recursion_step,
    faddeeva_factor,
    full_space_mismatch,
    gauss_truncated,
    gaussian_filtered_projector,
    loop_impurity_transform,
)

from lpplab import interactions as itx
from lpplab import lattice, models, quasilocal as ql, sectors
from lpplab.operators import (
    LocalOperator,
    SpectralData,
    eigendecompose,
    operator_norm,
    partial_trace_localize,
    sigma_x,
    sigma_z,
)

rng = np.random.default_rng(8141)


def tfim_family(G, J, h):
    terms = []
    for a, b in G.edges:
        terms.append(
            LocalOperator((a, b), (2, 2), -J * np.kron(sigma_z, sigma_z), hermitian=True)
        )
    for x in G.sites():
        terms.append(LocalOperator((x,), (2,), -h * sigma_x, hermitian=True))
    return itx.InteractionFamily(terms)


def decayed_path(n, J, h, site, W_final, mu=0.7, rule=("fixed_d", 1)):
    G = lattice.chain(n)
    phi = tfim_family(G, J, h)
    W = site_slope(G, site, W_final)
    return sectors.HamiltonianPath(G, phi, W=W, rule=rule, decay=itx.DecayFunctions(G, mu))


def random_hermitian(D, seed):
    gen = np.random.default_rng(seed)
    M = gen.normal(size=(D, D)) + 1j * gen.normal(size=(D, D))
    return (M + M.conj().T) / 2


# ------------------------------------------------------------ parameters


def test_params_frozen_example():
    p = ql.choose_filter_params(g=1.0, mu=1.0, c_mu=1.0, phi_prime_norm=1.0, v=2.0, l=5.0)
    assert p.alpha == pytest.approx(0.25)
    assert p.T == pytest.approx(2.0)
    assert p.exponent == pytest.approx(1.0)
    assert p.mu_prime == pytest.approx(0.2)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(0.05, 20.0),
    st.floats(0.05, 5.0),
    st.floats(0.1, 8.0),
    st.floats(0.05, 10.0),
    st.floats(0.2, 12.0),
)
def test_params_three_equalities_always_hold(g, mu, c_mu, phi_prime, l):
    # internally consistent v makes the construction well posed for any inputs
    v = 2.0 * c_mu * phi_prime / mu
    p = ql.choose_filter_params(g, mu, c_mu, phi_prime, v, l)
    x = c_mu * phi_prime
    assert p.exponent == pytest.approx(mu * g * l / (g + 4 * x), rel=1e-12)
    assert p.alpha > 0 and p.T > 0
    assert l - v * p.T > 0


def test_params_inconsistent_velocity_rejected():
    with pytest.raises(ValueError, match="three-equalities"):
        ql.choose_filter_params(1.0, 1.0, 1.0, 1.0, v=1.7, l=5.0)


def test_params_validation():
    with pytest.raises(ValueError):
        ql.choose_filter_params(1.0, 1.0, 1.0, 1.0, v=2.0, l=0.0)
    with pytest.raises(ValueError):
        ql.choose_filter_params(1.0, 1.0, 1.0, 1.0, v=0.0, l=3.0)
    with pytest.raises(ValueError):
        ql.choose_filter_params(-1.0, 1.0, 1.0, 1.0, v=2.0, l=3.0)


# ---------------------------------------------------------- coefficients


def test_coefficients_singleton():
    nodes, a, info = ql.solve_filter_coefficients([1.3], alpha=0.5)
    assert np.allclose(nodes, [1.3])
    assert np.allclose(a, [1.0])
    assert info["warnings"] == ()


def test_coefficients_two_node_closed_form():
    # M = [[1, r], [r, 1]] with r = e^{-1}; M a = 1 gives a = 1/(1+r)
    nodes, a, _ = ql.solve_filter_coefficients([0.0, 1.0], alpha=0.25)
    expected = 1.0 / (1.0 + np.exp(-1.0))
    assert np.allclose(a, [expected, expected], rtol=1e-14)


def test_coefficients_cluster_merge():
    nodes, a, _ = ql.solve_filter_coefficients([0.0, 1e-12, 1.0], alpha=0.25)
    assert len(nodes) == 2
    assert nodes[0] == pytest.approx(5e-13, abs=1e-12)
    expected = 1.0 / (1.0 + np.exp(-1.0))
    assert np.allclose(a, [expected, expected])


def test_coefficient_nodes_match_the_merge_loop():
    # oracle: the hand-written merge loop the nodes were once built by,
    # a gap above 1e-9 starting a new node; bitwise on clustered spectra
    def loop_nodes(values):
        vals = np.sort(np.asarray(values, dtype=float))
        nodes, start = [], 0
        for i in range(1, len(vals) + 1):
            if i == len(vals) or vals[i] - vals[i - 1] > 1e-9:
                nodes.append(vals[start:i].mean())
                start = i
        return np.array(nodes)

    gen = np.random.default_rng(41)
    for _ in range(200):
        centers = np.sort(gen.uniform(0.0, 4.0, size=gen.integers(1, 5)))
        spread = gen.choice([0.0, 1e-12, 5e-10, 2e-9], size=(len(centers), 3))
        values = (centers[:, None] + spread * gen.uniform(size=spread.shape)).ravel()
        # alpha so small that nodes 1e-9 apart leave the system diagonal
        nodes, _, _ = ql.solve_filter_coefficients(values, alpha=1e-20)
        assert np.array_equal(nodes, loop_nodes(values))


def test_coefficients_singular_system_rejected():
    with pytest.raises(ValueError, match="smaller alpha"):
        ql.solve_filter_coefficients([0.0, 1e-7], alpha=1.0)


def test_coefficients_out_of_range_warn():
    # crowding three nodes under a wide kernel pushes the middle weight out
    nodes, a, info = ql.solve_filter_coefficients([0.0, 1.0, 2.0], alpha=1.0)
    assert info["warnings"]
    diff = nodes[:, None] - nodes[None, :]
    M = np.exp(-(diff**2) / 4.0)
    assert np.allclose(M @ a, 1.0, atol=1e-12)


# ------------------------------------------------- truncated Gaussian


# omega = 30 and 1e4 lie far off resonance (omega^2 / 4a up to 1e8), where
# the truncated integral still goes like 2 e^{-aT^2} sin(omega T) / omega
@pytest.mark.parametrize("omega", [0.0, 0.7, 3.1, 30.0, 1e4])
@pytest.mark.parametrize("alpha,T", [(0.25, 1.0), (2.0, 3.0), (0.05, 3.0), (0.25, 2.0)])
def test_gauss_truncated_matches_quadrature(omega, alpha, T):
    val = gauss_truncated(np.array([omega]), alpha, T)[0]

    def envelope(t):
        return np.sqrt(alpha / np.pi) * np.exp(-alpha * t * t)

    ref, _ = quad(envelope, -T, T, weight="cos", wvar=omega, epsabs=1e-13, epsrel=1e-13)
    assert val == pytest.approx(ref, rel=1e-11, abs=1e-13)


# ------------------------------------------------- filtered projector


def test_projector_spectral_two_level():
    S = eigendecompose(np.diag([0.0, 1.0]).astype(complex), mode="dense")
    P = gaussian_filtered_projector(S, lam=0.0, alpha=0.25)
    assert np.allclose(P, np.diag([1.0, np.exp(-1.0)]), atol=1e-14)
    partial = SpectralData(S.values[:1], S.vectors[:, :1], "iterative", 0.0, 2)
    with pytest.raises(ValueError, match="full eigendecomposition"):
        gaussian_filtered_projector(partial, lam=0.0, alpha=0.25)


def test_projector_small_alpha_is_eigenprojection():
    S = eigendecompose(np.diag([0.0, 1.0]).astype(complex), mode="dense")
    P = gaussian_filtered_projector(S, lam=0.0, alpha=1e-3)
    assert np.allclose(P, np.diag([1.0, 0.0]), atol=1e-12)


def test_projector_quadrature_matches_spectral():
    G = lattice.chain(3)
    H = sum(
        itx.assemble_hamiltonian(tfim_family(G, 1.0, 2.0), G).dense()
        for _ in range(1)
    )
    S = eigendecompose(H, mode="dense")
    lam = float(S.values[0])
    P_spec = gaussian_filtered_projector(S, lam, alpha=0.6)
    P_quad = quadrature_projector(S, lam, alpha=0.6)
    assert np.abs(P_spec - P_quad).max() < 1e-10


def test_filtered_sum_acts_as_identity_on_sector():
    # interpolation identity: sum_l a_l e^{-(k_i-l)^2/4a} = 1 on the nodes
    H = random_hermitian(8, seed=3)
    S = eigendecompose(H, mode="dense")
    sigma_in = S.values[:3]
    nodes, a, _ = ql.solve_filter_coefficients(sigma_in, alpha=0.3)
    P_script = sum(
        a[k] * gaussian_filtered_projector(S, nodes[k], alpha=0.3)
        for k in range(len(nodes))
    )
    for i in range(3):
        psi = S.vectors[:, i]
        assert np.linalg.norm(P_script @ psi - psi) < 1e-10


# ------------------------------------------------------------- build_R


def _manual_params(alpha, T, sigma_in):
    nodes, a, _ = ql.solve_filter_coefficients(sigma_in, alpha)
    p = ql.FilterParams(alpha=alpha, T=T, l=1.0, mu_prime=0.0, exponent=alpha * T * T)
    return p.with_coefficients(nodes, a)


def test_build_R_unperturbed_is_identity():
    # H = H0 and lam0 on a node: quadrature + compensation collapse to 1
    H = random_hermitian(6, seed=11)
    S = eigendecompose(H, mode="dense")
    params = _manual_params(alpha=0.4, T=1.3, sigma_in=S.values[:2])
    R, diag = build_R(S, S, float(S.values[0]), params)
    assert np.abs(R - np.eye(6)).max() < 1e-10
    assert diag["sum_a"] == pytest.approx(float(np.sum(params.a)))


def test_build_R_commuting_closed_form():
    # shared eigenbasis: R is diagonal with entries
    #   sum_l a_l [trunc(w + dk_j) - trunc(w) + full(w)],  w = lam0 - l
    vals0 = np.array([0.0, 0.3, 1.1, 2.0])
    shift = np.array([0.05, -0.02, 0.03, 0.08])
    S0 = SpectralData(vals0, np.eye(4, dtype=complex), "dense", 0.0, 4)
    S1 = SpectralData(vals0 + shift, np.eye(4, dtype=complex), "dense", 0.0, 4)
    alpha, T = 0.4, 1.7
    params = _manual_params(alpha, T, (vals0 + shift)[:2])
    lam0 = float(vals0[0])
    R, _ = build_R(S0, S1, lam0, params)

    nodes, a = params.nodes, params.a
    expected = np.zeros(4, dtype=float)
    for j in range(4):
        for lam, w in zip(nodes, a):
            om = lam0 - lam
            full = np.exp(-(om**2) / (4 * alpha))
            expected[j] += w * (
                gauss_truncated(np.array([om + shift[j]]), alpha, T)[0]
                - gauss_truncated(np.array([om]), alpha, T)[0]
                + full
            )
    assert np.allclose(np.diag(R).real, expected, atol=1e-9)
    assert np.abs(R - np.diag(np.diag(R))).max() < 1e-9


def test_build_R_matches_entrywise_quadrature():
    G = lattice.chain(2)
    H0 = itx.assemble_hamiltonian(tfim_family(G, 0.6, 0.3), G).dense()
    V = np.kron(0.2 * sigma_z, np.eye(2))
    S0 = eigendecompose(H0, mode="dense")
    S1 = eigendecompose(H0 + V, mode="dense")
    alpha, T = 0.5, 1.2
    params = _manual_params(alpha, T, S1.values[:1])
    lam0 = float(S0.values[0])
    R, _ = build_R(S0, S1, lam0, params)

    nodes, a = params.nodes, params.a

    def propagator(t):
        U1 = (S1.vectors * np.exp(1j * t * S1.values)) @ S1.vectors.conj().T
        U0 = (S0.vectors * np.exp(-1j * t * S0.values)) @ S0.vectors.conj().T
        return U1 @ U0

    pref = np.sqrt(alpha / np.pi)
    ref = np.zeros((4, 4), dtype=complex)
    for p in range(4):
        for q in range(4):
            def fr(t, p=p, q=q):
                w = np.sum(a * np.exp(1j * t * (lam0 - nodes)))
                return (pref * np.exp(-alpha * t * t) * w * propagator(t)[p, q]).real

            def fi(t, p=p, q=q):
                w = np.sum(a * np.exp(1j * t * (lam0 - nodes)))
                return (pref * np.exp(-alpha * t * t) * w * propagator(t)[p, q]).imag

            re, _ = quad(fr, -T, T, epsabs=1e-12, epsrel=1e-12, limit=200)
            im, _ = quad(fi, -T, T, epsabs=1e-12, epsrel=1e-12, limit=200)
            ref[p, q] = re + 1j * im
    comp = np.sum(
        a * (np.exp(-((lam0 - nodes) ** 2) / (4 * alpha))
             - gauss_truncated(lam0 - nodes, alpha, T))
    )
    ref += comp * np.eye(4)
    assert np.abs(R - ref).max() < 1e-8


def _R_case(name):
    """(S0, S1, params, lam0s) for the closed-form vs quadrature oracle."""
    if name == "unperturbed":
        S0 = S1 = eigendecompose(random_hermitian(6, seed=11), mode="dense")
        return S0, S1, _manual_params(0.4, 1.3, S1.values[:2]), S0.values[:2]
    if name == "commuting":
        vals0 = np.array([0.0, 0.3, 1.1, 2.0])
        vals1 = vals0 + np.array([0.05, -0.02, 0.03, 0.08])
        S0 = SpectralData(vals0, np.eye(4, dtype=complex), "dense", 0.0, 4)
        S1 = SpectralData(vals1, np.eye(4, dtype=complex), "dense", 0.0, 4)
        return S0, S1, _manual_params(0.4, 1.7, vals1[:2]), vals0[:1]
    if name == "two-site":
        G = lattice.chain(2)
        H0 = itx.assemble_hamiltonian(tfim_family(G, 0.6, 0.3), G).dense()
        S0 = eigendecompose(H0, mode="dense")
        S1 = eigendecompose(H0 + np.kron(0.2 * sigma_z, np.eye(2)), mode="dense")
        return S0, S1, _manual_params(0.5, 1.2, S1.values[:1]), S0.values[:1]
    # non-commuting pair with a spectral width far past omega^2/4a = 500
    H0 = 6.0 * random_hermitian(8, seed=23)
    S0 = eigendecompose(H0, mode="dense")
    S1 = eigendecompose(H0 + 0.5 * random_hermitian(8, seed=29), mode="dense")
    return S0, S1, _manual_params(0.05, 3.0, S1.values[:2]), S0.values[:2]


@pytest.mark.parametrize("name", ["unperturbed", "commuting", "two-site", "past-cutoff"])
def test_build_R_matches_time_quadrature(name):
    S0, S1, params, lam0s = _R_case(name)
    if name == "past-cutoff":
        widest = np.abs(S1.values[:, None] - S0.values[None, :]).max()
        assert widest**2 / (4 * params.alpha) > 500
    stack, _ = build_R_stack(S0, S1, lam0s, params)
    ref = quadrature_R_batch(S0, S1, lam0s, params)
    assert np.abs(stack - ref).max() <= 1e-12


def test_build_R_shares_bitwise_equal_eigenvalues():
    # a degenerate sector: the batch evaluates each distinct lambda_i0 once
    S0, S1, params, lam0s = _R_case("past-cutoff")
    lam0s = [lam0s[0], lam0s[1], lam0s[0], lam0s[0]]
    G, region = lattice.chain(3), (1, 2)
    R_loc, _, _ = ql._localized_R_batch(S0, S1, lam0s, params, region, G)
    one_by_one = [ql._localized_R_batch(S0, S1, [lam], params, region, G) for lam in lam0s]
    assert np.array_equal(R_loc, np.concatenate([R for R, _, _ in one_by_one]))


def _hermitian_pair(D, dtype, seed):
    gen = np.random.default_rng(seed)

    def hermitian():
        M = gen.normal(size=(D, D)).astype(dtype)
        if dtype is complex:
            M += 1j * gen.normal(size=(D, D))
        return (M + M.conj().T) / 2

    H0 = 3.0 * hermitian()
    return eigendecompose(H0, mode="dense"), eigendecompose(H0 + 0.2 * hermitian(), mode="dense")


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize(
    "region", [(0,), (1, 2), (1, 3), (0, 1, 2, 3)], ids=["edge", "inside", "split", "full"]
)
def test_localized_R_matches_partial_trace_of_the_stack(dtype, region):
    # the factored trace against the traced full-volume stack, on a
    # d = 3 sector whose first and last lambda_i0 are equal; (0, 1, 2, 3)
    # is the full volume, d_E = 1
    G = lattice.chain(4)
    S0, S1 = _hermitian_pair(16, dtype, seed=61)
    params = _manual_params(0.3, 2.0, S1.values[:2])
    lam0s = [S0.values[0], S0.values[1], S0.values[0]]
    psi0 = S0.vectors[:, :3]
    R_loc, R_psi0, _ = ql._localized_R_batch(S0, S1, lam0s, params, region, G, states=psi0)
    stack, _ = build_R_stack(S0, S1, lam0s, params)
    assert R_loc.dtype == stack.dtype == np.result_type(dtype, float)
    for i in range(3):
        ref = partial_trace_localize(stack[i], region, G).matrix
        assert np.abs(R_loc[i] - ref).max() <= 1e-13
        assert np.abs(R_psi0[:, i] - stack[i] @ psi0[:, i]).max() <= 1e-13
    assert np.array_equal(R_loc[0], R_loc[2])


@pytest.mark.parametrize("dtype", [float, complex])
def test_factored_filter_matches_the_faddeeva_form(dtype):
    # W and comp from the Gauss-Legendre rule against the closed form, on
    # a pair whose max|omega| T passes 73, the largest a shipped config
    # reaches (weak-step and transport at l = 5); the d = 3 sector's first
    # and last lambda_i0 are equal and share one W
    G = lattice.chain(6)
    S0, S1 = _hermitian_pair(64, dtype, seed=71)
    params = _manual_params(0.3, 2.0, S1.values[:2])
    C = S1.vectors.conj().T @ S0.vectors
    lam0s = [S0.values[0], S0.values[1], S0.values[0]]
    for lam0 in lam0s[:2]:
        shift = lam0 - params.nodes
        W, comp, _, theta = ql._filter_factor(S0, S1, C, shift, params)
        W_ref, comp_ref = faddeeva_factor(S0, S1, C, shift, params)
        assert theta >= 73
        assert W.dtype == np.result_type(dtype, float)
        assert np.abs(W - W_ref).max() <= 1e-14
        assert abs(comp - comp_ref) <= 1e-14
    R_loc, _, rule = ql._localized_R_batch(S0, S1, lam0s, params, (1, 2), G)
    sizes = [ql._filter_factor(S0, S1, C, lam0 - params.nodes, params)[2:] for lam0 in lam0s]
    assert rule == tuple(map(max, *sizes))
    assert np.array_equal(R_loc[0], R_loc[2])


@pytest.mark.parametrize("alpha, T", [(0.3, 2.0), (0.05, 3.0), (2.0, 0.5)])
@pytest.mark.parametrize("theta", [0.5, 14.6, 73.0, 200.0])
def test_gauss_rule_meets_the_closed_form_within_its_reach(alpha, T, theta):
    # the rule sized for max|omega| T = theta integrates every e^{i omega t}
    # with |omega| T <= theta, on and far off resonance; a larger reach
    # takes no fewer nodes
    t, w, Q = ql._gauss_rule(alpha, T, 1.0, theta)
    omega = np.linspace(-theta / T, theta / T, 401)
    vals = (w * np.exp(1j * np.outer(omega, t))).real.sum(axis=1)
    assert np.abs(vals - gauss_truncated(omega, alpha, T)).max() <= 1e-14
    assert ql._gauss_rule(alpha, T, 1.0, 2 * theta)[2] >= Q


@pytest.mark.parametrize("J, h, d", [(0.05, 1.0, 1), (1.0, 0.3, 2)],
                         ids=["paramagnet", "ferromagnet-pair"])
@pytest.mark.parametrize("lv", [1, 2])
def test_localized_R_at_eps_zero_is_the_identity(J, h, d, lv):
    # criterion 1's filter identity through the runners' own filter: with
    # the coefficients solved on sigma_in and S = S0 (eps = 0), each R_i
    # is sum_lambda a_lambda e^{-(lambda_i0 - lambda)^2 / 4a} 1 = 1, so it
    # localizes to 1 on K_l and leaves the sector states unchanged
    path = decayed_path(6, J=J, h=h, site=0, W_final=0.4 * sigma_z, rule=("fixed_d", d))
    sec, S = path.sector(0.3), path.spectral(0.3)
    params, _ = ql._filter(sec.gap, path.constants(), lv, sec.values_in)
    Kl = tuple(sorted(lattice.fatten(path.graph, path.K, lv)))
    R_loc, R_states, _ = ql._localized_R_batch(
        S, S, sec.values_in, params, Kl, path.graph, states=sec.basis
    )
    assert R_loc.shape == (d, 2 ** len(Kl), 2 ** len(Kl))
    assert np.abs(R_loc - np.eye(2 ** len(Kl))).max() <= 1e-12
    assert np.abs(R_states - sec.basis).max() <= 1e-12


def test_build_R_requires_coefficients():
    S = eigendecompose(np.diag([0.0, 1.0]).astype(complex), mode="dense")
    bare = ql.FilterParams(alpha=0.3, T=1.0, l=1.0, mu_prime=0.1, exponent=0.3)
    with pytest.raises(ValueError, match="coefficients"):
        build_R(S, S, 0.0, bare)
    with pytest.raises(ValueError, match="coefficients"):
        ql._localized_R_batch(S, S, [0.0], bare, (0,), lattice.chain(1))


# ------------------------------------------------------------- localize


def test_localize_full_region_is_identity_map():
    G = lattice.chain(3)
    R = random_hermitian(8, seed=5)
    loc = partial_trace_localize(R, lattice.fatten(G, {0}, G.diameter()), G)
    assert loc.support == (0, 1, 2)
    assert np.allclose(loc.matrix, R, atol=1e-14)


def test_localize_contracts_norm_and_preserves_hermiticity():
    G = lattice.chain(4)
    R = random_hermitian(16, seed=7)
    loc = partial_trace_localize(R, lattice.fatten(G, {1}, 1), G)
    assert loc.support == (0, 1, 2)
    assert np.allclose(loc.matrix, loc.matrix.conj().T, atol=1e-13)
    assert operator_norm(loc.matrix) <= operator_norm(R) + 1e-12


# ------------------------------------------------------------ weak step


def test_weak_step_zero_eps_is_exact():
    path = decayed_path(4, J=0.05, h=1.0, site=0, W_final=0.4 * sigma_z)
    out = ql.weak_step(path, 0.3, 0.0, [1])
    assert max(out["errors"][0]) < 1e-9
    assert max(out["unlocalized_errors"][0]) < 1e-9


def test_weak_step_error_decreases_with_l():
    path = decayed_path(6, J=0.05, h=1.0, site=0, W_final=0.4 * sigma_z)
    out = ql.weak_step(path, 0.0, 0.1, [1, 5])
    e1, e5 = max(out["errors"][0]), max(out["errors"][1])
    assert e5 <= e1
    # l = diameter: the spatial truncation is trivial
    assert out["errors"][1] == pytest.approx(out["unlocalized_errors"][1], abs=1e-12)


def test_weak_step_error_roughly_linear_in_eps():
    path = decayed_path(6, J=0.05, h=1.0, site=0, W_final=0.4 * sigma_z)
    e_full = max(ql.weak_step(path, 0.0, 0.1, [3])["errors"][0])
    e_half = max(ql.weak_step(path, 0.0, 0.05, [3])["errors"][0])
    assert 1.3 < e_full / e_half < 3.0


# ------------------------------------------------------------ transport


def test_transport_zero_coupling_is_identity():
    G = lattice.chain(3)
    phi = tfim_family(G, 1.0, 2.0)
    W = site_slope(G, 0, np.zeros((2, 2)))
    path = sectors.HamiltonianPath(
        G, phi, W=W, rule=("fixed_d", 1), decay=itx.DecayFunctions(G, 0.7)
    )
    ts = ql.path_transport(path, 2, l=1)
    assert ts.n == 2
    assert ts.errors.max() < 1e-9
    DK = ts.L.shape[-1]
    assert np.abs(ts.L[0, 0] - np.eye(DK)).max() < 1e-9


def test_zero_slope_sweep_takes_one_spectrum(monkeypatch):
    # W = 0 leaves one H on the whole path: the gap grid and every step
    # read one eigendecomposition, and no eigvalsh of the full H is taken
    G = lattice.chain(4)
    path = sectors.HamiltonianPath(
        G, tfim_family(G, 1.0, 2.0), W=site_slope(G, 1, np.zeros((2, 2))),
        rule=("fixed_d", 1), decay=itx.DecayFunctions(G, 0.7),
    )
    calls = []
    eigendecompose, eigvalsh = sectors.eigendecompose, np.linalg.eigvalsh

    def counting_eigendecompose(H, *args, **kwargs):
        calls.append("eigendecompose")
        return eigendecompose(H, *args, **kwargs)

    def counting_eigvalsh(a, *args, **kwargs):
        if len(a) == path.dim:
            calls.append("eigvalsh")
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(sectors, "eigendecompose", counting_eigendecompose)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    tsets = ql.transport_sweep(path, 2, [1, 2])
    assert calls == ["eigendecompose"]
    assert all(ts.errors.max() < 1e-9 for ts in tsets.values())


def test_transport_endpoint_reconstruction():
    path = decayed_path(5, J=0.02, h=1.0, site=2, W_final=0.3 * sigma_z)
    sweep = ql.transport_sweep(path, 8, [1, 4])
    e1, e4 = sweep[1.0].errors.max(), sweep[4.0].errors.max()
    assert e4 <= e1 + 1e-12
    assert e4 < 0.1
    assert sweep[4.0].n == 8
    assert 0 < sweep[4.0].c_norm_max <= sweep[4.0].c_bound


def test_transport_sweep_diagonalizes_each_grid_point_once(monkeypatch):
    # s = 0, 1/4, ..., 1 once each: the endpoint errors reuse the s = 0
    # sector the sweep started from, which the cache has dropped by then
    calls = []

    def counting(H, *args, **kwargs):
        calls.append(H.shape)
        return eigendecompose(H, *args, **kwargs)

    monkeypatch.setattr(sectors, "eigendecompose", counting)
    path = decayed_path(5, J=0.02, h=1.0, site=2, W_final=0.3 * sigma_z)
    sweep = ql.transport_sweep(path, 4, [1, 4])
    assert sweep[1.0].n == sweep[4.0].n == 4
    assert len(calls) == 5


def test_transport_error_stable_in_n():
    # the per-step truncation errors sum to an l-dependent floor; more
    # steps must not make the recursion accumulate beyond it
    path = decayed_path(5, J=0.02, h=1.0, site=2, W_final=0.3 * sigma_z)
    e_coarse = ql.path_transport(path, 2, l=4).errors.max()
    e_fine = ql.path_transport(path, 16, l=4).errors.max()
    assert e_fine <= 1.5 * e_coarse


@pytest.mark.parametrize("dtype", [float, complex])
def test_recursion_step_matches_einsum(dtype):
    gen = np.random.default_rng(5)

    def draw(*shape):
        x = gen.normal(size=shape)
        return x + 1j * gen.normal(size=shape) if dtype is complex else x

    d, DK = 2, 16
    c, R_small, L = draw(d, d), draw(d, DK, DK), draw(d, d, DK, DK)
    step = ql._recursion_step(c, R_small, L)
    assert step.dtype == np.dtype(dtype)
    assert np.abs(step - einsum_recursion_step(c, R_small, L)).max() <= 1e-12
    # real c on a complex R: the step is complex, as the einsum form
    mixed = ql._recursion_step(c.real, R_small + 0j, L)
    assert np.abs(mixed - einsum_recursion_step(c.real, R_small, L)).max() <= 1e-12


def test_transport_keeps_a_real_path_real():
    path = decayed_path(4, J=0.05, h=1.0, site=0, W_final=0.2 * sigma_z)
    assert path.spectral(0.0).vectors.dtype == np.float64
    assert ql.path_transport(path, 2, l=1).L.dtype == np.float64


def test_attached_impurity_on_a_real_model_keeps_the_transport_real():
    # the s = 0 basis lifted from real bulk eigenvectors, and the
    # transport started from it, keep the dtype of the real H(s)
    model = models.build_gapped_chain(
        "transverse-field-Ising", {"n": 5, "J": 0.3, "h": 1.0}
    )
    coupling = 0.2 * np.kron(sigma_z, sigma_x)
    path = models.attach_impurity(model, 2, 2, coupling, mu=0.7)
    assert path.hamiltonian(0.5).dtype == np.float64
    assert path.initial_basis.dtype == np.float64
    ts = ql.path_transport(path, 2, l=1)
    assert ts.sector0.basis.dtype == np.float64
    assert ts.L.dtype == np.float64


def test_transport_adaptive_step_doubling():
    # four weakly coupled spins all tilting under a strong field: the
    # one-step ground-state overlap drops below 1/2, the coefficient
    # violates the 2 sqrt(D) bound, and n doubles
    G = lattice.chain(4)
    phi = tfim_family(G, 0.05, 1.0)
    W = itx.InteractionFamily([from_graph(G, (x,), 4.0 * sigma_z, True) for x in G.sites()])
    path = sectors.HamiltonianPath(
        G, phi, W=W, rule=("fixed_d", 1), decay=itx.DecayFunctions(G, 0.7)
    )
    ts = ql.path_transport(path, 1, l=G.diameter())
    assert ts.n == 2
    assert ts.errors.max() < 0.5


# ------------------------------------------------------------- impurity


def _impurity_setup(coupling):
    """Two sites: a spin-1/2 at 0 and a dim-4 site 1 = (bulk spin) x (impurity)."""
    G = lattice.LatticeGraph(2, [(0, 1)], site_dims=(2, 4))
    I2 = np.eye(2)
    bulk = -np.kron(sigma_z, np.kron(sigma_z, I2))
    bulk += -0.8 * np.kron(sigma_x, np.eye(4)) - 0.8 * np.kron(I2, np.kron(sigma_x, I2))
    phi = itx.InteractionFamily(
        [LocalOperator((0, 1), (2, 4), bulk, hermitian=True)]
    )
    W = site_slope(G, 1, coupling * np.kron(sigma_z, sigma_x))
    # product basis psi_gs x e_i; the impurity factor is the fastest axis
    Hb = -np.kron(sigma_z, sigma_z) - 0.8 * (np.kron(sigma_x, I2) + np.kron(I2, sigma_x))
    Sb = eigendecompose(Hb.astype(complex), mode="dense")
    gs = Sb.vectors[:, 0]
    B = np.stack([np.kron(gs, e) for e in np.eye(2)], axis=1)
    return sectors.HamiltonianPath(
        G, phi, W=W, rule=("fixed_d", 2), decay=itx.DecayFunctions(G, 0.7),
        initial_basis=B,
    )


def test_impurity_transform_zero_coupling_control():
    path = _impurity_setup(coupling=0.0)
    ts = ql.path_transport(path, 2, l=1)
    T_op, err = ql.impurity_transform(path, ts, site=1, impurity_dim=2)
    assert err < 1e-8


def test_impurity_transform_tracks_projector():
    path = _impurity_setup(coupling=0.25)
    ts = ql.path_transport(path, 8, l=1)
    T_op, err = ql.impurity_transform(path, ts, site=1, impurity_dim=2)
    zero_err = 1e-8
    assert zero_err < err < 0.3
    assert T_op.support == (0, 1)


@pytest.mark.parametrize("coupling", [0.0, 0.25])
def test_impurity_mismatch_matches_full_space(coupling):
    path = _impurity_setup(coupling)
    ts = ql.path_transport(path, 8, l=1)
    T_op, err = ql.impurity_transform(path, ts, site=1, impurity_dim=2)
    assert abs(err - full_space_mismatch(path, T_op)) <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_impurity_transform_matches_the_embedded_loop(d):
    # sites (2, 2*d, 3) with the impurity the fast factor of site 1; d = 2
    # is bitwise the loop, d = 3 sums three terms in another order
    G = lattice.LatticeGraph(3, [(0, 1), (1, 2)], site_dims=(2, 2 * d, 3))
    gen = np.random.default_rng(d)

    def unit(m):
        v = gen.normal(size=m)
        return v / np.linalg.norm(v)

    # a product sector: one bulk vector times each impurity state
    bulk = [unit(2), unit(2), unit(3)]
    B = np.stack(
        [np.kron(bulk[0], np.kron(np.kron(bulk[1], e), bulk[2])) for e in np.eye(d)], axis=1
    )
    sector0 = sectors.SectorSpectrum(np.zeros(d), np.ones(1), B, gap=1.0, width=0.0)
    path = SimpleNamespace(graph=G, sector=lambda s: sector0)
    DK = int(np.prod(G.site_dims))
    L = gen.normal(size=(d, d, DK, DK)) + 1j * gen.normal(size=(d, d, DK, DK))
    ts = ql.TransportSet(
        L=L, support=(0, 1, 2), dims=G.site_dims, n=1, l=1.0, c_norm_max=1.0,
        c_bound=1.0, errors=np.zeros(d), warnings=(), gap=1.0, sector0=sector0,
    )
    T_op, _ = ql.impurity_transform(path, ts, site=1, impurity_dim=d)
    ref = loop_impurity_transform(L, G.site_dims, 1, 2)
    if d == 2:
        assert np.array_equal(T_op.matrix, ref)
    else:
        assert np.abs(T_op.matrix - ref).max() <= 1e-14


def test_impurity_transform_rejects_entangled_sector():
    # generic interactions on the composite site entangle the lowest pair
    G = lattice.LatticeGraph(2, [(0, 1)], site_dims=(2, 4))
    phi = itx.InteractionFamily(
        [LocalOperator((0, 1), (2, 4), random_hermitian(8, seed=19), hermitian=True)]
    )
    W = site_slope(G, 1, np.zeros((4, 4)))
    path = sectors.HamiltonianPath(
        G, phi, W=W, rule=("fixed_d", 2), decay=itx.DecayFunctions(G, 0.7)
    )
    eye = np.eye(8, dtype=complex)
    fake = ql.TransportSet(
        L=np.array([[eye, 0 * eye], [0 * eye, eye]]),
        support=(0, 1), dims=(2, 4), n=1, l=1.0,
        c_norm_max=1.0, c_bound=2.0 * np.sqrt(2), errors=np.zeros(2), warnings=(),
        gap=1.0, sector0=path.sector(0.0),
    )
    with pytest.raises(ValueError, match="product"):
        ql.impurity_transform(path, fake, site=1, impurity_dim=2)
