"""Quantum core: embedding, partial trace (twirl oracle), spectra, evolution."""

from __future__ import annotations

import numpy as np
import pytest

from lpplab import lattice
from lpplab.operators import (
    HamiltonianAction,
    LocalOperator,
    SpectralData,
    commutator_norm,
    eigendecompose,
    embed,
    embed_matrix,
    evolve,
    operator_norm,
    partial_trace_localize,
    sigma_x,
    sigma_y,
    sigma_z,
)

S1, S2, S3 = sigma_x / 2, sigma_y / 2, sigma_z / 2


def _rand_herm(rng, n):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (M + M.conj().T) / 2


# ---------------------------------------------------------------- embedding


def test_embed_single_site_kron_oracle():
    G = lattice.chain(3)
    op = LocalOperator.from_graph(G, (1,), sigma_z, hermitian=True)
    expect = np.kron(np.kron(np.eye(2), sigma_z), np.eye(2))
    assert np.allclose(embed(op, G), expect)


def test_embed_noncontiguous_support():
    G = lattice.chain(3)
    rng = np.random.default_rng(0)
    A = _rand_herm(rng, 4)
    op = LocalOperator.from_graph(G, (0, 2), A, hermitian=True)
    M = embed(op, G)
    # oracle: scan matrix elements
    A_t = A.reshape(2, 2, 2, 2)
    for r in range(8):
        r0, r1, r2 = (r >> 2) & 1, (r >> 1) & 1, r & 1
        for c in range(8):
            c0, c1, c2 = (c >> 2) & 1, (c >> 1) & 1, c & 1
            expect = A_t[r0, r2, c0, c2] if r1 == c1 else 0.0
            assert abs(M[r, c] - expect) < 1e-14


def test_embed_preserves_spectrum_with_multiplicity():
    G = lattice.chain(3)
    rng = np.random.default_rng(1)
    A = _rand_herm(rng, 2)
    op = LocalOperator.from_graph(G, (2,), A, hermitian=True)
    w_small = np.linalg.eigvalsh(A)
    w_full = np.linalg.eigvalsh(embed(op, G))
    assert np.allclose(np.repeat(w_small, 4), np.sort(w_full), atol=1e-12)


def test_embed_dim_mismatch_raises():
    G = lattice.LatticeGraph(2, [(0, 1)], site_dims=(2, 3))
    with pytest.raises(ValueError):
        LocalOperator((0,), (3,), np.eye(3)) and embed(
            LocalOperator((0,), (3,), np.eye(3)), G
        )


def test_local_operator_validation():
    with pytest.raises(ValueError):
        LocalOperator((0,), (2,), np.eye(3))
    with pytest.raises(ValueError):
        LocalOperator((1, 0), (2, 2), np.eye(4))
    with pytest.raises(ValueError):
        LocalOperator((0,), (2,), np.array([[0, 1], [0, 0]]), hermitian=True)


# ----------------------------------------------------- partial trace + twirl


def _twirl_oracle(A, env_sites, G):
    """Average over conjugation by the Pauli basis on traced qubits equals
    (normalized partial trace) tensor identity."""
    paulis = [np.eye(2, dtype=complex), sigma_x, sigma_y, sigma_z]
    out = np.zeros_like(A)
    count = 0

    def rec(sites, U_ops):
        nonlocal out, count
        if not sites:
            U = np.eye(1, dtype=complex)
            full = {}
            for p, u in U_ops:
                full[p] = u
            mats = [
                full.get(p, np.eye(G.site_dims[p], dtype=complex))
                for p in range(G.n_sites)
            ]
            U = mats[0]
            for m in mats[1:]:
                U = np.kron(U, m)
            out += U @ A @ U.conj().T
            count += 1
            return
        s, rest = sites[0], sites[1:]
        for p in paulis:
            rec(rest, U_ops + [(s, p)])

    rec(sorted(env_sites), [])
    return out / count


def test_partial_trace_matches_twirl_oracle():
    G = lattice.chain(3)
    rng = np.random.default_rng(42)
    for _ in range(5):
        A = _rand_herm(rng, 8)
        X = frozenset({0, 2})
        loc = partial_trace_localize(A, X, G)
        twirled = _twirl_oracle(A, {1}, G)
        assert np.allclose(embed(loc, G), twirled, atol=1e-12)


def test_partial_trace_preserves_normalized_trace_and_contracts():
    G = lattice.chain(4)
    rng = np.random.default_rng(9)
    A = _rand_herm(rng, 16)
    X = frozenset({1, 2})
    loc = partial_trace_localize(A, X, G)
    assert abs(np.trace(loc.matrix) / 4 - np.trace(A) / 16) < 1e-12
    assert operator_norm(loc.matrix) <= operator_norm(A) + 1e-12


def test_partial_trace_idempotent_on_supported():
    G = lattice.chain(3)
    rng = np.random.default_rng(2)
    B = _rand_herm(rng, 2)
    op = LocalOperator.from_graph(G, (1,), B, hermitian=True)
    loc = partial_trace_localize(embed(op, G), {1}, G)
    assert np.allclose(loc.matrix, B, atol=1e-12)


def test_partial_trace_of_identity():
    G = lattice.chain(3)
    loc = partial_trace_localize(np.eye(8, dtype=complex), {0}, G)
    assert np.allclose(loc.matrix, np.eye(2), atol=1e-14)


# ----------------------------------------------------------------- spectra


def test_eigendecompose_dense_on_known_matrix():
    H = np.diag([3.0, -1.0, 2.0]).astype(complex)
    S = eigendecompose(H, mode="dense")
    assert np.allclose(S.values, [-1.0, 2.0, 3.0])
    assert S.complete
    assert S.residual_tol < 1e-12


def test_eigendecompose_iterative_matches_dense():
    # 8-spin Ising chain through the matvec kernels
    G = lattice.chain(8)
    terms = [
        LocalOperator.from_graph(
            G, (i, i + 1), -np.kron(sigma_z, sigma_z), hermitian=True
        )
        for i in range(7)
    ] + [
        LocalOperator.from_graph(G, (i,), -2.0 * sigma_x, hermitian=True)
        for i in range(8)
    ]
    act = HamiltonianAction(G, terms)
    dense = eigendecompose(act.dense(), mode="dense")
    it = eigendecompose(act, mode="iterative", k=4)
    assert np.allclose(it.values, dense.values[:4], atol=1e-8)
    assert it.mode == "iterative"
    # orthonormality
    Vt = it.vectors
    assert np.allclose(Vt.conj().T @ Vt, np.eye(4), atol=1e-8)


def test_matvec_agrees_with_dense_assembly():
    G = lattice.chain(6)
    rng = np.random.default_rng(3)
    terms = [
        LocalOperator.from_graph(G, (i, i + 1), _rand_herm(rng, 4), hermitian=True)
        for i in range(5)
    ]
    act = HamiltonianAction(G, terms)
    H = act.dense()
    x = rng.normal(size=64) + 1j * rng.normal(size=64)
    assert np.allclose(act.matvec(x), H @ x, atol=1e-12)


def _tfim_action(G, pauli_field=sigma_x):
    terms = [
        LocalOperator.from_graph(G, (a, b), -np.kron(sigma_z, sigma_z), hermitian=True)
        for a, b in G.edges
    ] + [
        LocalOperator.from_graph(G, (x,), -2.0 * pauli_field, hermitian=True)
        for x in G.sites()
    ]
    return HamiltonianAction(G, terms)


def test_embedding_is_real_exactly_when_the_input_is():
    dims = (2, 3, 2)
    rng = np.random.default_rng(4)
    real_in_complex = (rng.normal(size=(6, 6)) + 0j)
    for A, dtype in ((sigma_x, np.float64), (sigma_y, np.complex128)):
        got = embed_matrix(A, (2,), dims)
        assert got.dtype == dtype
        assert np.array_equal(got, np.kron(np.eye(6), A))
    got = embed_matrix(real_in_complex, (0, 1), dims)
    assert got.dtype == np.float64
    assert np.array_equal(got, np.kron(real_in_complex, np.eye(2)).real)


def test_dense_assembly_and_spectrum_stay_real_for_real_terms():
    G = lattice.chain(5)
    for field, dtype in ((sigma_x, np.float64), (sigma_y, np.complex128)):
        act = _tfim_action(G, field)
        H = act.dense()
        assert H.dtype == dtype
        S = eigendecompose(act, mode="dense")
        assert S.vectors.dtype == dtype
        # oracle: the same matrix diagonalized in complex arithmetic
        ref = np.linalg.eigvalsh(H.astype(complex))
        assert np.abs(S.values - ref).max() <= 1e-12
    assert eigendecompose(np.diag([2.0, 1.0]), mode="dense").vectors.dtype == np.float64


def test_iterative_start_vector_is_fixed():
    act = _tfim_action(lattice.chain(8))
    first = eigendecompose(act, mode="iterative", k=4)
    again = eigendecompose(act, mode="iterative", k=4)
    assert np.array_equal(first.values, again.values)
    assert np.array_equal(first.vectors, again.vectors)


def test_eigendecompose_rejects_nonhermitian():
    with pytest.raises(ValueError):
        eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]), mode="dense")


# ---------------------------------------------------------------- evolution


def test_evolve_single_spin_analytic():
    # H = S3: S1(t) = cos(t) S1 - sin(t) S2
    S = eigendecompose(S3.astype(complex), mode="dense")
    for t in (0.3, 1.1, 2.9):
        got = evolve(S, S1, t)
        expect = np.cos(t) * S1 - np.sin(t) * S2
        assert np.allclose(got, expect, atol=1e-12)


def test_evolve_preserves_frobenius_norm():
    rng = np.random.default_rng(8)
    H = _rand_herm(rng, 16)
    A = _rand_herm(rng, 16)
    S = eigendecompose(H, mode="dense")
    At = evolve(S, A, 0.7)
    assert abs(np.linalg.norm(At) - np.linalg.norm(A)) < 1e-10
    assert abs(operator_norm(At) - operator_norm(A)) < 1e-10


def test_evolve_requires_complete_spectrum():
    S = SpectralData(np.array([0.0]), np.eye(3)[:, :1].astype(complex), "iterative", 0.0, 3)
    with pytest.raises(ValueError):
        evolve(S, np.eye(3), 1.0)


# --------------------------------------------------------------- commutator


def test_commutator_norm_pauli():
    # [sx, sy] = 2i sz: norm 2
    assert abs(commutator_norm(sigma_x, sigma_y) - 2.0) < 1e-12


def test_commutator_norm_vs_svd_oracle():
    rng = np.random.default_rng(12)
    A = _rand_herm(rng, 9)
    B = _rand_herm(rng, 9)
    got = commutator_norm(A, B)
    oracle = np.linalg.svd(A @ B - B @ A, compute_uv=False)[0]
    assert abs(got - oracle) < 1e-10


def test_operator_norm_routes_agree():
    rng = np.random.default_rng(13)
    M = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    assert abs(operator_norm(M) - np.linalg.norm(M, 2)) < 1e-10
    H = _rand_herm(rng, 7)
    assert abs(operator_norm(H, hermitian=True) - np.linalg.norm(H, 2)) < 1e-10
