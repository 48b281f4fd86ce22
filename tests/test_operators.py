"""Quantum core: embedding, partial trace (twirl oracle), spectra, commutators."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from embed_oracle import commutator_norm, embed, from_graph, term_sum

from lpplab import interactions as itx
from lpplab import lattice
from lpplab.exceptions import EigensolverFailed
from lpplab.operators import (
    CACHE_SIZE,
    LocalOperator,
    SpectralCache,
    eigendecompose,
    embed_matrix,
    operator_norm,
    partial_trace_localize,
    sigma_x,
    sigma_y,
    sigma_z,
)


def _rand_herm(rng, n):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (M + M.conj().T) / 2


# ---------------------------------------------------------------- embedding


def test_embed_single_site_kron_oracle():
    G = lattice.chain(3)
    op = from_graph(G, (1,), sigma_z, hermitian=True)
    expect = np.kron(np.kron(np.eye(2), sigma_z), np.eye(2))
    assert np.allclose(embed(op, G), expect)


def test_embed_noncontiguous_support():
    G = lattice.chain(3)
    rng = np.random.default_rng(0)
    A = _rand_herm(rng, 4)
    op = from_graph(G, (0, 2), A, hermitian=True)
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
    op = from_graph(G, (2,), A, hermitian=True)
    w_small = np.linalg.eigvalsh(A)
    w_full = np.linalg.eigvalsh(embed(op, G))
    assert np.allclose(np.repeat(w_small, 4), np.sort(w_full), atol=1e-12)


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
    op = from_graph(G, (1,), B, hermitian=True)
    loc = partial_trace_localize(embed(op, G), {1}, G)
    assert np.allclose(loc.matrix, B, atol=1e-12)


def test_partial_trace_of_identity():
    G = lattice.chain(3)
    loc = partial_trace_localize(np.eye(8, dtype=complex), {0}, G)
    assert np.allclose(loc.matrix, np.eye(2), atol=1e-14)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize(
    "X", [(1, 3), (0, 2, 4), (2,), (0, 1, 2, 3, 4)], ids=["1-3", "0-2-4", "2", "full"]
)
def test_partial_trace_of_factors_matches_their_product(dtype, X):
    # Tr_E(W B^dagger) from the factors against the trace of W B^dagger,
    # on non-contiguous regions, one site and the full volume
    G = lattice.chain(5)
    rng = np.random.default_rng(len(X))

    def draw():
        M = rng.normal(size=(32, 32))
        return M + 1j * rng.normal(size=(32, 32)) if dtype is complex else M

    W, B = draw(), draw()
    loc = partial_trace_localize(W, X, G, right=B)
    ref = partial_trace_localize(W @ B.conj().T, X, G)
    assert loc.support == ref.support == X
    assert loc.matrix.dtype == np.result_type(dtype, float)
    assert np.abs(loc.matrix - ref.matrix).max() <= 1e-13


def test_local_operators_keep_the_callers_dtype():
    G = lattice.chain(3)
    rng = np.random.default_rng(5)
    real = rng.normal(size=(4, 4))
    assert LocalOperator((0, 1), (2, 2), real).matrix.dtype == np.float64
    assert LocalOperator((0,), (2,), sigma_y).matrix.dtype == np.complex128
    assert partial_trace_localize(rng.normal(size=(8, 8)), {1}, G).matrix.dtype == np.float64
    Y = embed(LocalOperator((1,), (2,), sigma_y), G)
    assert partial_trace_localize(Y, {1}, G).matrix.dtype == np.complex128


# ------------------------------------------------------------ spectral cache


def test_spectral_cache_is_a_bounded_lru():
    cache = SpectralCache()
    computed = []

    def compute(key):
        return lambda: computed.append(key) or [key]

    a = cache.fetch("a", compute("a"))
    cache.fetch("b", compute("b"))
    cache.fetch("c", compute("c"))
    assert cache.fetch("a", compute("a")) is a  # a hit, now the most recent
    cache.fetch("d", compute("d"))  # the fourth key drops b, the least recent
    assert computed == ["a", "b", "c", "d"]
    assert list(cache) == ["c", "a", "d"]
    assert len(cache) == CACHE_SIZE


# ----------------------------------------------------------------- spectra


def test_eigendecompose_dense_on_known_matrix():
    H = np.diag([3.0, -1.0, 2.0]).astype(complex)
    S = eigendecompose(H, mode="dense")
    assert np.allclose(S.values, [-1.0, 2.0, 3.0])
    assert S.complete
    assert S.residual_tol < 1e-12


def test_eigendecompose_iterative_matches_dense():
    # 8-spin Ising chain: ARPACK on the CSR against LAPACK on its dense form
    G = lattice.chain(8)
    terms = [
        from_graph(
            G, (i, i + 1), -np.kron(sigma_z, sigma_z), hermitian=True
        )
        for i in range(7)
    ] + [
        from_graph(G, (i,), -2.0 * sigma_x, hermitian=True)
        for i in range(8)
    ]
    H = itx.assemble_hamiltonian(itx.InteractionFamily(terms), G)
    dense = eigendecompose(H.toarray(), mode="dense")
    it = eigendecompose(H, mode="iterative", k=4)
    assert np.allclose(it.values, dense.values[:4], atol=1e-8)
    assert it.mode == "iterative"
    # orthonormality
    Vt = it.vectors
    assert np.allclose(Vt.conj().T @ Vt, np.eye(4), atol=1e-8)


def test_matvec_agrees_with_dense_assembly():
    G = lattice.chain(6)
    rng = np.random.default_rng(3)
    terms = [
        from_graph(G, (i, i + 1), _rand_herm(rng, 4), hermitian=True)
        for i in range(5)
    ]
    H = itx.assemble_hamiltonian(itx.InteractionFamily(terms), G)
    assert H.format == "csr"
    x = rng.normal(size=64) + 1j * rng.normal(size=64)
    assert np.allclose(H @ x, term_sum(terms, G.site_dims) @ x, atol=1e-12)


def _tfim_csr(G, pauli_field=sigma_x):
    terms = [
        from_graph(G, (a, b), -np.kron(sigma_z, sigma_z), hermitian=True)
        for a, b in G.edges
    ] + [
        from_graph(G, (x,), -2.0 * pauli_field, hermitian=True)
        for x in G.sites()
    ]
    return itx.assemble_hamiltonian(itx.InteractionFamily(terms), G)


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
        act = _tfim_csr(G, field)
        H = act.toarray()
        assert H.dtype == dtype
        S = eigendecompose(act, mode="dense")
        assert S.vectors.dtype == dtype
        # oracle: the same matrix diagonalized in complex arithmetic
        ref = np.linalg.eigvalsh(H.astype(complex))
        assert np.abs(S.values - ref).max() <= 1e-12
    assert eigendecompose(np.diag([2.0, 1.0]), mode="dense").vectors.dtype == np.float64


def test_iterative_start_vector_is_fixed():
    act = _tfim_csr(lattice.chain(8))
    first = eigendecompose(act, mode="iterative", k=4)
    again = eigendecompose(act, mode="iterative", k=4)
    assert np.array_equal(first.values, again.values)
    assert np.array_equal(first.vectors, again.vectors)


def test_eigendecompose_rejects_nonhermitian():
    with pytest.raises(ValueError):
        eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]), mode="dense")


def test_lapack_failure_is_typed(monkeypatch):
    cause = np.linalg.LinAlgError("Eigenvalues did not converge")

    def failing_eigh(M):
        raise cause

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(EigensolverFailed) as info:
        eigendecompose(_tfim_csr(lattice.chain(3)), mode="dense")
    err = info.value
    assert (err.dim, err.dtype, err.mode) == (8, np.float64, "dense")
    assert err.__cause__ is cause


def test_arpack_failure_is_typed(monkeypatch):
    cause = spla.ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

    def failing_eigsh(*args, **kwargs):
        raise cause

    monkeypatch.setattr(spla, "eigsh", failing_eigsh)
    with pytest.raises(EigensolverFailed) as info:
        eigendecompose(_tfim_csr(lattice.chain(8), sigma_y), mode="iterative", k=4)
    err = info.value
    assert (err.dim, err.dtype, err.mode) == (256, np.complex128, "iterative")
    assert err.__cause__ is cause


# -------------------------------------------------------------- commutator


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
