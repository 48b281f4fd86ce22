"""The index-table embedding rule against brute-force and kron oracles."""

from __future__ import annotations

import numpy as np
import pytest
from embed_oracle import bruteforce_embed, kron_embed

from lpplab.kernels import EmbeddingPlan, apply_embedded, embed_sparse
from lpplab.operators import embed_matrix


@pytest.mark.parametrize(
    "dims,positions",
    [
        ((2, 2, 2), (0,)),
        ((2, 2, 2), (2,)),
        ((2, 3, 2), (1,)),
        ((2, 2, 2, 2), (1, 2)),
        ((2, 2, 2, 2), (0, 3)),
        ((3, 2, 4), (0, 2)),
        ((2, 2, 2, 2, 2), (0, 2, 4)),
    ],
)
def test_apply_matches_bruteforce_oracle(dims, positions):
    rng = np.random.default_rng(hash((dims, positions)) % 2**32)
    m = int(np.prod([dims[p] for p in positions]))
    D = int(np.prod(dims))
    real = rng.normal(size=(m, m))
    for A, dtype in (
        (real, np.float64),
        (real + 0j, np.float64),
        (real + 1j * rng.normal(size=(m, m)), np.complex128),
    ):
        full = bruteforce_embed(A, positions, dims)
        sparse = embed_sparse(A, positions, dims)
        assert sparse.format == "csr" and sparse.dtype == dtype
        assert np.array_equal(sparse.toarray(), full)
        dense = embed_matrix(A, positions, dims)
        assert dense.dtype == dtype
        assert np.array_equal(dense, full)
        assert np.array_equal(dense, kron_embed(A, positions, dims))
        for X in (
            rng.normal(size=D),
            rng.normal(size=(D, 3)),
            rng.normal(size=D) + 1j * rng.normal(size=D),
            rng.normal(size=(D, 3)) + 1j * rng.normal(size=(D, 3)),
        ):
            got = apply_embedded(A, positions, dims, X)
            assert got.shape == X.shape
            assert got.dtype == np.result_type(dtype, X.dtype)
            assert np.allclose(got, full @ X, atol=1e-12)


def test_plan_index_layout():
    # site 0 is the slowest axis: the last site steps by 1, the first by
    # the product of the dimensions after it
    assert np.array_equal(EmbeddingPlan((3, 2), (1,)).idx, [[0, 2, 4], [1, 3, 5]])
    assert np.array_equal(EmbeddingPlan((2, 3), (0,)).idx, [[0, 1, 2], [3, 4, 5]])
    assert np.array_equal(EmbeddingPlan((2, 2), ()).idx, [[0, 1, 2, 3]])


def test_plan_validation():
    with pytest.raises(ValueError):
        EmbeddingPlan((2, 2), (0, 0))
    with pytest.raises(ValueError):
        EmbeddingPlan((2, 2), (3,))
    with pytest.raises(ValueError):
        apply_embedded(np.eye(4), (0,), (2, 2), np.zeros(4))
    with pytest.raises(ValueError):
        apply_embedded(np.eye(2), (0,), (2, 2), np.zeros(5))
    with pytest.raises(ValueError):
        embed_sparse(np.eye(4), (0,), (2, 2))
