"""The one rule that places a local matrix in a product space.

Site 0 is the slowest tensor axis (kron order by ascending site id).  A
matrix A on the sorted `sites` of a space with local dimensions `dims`
acts on flat indices through the table of an `EmbeddingPlan`: local
state a with the other sites in configuration e sits at
idx[a, e] = sup[a] + env[e].  The embedding
(A x 1)[idx[a, e], idx[b, e]] = A[a, b] is written out sparse by
`embed_sparse` (dense by `operators.embed_matrix`) and applied to states
without forming it by `apply_embedded`.

A matrix with no nonzero imaginary part is used as real, so real
inputs give real results.
"""

import numpy as np
import scipy.sparse as sp

# Recorded in the benchmark's environment block; numpy is the only backend.
BACKEND = "numpy"


class EmbeddingPlan:
    """The (m, E) int64 table idx[a, e] = sup[a] + env[e] of flat indices.

    sup[a] is the flat-index part of local state a on `sites` (kron order
    over the sorted sites), env[e] enumerates the configurations of the
    remaining sites in flat order.
    """

    def __init__(self, dims, sites):
        dims = tuple(int(d) for d in dims)
        sites = tuple(sorted(int(p) for p in sites))
        if len(set(sites)) != len(sites):
            raise ValueError("repeated site in support")
        if sites and not (0 <= sites[0] and sites[-1] < len(dims)):
            raise ValueError("support site out of range")
        strides = np.ones(len(dims), dtype=np.int64)
        for i in range(len(dims) - 2, -1, -1):
            strides[i] = strides[i + 1] * dims[i + 1]

        def offsets(axes):
            out = np.zeros(1, dtype=np.int64)
            for p in axes:
                out = (out[:, None] + np.arange(dims[p], dtype=np.int64) * strides[p]).ravel()
            return out

        env = offsets(p for p in range(len(dims)) if p not in sites)
        self.idx = offsets(sites)[:, None] + env[None, :]

    def local(self, matrix):
        """`matrix` as an array checked against the support, real when no
        entry has a nonzero imaginary part."""
        A = np.asarray(matrix)
        m = self.idx.shape[0]
        if A.shape != (m, m):
            raise ValueError(f"matrix shape {A.shape} does not match support dimension {m}")
        if np.iscomplexobj(A) and not A.imag.any():
            A = A.real
        return A


def embed_sparse(matrix, sites, dims):
    """A x 1 on the full space as CSR; float64 when A has no imaginary part."""
    plan = EmbeddingPlan(dims, sites)
    A, idx = plan.local(matrix), plan.idx
    a, b = np.nonzero(A)
    D = idx.size
    data = np.repeat(A[a, b].astype(np.result_type(A, float)), idx.shape[1])
    return sp.csr_matrix((data, (idx[a].ravel(), idx[b].ravel())), shape=(D, D))


def apply_embedded(matrix, sites, dims, X):
    """(A x 1) X for a state X of shape (D,) or a block of columns (D, k).

    Gathers X by the index table, multiplies by A once and scatters back;
    the result has the combined dtype of A and X.
    """
    plan = EmbeddingPlan(dims, sites)
    A, idx = plan.local(matrix), plan.idx
    X = np.asarray(X)
    m, E = idx.shape
    if X.shape[0] != m * E:
        raise ValueError(f"state length {X.shape[0]} does not match dimension {m * E}")
    Y = np.empty(X.shape, dtype=np.result_type(A, X))
    Y[idx] = (A @ X[idx].reshape(m, -1)).reshape(idx.shape + X.shape[1:])
    return Y
