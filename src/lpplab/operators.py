"""Dense operator toolbox on product spaces.

Conventions: site 0 is the slowest tensor axis (kron order by ascending
site id), operators on a region are matrices over the sites of the region
sorted ascending.  Dense spectral work is intended for total dimension up
to 2**13; above that the iterative eigensolver works on the sparse
(CSR) Hamiltonian directly.

Dense embeddings and assembled Hamiltonians are float64 whenever no
input matrix has a nonzero imaginary part, and complex128 otherwise;
the dense eigensolver keeps the dtype it is given, so real Hamiltonians
are diagonalized in real arithmetic.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import EigensolverFailed
from .kernels import EmbeddingPlan, apply_embedded

sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_HERM_TOL = 1e-12


@dataclass(frozen=True)
class LocalOperator:
    """A matrix supported on a few sites.

    support: sorted site ids; dims: their local dimensions; matrix is
    square of size prod(dims), indexed in kron order over the support,
    and keeps the dtype the caller gave it.
    """

    support: tuple
    dims: tuple
    matrix: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        support = tuple(int(x) for x in self.support)
        if list(support) != sorted(set(support)):
            raise ValueError("support must be sorted and duplicate-free")
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != len(support):
            raise ValueError("dims must align with support")
        m = int(np.prod(dims, dtype=np.int64)) if dims else 1
        mat = np.asarray(self.matrix)
        if mat.shape != (m, m):
            raise ValueError(f"matrix shape {mat.shape} != support dimension {m}")
        if self.hermitian:
            scale = max(np.abs(mat).max(), 1.0)
            if np.abs(mat - mat.conj().T).max() > _HERM_TOL * scale:
                raise ValueError("matrix is not hermitian within tolerance")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_graph(cls, G, sites, matrix, hermitian=False):
        sites = tuple(sorted(int(x) for x in sites))
        dims = tuple(G.site_dims[x] for x in sites)
        return cls(sites, dims, matrix, hermitian)

    def norm(self):
        return operator_norm(self.matrix, hermitian=self.hermitian)


def operator_norm(M, hermitian=False):
    """Spectral norm.  Hermitian matrices go through eigvalsh; general
    matrices through the largest eigenvalue of M^dag M."""
    M = np.asarray(M)
    if M.size == 1:
        return float(np.abs(M).max())
    if hermitian:
        return float(np.abs(np.linalg.eigvalsh(M)).max())
    w = np.linalg.eigvalsh(M.conj().T @ M)
    return float(np.sqrt(max(w[-1], 0.0)))


def _span_error(B1, C):
    """||B1 B1* - C C*|| for two bases of d columns, in their span.

    Both terms live on span[B1, C], at most 2d columns; with
    [B1, C] = QR the operator is Q (R J R*) Q*, J = diag(1, -1) on the
    two halves, so its norm is that of the 2d x 2d matrix R J R*.
    """
    d = B1.shape[1]
    if d == 0:
        return 0.0
    R = np.linalg.qr(np.hstack([B1, C]), mode="r")
    M = R[:, :d] @ R[:, :d].conj().T - R[:, d:] @ R[:, d:].conj().T
    return float(np.abs(np.linalg.eigvalsh(M)).max())


def embed(op: LocalOperator, G):
    """Dense matrix of `op` on the full volume of graph G."""
    for x, d in zip(op.support, op.dims):
        if G.site_dims[x] != d:
            raise ValueError(f"site {x}: operator dim {d} != graph dim {G.site_dims[x]}")
    return embed_matrix(op.matrix, op.support, G.site_dims)


def embed_matrix(A, positions, all_dims):
    """Embed matrix A acting on `positions` into prod(all_dims).

    The dense form of `kernels.embed_sparse`: A is written into the full
    matrix by the index table, with the identity on the remaining sites.
    The result is float64 when A has no nonzero imaginary part.
    """
    plan = EmbeddingPlan(all_dims, positions)
    A, idx = plan.local(A), plan.idx
    full = np.zeros((idx.size,) * 2, dtype=np.result_type(A, float))
    full[idx[:, None, :], idx[None, :, :]] = A[:, :, None]
    return full


def compress(B, matrix, sites, dims):
    """B^dag (A x 1) B for A = matrix on `sites` of a product space with
    local dimensions `dims`; A is applied locally to the columns of B."""
    return B.conj().T @ apply_embedded(matrix, sites, dims, B)


def partial_trace_localize(A, X, G, right=None):
    """Normalized partial trace Tr_E(A right^dagger) / d_E onto region X.

    A and right are (D, k) factors on the full volume, right=None the
    identity; their product is never formed.  Their rows are gathered in
    (X, E) order by the embedding table (kernels.EmbeddingPlan) and
    reshaped to (d_X, d_E k), so the trace is one product of the two.
    Returns a LocalOperator on X, real for real inputs; the normalized
    trace of A right^dagger is preserved and its spectral norm can only
    shrink.
    """
    X = G.check_region(X)
    if not X:
        raise ValueError("target region is empty")
    xs = tuple(sorted(X))
    idx = EmbeddingPlan(G.site_dims, xs).idx
    A = np.asarray(A)
    right = np.eye(idx.size) if right is None else np.asarray(right)
    if A.shape[0] != idx.size or right.shape != A.shape:
        raise ValueError("factors do not live on the full volume")
    dX, dE = idx.shape
    mat = A[idx].reshape(dX, -1) @ right[idx].reshape(dX, -1).conj().T / dE
    return LocalOperator(xs, tuple(G.site_dims[x] for x in xs), mat)


@dataclass
class SpectralData:
    """Eigenpairs of a hermitian operator, ascending.

    vectors holds eigenvectors as columns.  residual_tol is the largest
    measured ||H v - w v||; mode records which solver produced the data.
    """

    values: np.ndarray
    vectors: np.ndarray
    mode: str
    residual_tol: float
    dim: int

    @property
    def complete(self):
        return self.values.shape[0] == self.dim

    def require_complete(self, what):
        if not self.complete:
            raise ValueError(f"{what} needs a full eigendecomposition")


CACHE_SIZE = 3  # spectra a SpectralCache keeps


class SpectralCache(OrderedDict):
    """The one spectral cache: a least-recently-used window of CACHE_SIZE
    entries.

    Paths key it by the path point float(s), models by their solver
    mode.  A path walks its s-grid forward, so a small window serves it,
    and dense eigenvectors at 12+ spins are too large to keep in bulk.
    """

    def fetch(self, key, compute):
        """The entry at key, from compute() on a miss; either way it
        becomes the most recent, and the least recent beyond CACHE_SIZE
        are dropped."""
        if key in self:
            self.move_to_end(key)
            return self[key]
        value = self[key] = compute()
        while len(self) > CACHE_SIZE:
            self.popitem(last=False)
        return value


class HamiltonianAction(sp.csr_matrix):
    """An assembled Hamiltonian: the CSR sum of its embedded local terms.

    `dense()` is the one place an assembled H is densified, so perfbench
    times it as its own span (operators.HamiltonianAction.dense).
    """

    def dense(self):
        """The full matrix, in the dtype of the sum."""
        return self.toarray()


DENSE_LIMIT = 2**13


def eigendecompose(H, mode="auto", k=6):
    """Eigenpairs of a hermitian operator.

    H is a dense array or a sparse matrix, which is taken as a
    HamiltonianAction (CSR).  mode "dense" produces the full
    decomposition (LAPACK) of the densified H in its dtype; "iterative"
    produces the k lowest pairs (ARPACK Lanczos on H itself) from a fixed
    start vector, so its results repeat run to run; "auto" picks dense up
    to 2**13 total dimension.
    residual_tol is max_j ||H v_j - w_j v_j|| in either mode.  A solver
    failure is raised as EigensolverFailed carrying dim, dtype and mode.
    """
    H = HamiltonianAction(H) if sp.issparse(H) else np.asarray(H)
    dim = int(H.shape[0])
    if mode == "auto":
        mode = "dense" if dim <= DENSE_LIMIT else "iterative"
    if mode not in ("dense", "iterative"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "iterative" and k >= dim - 1:
        raise ValueError("iterative mode needs k < dim - 1")

    if mode == "dense":
        M = H.dense() if sp.issparse(H) else H
        scale = max(np.abs(M).max(), 1.0)
        if np.abs(M - M.conj().T).max() > 1e-10 * scale:
            raise ValueError("operator is not hermitian")
        try:
            vals, vecs = np.linalg.eigh(M)
        except np.linalg.LinAlgError as exc:
            raise EigensolverFailed(dim, H.dtype, mode) from exc
    else:
        # imported here: it loads scipy.linalg, which no dense run needs
        import scipy.sparse.linalg as spla

        v0 = np.random.default_rng(0).standard_normal(dim).astype(H.dtype)
        try:
            vals, vecs = spla.eigsh(H, k=k, which="SA", tol=0.0, v0=v0)
        except (np.linalg.LinAlgError, spla.ArpackError) as exc:
            raise EigensolverFailed(dim, H.dtype, mode) from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    res = float(np.linalg.norm(H @ vecs - vecs * vals, axis=0).max())
    return SpectralData(vals, vecs, mode, res, dim)


def commutator_norm(A, B):
    """Spectral norm of [A, B]."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    C = A @ B - B @ A
    return operator_norm(C)
