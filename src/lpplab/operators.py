"""Dense operator toolbox on product spaces.

Conventions: site 0 is the slowest tensor axis (kron order by ascending
site id), operators on a region are matrices over the sites of the region
sorted ascending.  Dense spectral work is intended for total dimension up
to 2**13; above that use matvec assembly and the iterative eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .kernels import EmbeddingPlan, apply_embedded

sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ident2 = np.eye(2, dtype=complex)

_HERM_TOL = 1e-12


@dataclass(frozen=True)
class LocalOperator:
    """A matrix supported on a few sites.

    support: sorted site ids; dims: their local dimensions; matrix is
    square of size prod(dims), indexed in kron order over the support.
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
        mat = np.asarray(self.matrix, dtype=complex)
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


def embed(op: LocalOperator, G):
    """Dense matrix of `op` on the full volume of graph G."""
    for x, d in zip(op.support, op.dims):
        if G.site_dims[x] != d:
            raise ValueError(f"site {x}: operator dim {d} != graph dim {G.site_dims[x]}")
    return embed_matrix(op.matrix, op.support, G.site_dims)


def embed_matrix(A, positions, all_dims):
    """Embed matrix A acting on `positions` (sorted) into prod(all_dims).

    Tensors A with the identity on the remaining sites and permutes the
    axes back to site order.
    """
    positions = tuple(sorted(int(p) for p in positions))
    n = len(all_dims)
    rest = [p for p in range(n) if p not in positions]
    d_rest = int(np.prod([all_dims[p] for p in rest], dtype=np.int64)) if rest else 1
    sup_dims = [all_dims[p] for p in positions]
    full = np.kron(np.asarray(A, dtype=complex), np.eye(d_rest, dtype=complex))
    # axes currently ordered (support..., rest...) on both sides
    shaped = full.reshape(
        tuple(sup_dims) + tuple(all_dims[p] for p in rest) + tuple(sup_dims) + tuple(all_dims[p] for p in rest)
    )
    order = list(positions) + rest
    perm = np.argsort(order)
    shaped = shaped.transpose(tuple(perm) + tuple(perm + n))
    D = int(np.prod(all_dims, dtype=np.int64))
    return np.ascontiguousarray(shaped.reshape(D, D))


def partial_trace_localize(A, X, G):
    """Normalized partial trace of a full-volume matrix onto region X.

    Returns a LocalOperator on X; the complement is traced out and divided
    by its dimension, so the normalized trace is preserved and the spectral
    norm can only shrink.
    """
    X = G.check_region(X)
    if not X:
        raise ValueError("target region is empty")
    xs = sorted(X)
    n = G.n_sites
    dims = G.site_dims
    D = int(np.prod(dims, dtype=np.int64))
    A = np.asarray(A, dtype=complex)
    if A.shape != (D, D):
        raise ValueError("matrix does not live on the full volume")
    env = [p for p in range(n) if p not in X]
    dX = int(np.prod([dims[x] for x in xs], dtype=np.int64))
    dE = D // dX
    perm = xs + env
    shaped = A.reshape(tuple(dims) + tuple(dims))
    shaped = shaped.transpose(tuple(perm) + tuple(p + n for p in perm))
    blocks = shaped.reshape(dX, dE, dX, dE)
    mat = np.einsum("aebe->ab", blocks) / dE
    return LocalOperator(tuple(xs), tuple(dims[x] for x in xs), mat)


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


class HamiltonianAction:
    """Sum of embedded local terms, applied through the matvec kernels."""

    def __init__(self, G, terms):
        self.graph = G
        self.terms = list(terms)
        self._plans = [
            EmbeddingPlan(G.site_dims, t.support) for t in self.terms
        ]
        self.dim = G.dimension()

    def matvec(self, x):
        x = np.asarray(x, dtype=complex).ravel()
        y = np.zeros(self.dim, dtype=complex)
        for t, plan in zip(self.terms, self._plans):
            apply_embedded(t.matrix, plan, x, y)
        return y

    def dense(self):
        H = np.zeros((self.dim, self.dim), dtype=complex)
        for t in self.terms:
            H += embed(t, self.graph)
        return H

    def as_linear_operator(self):
        return spla.LinearOperator(
            (self.dim, self.dim), matvec=self.matvec, dtype=complex
        )


DENSE_LIMIT = 2**13


def eigendecompose(H, mode="auto", k=6, tol=0.0):
    """Eigenpairs of a hermitian operator.

    H is a dense matrix or a HamiltonianAction.  mode "dense" produces the
    full decomposition (LAPACK); "iterative" produces the k lowest pairs
    (ARPACK Lanczos over the matvec kernels); "auto" picks dense up to
    2**13 total dimension.
    """
    is_action = isinstance(H, HamiltonianAction)
    dim = H.dim if is_action else int(H.shape[0])
    if mode == "auto":
        mode = "dense" if dim <= DENSE_LIMIT else "iterative"

    if mode == "dense":
        M = H.dense() if is_action else np.asarray(H, dtype=complex)
        scale = max(np.abs(M).max(), 1.0)
        if np.abs(M - M.conj().T).max() > 1e-10 * scale:
            raise ValueError("operator is not hermitian")
        vals, vecs = np.linalg.eigh(M)
        res = float(np.linalg.norm(M @ vecs - vecs * vals, axis=0).max())
        return SpectralData(vals, vecs, "dense", res, dim)

    if mode == "iterative":
        if k >= dim - 1:
            raise ValueError("iterative mode needs k < dim - 1")
        op = H.as_linear_operator() if is_action else spla.aslinearoperator(
            np.asarray(H, dtype=complex)
        )
        vals, vecs = spla.eigsh(op, k=k, which="SA", tol=tol)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        mv = H.matvec if is_action else (lambda x: np.asarray(H) @ x)
        res = _max_residual(mv, vals, vecs)
        return SpectralData(vals, vecs, "iterative", res, dim)

    raise ValueError(f"unknown mode {mode!r}")


def _max_residual(mv, vals, vecs):
    worst = 0.0
    for j in range(vals.shape[0]):
        r = mv(vecs[:, j]) - vals[j] * vecs[:, j]
        worst = max(worst, float(np.linalg.norm(r)))
    return worst


def evolve(S: SpectralData, A, t):
    """Heisenberg evolution e^{iHt} A e^{-iHt} from a full decomposition."""
    S.require_complete("evolve")
    A = np.asarray(A, dtype=complex)
    phases = np.exp(1j * t * S.values)
    V = S.vectors
    W = V.conj().T @ A @ V
    W = W * np.outer(phases, phases.conj())
    return V @ W @ V.conj().T


def commutator_norm(A, B):
    """Spectral norm of [A, B]."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    C = A @ B - B @ A
    return operator_norm(C)
