"""Dense operator toolbox on product spaces.

Conventions: site 0 is the slowest tensor axis (kron order by ascending
site id), operators on a region are matrices over the sites of the region
sorted ascending.  Dense spectral work is intended for total dimension up
to 2**13; above that the iterative eigensolver works on a CSR form of
the Hamiltonian, built only there, so scipy is loaded only by that
branch.

An assembled Hamiltonian (HamiltonianAction) holds its local terms and
their embedding tables, not a matrix: `dense()` writes them into one
array, `sparse()` into CSR.

Dense embeddings and assembled Hamiltonians are float64 whenever no
input matrix has a nonzero imaginary part, and complex128 otherwise;
the dense eigensolver keeps the dtype it is given, so real Hamiltonians
are diagonalized in real arithmetic.

A chain of spin-1/2 sites whose H commutes with the global spin flip
P = prod sigma_x (P|s> = |s-bar>, all bits flipped, index D - 1 - s) is
diagonalized in its two parity blocks: the real orthonormal basis
(|s> + p |s-bar>)/sqrt(2), p = +-1, with s over the first D/2 states
(those whose site 0 is up).  FlipBlock holds one block's eigenpairs in
that basis, and flip_action says how a one-site Pauli maps the blocks.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .blas import adopt_loaded_blas
from .exceptions import EigensolverFailed
from .kernels import EmbeddingPlan, apply_embedded, embed_sparse

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
class FlipBlock:
    """Eigenpairs of H in one parity block of the global spin flip.

    parity is +1 or -1; vectors holds the block's eigenvectors as
    columns over the D/2 basis states (|s> + parity |s-bar>)/sqrt(2).
    """

    parity: int
    values: np.ndarray
    vectors: np.ndarray

    def lift(self):
        """The eigenvectors as (D, D/2) columns of the full space."""
        U = self.vectors
        return np.vstack([U, self.parity * U[::-1]]) * np.sqrt(0.5)


@dataclass
class SpectralData:
    """Eigenpairs of a hermitian operator, ascending.

    vectors holds eigenvectors as columns.  residual_tol is the largest
    measured ||H v - w v||; mode records which solver produced the data.
    Data from the two spin-flip blocks keeps them in `blocks` (even,
    odd); its values are the two blocks' values merged, and its vectors
    are lifted to the full space on first read, in the same order.
    """

    values: np.ndarray
    _vectors: np.ndarray
    mode: str
    residual_tol: float
    dim: int
    blocks: tuple = ()

    @property
    def vectors(self):
        if self._vectors is None:
            order = _merge_order(self.blocks)
            self._vectors = np.hstack([b.lift() for b in self.blocks])[:, order]
        return self._vectors

    @property
    def complete(self):
        return self.values.shape[0] == self.dim

    def require_complete(self, what):
        if not self.complete:
            raise ValueError(f"{what} needs a full eigendecomposition")


def _merge_order(blocks):
    """The ascending order of the blocks' values, concatenated."""
    return np.argsort(np.concatenate([b.values for b in blocks]), kind="stable")


def flip_action(sigma, site, n_sites, parity):
    """How a one-site operator maps one spin-flip parity block.

    sigma is a 2x2 matrix with one nonzero entry per column that is even
    or odd under conjugation by sigma_x, as every Pauli matrix is.  With
    Q_p e_s = (|s> + p |s-bar>)/sqrt(2), returns (target, r, phase) such
    that sigma_site Q_parity e_s = phase[s] Q_target e_{r[s]} for every
    half-state s; r is a permutation, so the block is a phased
    permutation matrix.
    """
    sigma = np.asarray(sigma)
    m = int(sigma[0, 0] == 0)  # 1 when sigma flips the spin
    c = np.array([sigma[m, 0], sigma[1 - m, 1]])  # column u's entry
    if not np.iscomplex(c).any():
        c = c.real  # x and z keep real blocks, so products with them stay real
    target = parity * int(np.real(c[1] / c[0]))
    half = 2 ** (n_sites - 1)
    shift = n_sites - 1 - site
    s = np.arange(half)
    f = s ^ (m << shift)
    # a flip of site 0 leaves the half: |f> = |r-bar> with r = D - 1 - f
    low = f < half
    r = np.where(low, f, 2 * half - 1 - f)
    phase = c[(s >> shift) & 1] * np.where(low, 1, target)
    return target, r, phase


CACHE_SIZE = 3  # spectra a SpectralCache keeps


class SpectralCache(OrderedDict):
    """The one spectral cache: a least-recently-used window of CACHE_SIZE
    entries.

    Block paths key it by the path point float(s), models by their
    solver mode.  A flow walks its s-grid forward, so a small window
    serves it, and dense eigenvectors at 12+ spins are too large to keep
    in bulk.
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


class HamiltonianAction:
    """An assembled Hamiltonian: H = sum_g c_g sum_t (A_t x 1).

    Each group g is a coefficient and a tuple of local terms, each held
    as (support, matrix, EmbeddingPlan table) with the matrix real when
    it has no imaginary part; `H_phi + s * V` makes the two-group H(s)
    of a path without densifying either.  `dense()` is the one place an
    assembled H is densified, so perfbench times it as its own span
    (operators.HamiltonianAction.dense).
    """

    def __init__(self, dims, groups):
        self.dims = tuple(dims)
        self.groups = tuple(groups)
        D = int(np.prod(self.dims, dtype=np.int64))
        self.shape = (D, D)
        self.dtype = np.result_type(
            float, *(A for _, terms in self.groups for _, A, _ in terms)
        )

    def __add__(self, other):
        return HamiltonianAction(self.dims, self.groups + other.groups)

    def __rmul__(self, c):
        return HamiltonianAction(self.dims, [(c * k, terms) for k, terms in self.groups])

    def any(self):
        """Whether H has a nonzero entry.  Tested on the sites the terms
        touch, where each entry is the same sum of the same addends as on
        the full space, so no D x D array is formed."""
        sites = sorted({x for _, terms in self.groups for sup, _, _ in terms for x in sup})
        dims = [self.dims[x] for x in sites]
        groups = []
        for c, terms in self.groups:
            local = []
            for sup, A, _ in terms:
                sup = tuple(sites.index(x) for x in sup)
                local.append((sup, A, EmbeddingPlan(dims, sup).idx))
            groups.append((c, local))
        m = int(np.prod(dims, dtype=np.int64))
        return bool(_group_sum(groups, (m, m)).any())

    def dense(self):
        """The full matrix, in the dtype of the sum."""
        return _group_sum(self.groups, self.shape)

    def sparse(self):
        """The same sum as a CSR matrix, for the iterative solver; loads
        scipy.sparse."""
        import scipy.sparse as sp

        H = None
        for c, terms in self.groups:
            G = sp.csr_matrix(self.shape)
            for sup, A, _ in terms:
                G = G + embed_sparse(A, sup, self.dims)
            if c != 1.0:
                G = c * G
            H = G if H is None else H + G
        return H


def _group_sum(groups, shape):
    """sum_g c_g G_g as an array: each group's terms scatter-added in order
    through their tables into a zero G_g, as embed_matrix writes one
    term, and c_g times each later group added to the first."""
    H = None
    for c, terms in groups:
        G = np.zeros(shape, dtype=np.result_type(float, *(A for _, A, _ in terms)))
        for _, A, idx in terms:
            G[idx[:, None, :], idx[None, :, :]] += A[:, :, None]
        if c != 1.0:
            G *= c
        if H is None:
            H = G
        else:
            H = np.add(H, G, out=H if H.dtype == np.result_type(H, G) else G)
    return H


DENSE_LIMIT = 2**13


def eigendecompose(H, mode="auto", k=6, spin_flip=False):
    """Eigenpairs of a hermitian operator.

    H is a dense array or a HamiltonianAction.  mode "dense" produces the
    full decomposition (LAPACK) of the densified H in its dtype;
    "iterative" produces the k lowest pairs (ARPACK Lanczos on the CSR
    form of H) from a fixed start vector, so its results repeat run to
    run; "auto" picks dense up to 2**13 total dimension.  spin_flip=True
    declares that H, on a chain of spin-1/2 sites, commutes with the
    global spin flip: the dense mode then diagonalizes the two D/2
    parity blocks instead (SpectralData `blocks`), after checking that
    P H P is bitwise H.  residual_tol is max_j ||H v_j - w_j v_j|| in
    either mode, taken with the full H in the form the solver used.  A
    solver failure is raised as EigensolverFailed carrying dim, dtype
    and mode.
    """
    if not isinstance(H, HamiltonianAction):
        H = np.asarray(H)
    dim = int(H.shape[0])
    if mode == "auto":
        mode = "dense" if dim <= DENSE_LIMIT else "iterative"
    if mode not in ("dense", "iterative"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "iterative" and k >= dim - 1:
        raise ValueError("iterative mode needs k < dim - 1")

    if mode == "dense":
        H = H.dense() if isinstance(H, HamiltonianAction) else H
        if spin_flip:
            blocks = tuple(
                FlipBlock(p, *_dense_eigh(B)) for p, B in zip((1, -1), _flip_blocks(H))
            )
            res = max(_residual(H, b.lift(), b.values) for b in blocks)
            vals = np.concatenate([b.values for b in blocks])[_merge_order(blocks)]
            return SpectralData(vals, None, mode, res, dim, blocks)
        vals, vecs = _dense_eigh(H)
    else:
        # imported here: scipy is loaded by no dense run
        import scipy.sparse.linalg as spla

        adopt_loaded_blas()  # scipy's OpenBLAS joins the caps open now
        H = H.sparse() if isinstance(H, HamiltonianAction) else H
        v0 = np.random.default_rng(0).standard_normal(dim).astype(H.dtype)
        try:
            vals, vecs = spla.eigsh(H, k=k, which="SA", tol=0.0, v0=v0)
        except (np.linalg.LinAlgError, spla.ArpackError) as exc:
            raise EigensolverFailed(dim, H.dtype, mode) from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    return SpectralData(vals, vecs, mode, _residual(H, vecs, vals), dim)


def _dense_eigh(M):
    """LAPACK eigenpairs of a dense hermitian matrix, in its dtype."""
    scale = max(np.abs(M).max(), 1.0)
    if np.abs(M - M.conj().T).max() > 1e-10 * scale:
        raise ValueError("operator is not hermitian")
    try:
        return np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailed(M.shape[0], M.dtype, "dense") from exc


def _flip_blocks(H):
    """The even and odd blocks of the dense H in the spin-flip basis.

    With P H P = H, the block of parity p is H[s, s'] + p H[s, s'-bar]
    over the half-states s, s' < D/2, so both come from the first D/2
    rows of H, and the blocks between the two parities are exactly 0.
    """
    if not np.array_equal(H[::-1, ::-1], H):
        raise ValueError("H does not commute with the global spin flip")
    half = H.shape[0] // 2
    left, mirror = H[:half, :half], H[:half, ::-1][:, :half]
    return left + mirror, left - mirror


def _residual(H, vecs, vals):
    return float(np.linalg.norm(H @ vecs - vecs * vals, axis=0).max())
