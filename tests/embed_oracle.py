"""Embedding oracles independent of lpplab.kernels' index table.

  bruteforce_embed   A x 1 entry by entry: (row, col) takes A[a, b] when
                     row and col agree off the support, a and b being
                     their support digits.
  kron_embed         A x 1 as np.kron(A, 1) with the axes permuted back
                     to site order (the former operators.embed_matrix).
  term_sum           the former dense Hamiltonian assembly: a zero
                     matrix, float64 unless a term has an imaginary part,
                     plus kron_embed of each term in order.
  embed              a LocalOperator as a dense matrix on a graph's full
                     volume, through operators.embed_matrix.
  from_graph         a LocalOperator on the given sites, with the local
                     dimensions read from the graph.
  commutator_norm    the spectral norm of [A, B], in complex arithmetic.
  site_slope         the slope family of a ramp s W at one site.
  scaled_terms       the terms of s W as the former per-s path gave
                     them: s times each slope matrix, made Hermitian as
                     (M + M^H) / 2.
  per_s_hamiltonian  the former per-s path assembly: the CSR sum of the
                     terms of Phi and then scaled_terms, in order.
"""

import numpy as np

from lpplab.interactions import InteractionFamily, assemble_hamiltonian
from lpplab.operators import LocalOperator, embed_matrix, operator_norm


def bruteforce_embed(A, positions, dims):
    """Dense A x 1 by iterating over all pairs of basis states."""
    A = np.asarray(A)
    positions = tuple(sorted(positions))
    D = int(np.prod(dims))
    full = np.zeros((D, D), dtype=np.result_type(A, float))
    strides = [1] * len(dims)
    for i in range(len(dims) - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]

    def digits(flat):
        return [(flat // strides[p]) % dims[p] for p in range(len(dims))]

    def sup_index(dig):
        out = 0
        for p in positions:
            out = out * dims[p] + dig[p]
        return out

    for row in range(D):
        dr = digits(row)
        for col in range(D):
            dc = digits(col)
            if all(dr[p] == dc[p] for p in range(len(dims)) if p not in positions):
                full[row, col] = A[sup_index(dr), sup_index(dc)]
    return full


def kron_embed(A, positions, all_dims):
    """kron(A, 1) with the axes transposed back to site order; float64
    when A has no nonzero imaginary part."""
    positions = tuple(sorted(int(p) for p in positions))
    n = len(all_dims)
    rest = [p for p in range(n) if p not in positions]
    d_rest = int(np.prod([all_dims[p] for p in rest], dtype=np.int64)) if rest else 1
    sup_dims = [all_dims[p] for p in positions]
    A = np.asarray(A)
    if np.iscomplexobj(A) and not A.imag.any():
        A = A.real
    full = np.kron(A, np.eye(d_rest, dtype=np.result_type(A, float)))
    shaped = full.reshape(
        tuple(sup_dims) + tuple(all_dims[p] for p in rest)
        + tuple(sup_dims) + tuple(all_dims[p] for p in rest)
    )
    perm = np.argsort(list(positions) + rest)
    shaped = shaped.transpose(tuple(perm) + tuple(perm + n))
    D = int(np.prod(all_dims, dtype=np.int64))
    return np.ascontiguousarray(shaped.reshape(D, D))


def term_sum(terms, dims):
    """sum of kron_embed over LocalOperator terms, added in order."""
    terms = list(terms)
    real = not any(np.asarray(t.matrix).imag.any() for t in terms)
    D = int(np.prod(dims, dtype=np.int64))
    H = np.zeros((D, D), dtype=float if real else complex)
    for t in terms:
        H += kron_embed(t.matrix, t.support, dims)
    return H


def embed(op, G):
    """Dense matrix of `op` on the full volume of graph G."""
    for x, d in zip(op.support, op.dims):
        if G.site_dims[x] != d:
            raise ValueError(f"site {x}: operator dim {d} != graph dim {G.site_dims[x]}")
    return embed_matrix(op.matrix, op.support, G.site_dims)


def from_graph(G, sites, matrix, hermitian=False):
    """LocalOperator on `sites` with dims taken from G."""
    sites = tuple(sorted(int(x) for x in sites))
    dims = tuple(G.site_dims[x] for x in sites)
    return LocalOperator(sites, dims, matrix, hermitian)


def commutator_norm(A, B):
    """Spectral norm of [A, B]."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    C = A @ B - B @ A
    return operator_norm(C)


def site_slope(G, site, W):
    """InteractionFamily of the one Hermitian slope term W at `site`."""
    return InteractionFamily([from_graph(G, (site,), W, hermitian=True)])


def scaled_terms(W, s):
    """The terms of s W, each made Hermitian as (M + M^H) / 2."""
    out = []
    for t in W:
        M = s * t.matrix
        out.append(LocalOperator(t.support, t.dims, (M + M.conj().T) / 2, hermitian=True))
    return out


def per_s_hamiltonian(path, s):
    """H(s) of a HamiltonianPath assembled afresh at s: H_Phi plus each
    term of s W embedded as CSR, added in order."""
    terms = list(path.phi) + scaled_terms(path.W, s)
    return assemble_hamiltonian(InteractionFamily(terms), path.graph)
