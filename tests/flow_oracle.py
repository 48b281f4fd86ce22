"""Per-call oracles for the one-pass code in lpplab.spectral_flow.

  loop_assemble   a block Hamiltonian built by looping over the
                  configurations and their hops in Python, one matrix
                  entry at a time;
  flow_pass       the flow for a single truncation radius, walking the
                  s-grid with that radius alone: P, dP and G are formed
                  afresh for every radius, each step exponentiates the
                  whole block in complex arithmetic, and each error is a
                  dense D-dimensional norm;
  block_projector the D x D sector projector P(s) = B B^T of a block
                  path;
  fd_projector_derivative
                  dP/ds by one Richardson step on central differences of
                  P, the independent check of the resolvent
                  spectral_flow.projector_derivative;
  fd_block_derivative
                  dH/ds of a block by a central difference of its
                  matrix, the former finite-difference slope.

loop_assemble does the same floating-point operations as the library
code, in the same order per matrix entry, so blocks agree bit for bit.
flow_pass forms each step's D x D generator i[P, dP], truncated when a
radius is given; its U and errors round differently from the real
sub-block steps and span-sized norms, so they agree to 1e-13.
"""

import numpy as np

from lpplab import spectral_flow as sf
from lpplab.operators import operator_norm
from lpplab.sectors import split_sector

FD_H = 1e-4
SCALAR_H = 1e-6


def loop_assemble(block, sp):
    """The block matrix of the one-particle matrix sp, entry by entry."""
    system = block.system
    targets = [[] for _ in range(system.n_modes)]
    for a, b in system.graph.edges:
        targets[a].append(b)
        targets[b].append(a)
    for site, mode, _ in system._pairs:
        targets[site].append(mode)
        targets[mode].append(site)
    H = np.zeros((block.dim, block.dim))
    for ci, cfg in enumerate(block.configs):
        H[ci, ci] = sum(sp[x, x] for x in cfg)
        occ = set(cfg)
        for x in cfg:
            for y in targets[x]:
                if y in occ:
                    continue
                cj = block.index[tuple(sorted((occ - {x}) | {y}))]
                H[cj, ci] += sp[y, x]
    return H


def _expm_i(A):
    w, V = np.linalg.eigh(A)
    return (V * np.exp(1j * w)) @ V.conj().T


def block_projector(path, s):
    """P(s) = B B^T from the lowest d eigenvectors of a block path."""
    B = sf.sector_basis(path, s)
    return B @ B.T


def fd_projector_derivative(path, s, projector=block_projector):
    """dP/ds from central differences of projector(path, s), with one
    Richardson step.  An empty or full sector has dP = 0; any other
    raises GapClosed when its gap is closed."""
    d = path.d
    dim = path.dim
    if d == 0 or d >= dim:
        return np.zeros((dim, dim))
    split_sector(path.spectral(s)[0], ("fixed_d", d), s=s)

    def D(step):
        return (projector(path, s + step) - projector(path, s - step)) / (2 * step)

    return (4 * D(FD_H / 2) - D(FD_H)) / 3


def fd_block_derivative(block, s, h=SCALAR_H):
    """(H(s + h) - H(s - h)) / 2h for a SectorBlockHamiltonian."""
    return (block.matrix(s + h) - block.matrix(s - h)) / (2 * h)


def flow_pass(path, l, ds, K):
    """(U, grid, errors) of the flow truncated at radius l (None:
    untruncated), integrated on its own."""
    n_steps = max(1, int(round(1.0 / ds)))
    ds = 1.0 / n_steps
    dim = path.dim
    P0 = block_projector(path, 0.0)
    U = np.eye(dim, dtype=complex)
    grid = [0.0]
    errors = [0.0]
    for j in range(n_steps):
        smid = (j + 0.5) * ds
        dP = sf.projector_derivative(path, smid)
        G = sf.kato_generator(block_projector(path, smid), dP)
        if l is not None:
            G = sf.truncate_generator(G, K, l, path.block)
        if np.any(G):
            U = _expm_i(ds * G) @ U
        s1 = (j + 1) * ds
        errors.append(
            operator_norm(block_projector(path, s1) - U @ P0 @ U.conj().T, hermitian=True)
        )
        grid.append(s1)
    defect = operator_norm(U.conj().T @ U - np.eye(dim), hermitian=True)
    if defect > sf.UNITARITY_TOL:
        raise RuntimeError(f"flow lost unitarity: {defect:.3e}")
    return U, np.array(grid), np.array(errors)
