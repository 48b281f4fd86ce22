"""Gapped-sector bookkeeping along Hamiltonian paths.

A sector is a group of eigenvalues sigma_in separated from the rest of
the spectrum by a gap g > 0.  Two selection rules are supported: the
lowest-D eigenvalues ("fixed_d", D) and an energy window
("window", lo, hi).  Eigenbases along a path are made comparable by
align_phases, which fixes the residual phase (and, inside degenerate
clusters, basis-mixing) freedom so that consecutive overlap matrices
have positive-definite Hermitian part.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import GapClosed, StepTooLarge
from .interactions import (
    DecayFunctions,
    InteractionFamily,
    assemble_hamiltonian,
    interaction_norm,
    lr_velocity,
)
from .operators import DENSE_LIMIT, SpectralData, eigendecompose

GAP_TOL = 1e-10
CLUSTER_TOL = 1e-9


@dataclass(frozen=True)
class SectorSpectrum:
    """sigma_in with its eigenbasis, plus the gap to sigma_out."""

    values_in: np.ndarray
    values_out: np.ndarray
    basis: np.ndarray  # columns span the sector
    gap: float
    width: float
    warnings: tuple = ()

    def __post_init__(self):
        B = self.basis
        if B.ndim != 2 or B.shape[1] != len(self.values_in):
            raise ValueError("basis must hold one column per sector eigenvalue")
        gram = B.conj().T @ B
        if np.abs(gram - np.eye(B.shape[1])).max() > 1e-10:
            raise ValueError("sector basis is not orthonormal")

    @property
    def dim(self):
        return len(self.values_in)

    @property
    def projector(self):
        return self.basis @ self.basis.conj().T


def split_sector(values, rule, s=None, complete=True):
    """(in_idx, out_idx, gap): the sector `rule` picks from ascending
    eigenvalues, its complement, and the distance between the two.

    complete says whether `values` is the whole spectrum (a window rule
    must not reach past a partial one).  Raises ValueError when the rule
    cannot pick a proper sector from these values, and GapClosed(s, gap)
    when the gap is below GAP_TOL.
    """
    values = np.asarray(values)
    if rule[0] == "fixed_d":
        d = int(rule[1])
        if d < 1:
            raise ValueError("sector dimension must be >= 1")
        if len(values) < d + 1:
            raise ValueError(
                f"need at least {d + 1} eigenpairs to gap a fixed_d={d} sector, "
                f"have {len(values)}"
            )
        in_idx = np.arange(d)
        out_idx = np.arange(d, len(values))
    elif rule[0] == "window":
        lo, hi = float(rule[1]), float(rule[2])
        if not complete and hi >= values[-1]:
            raise ValueError("window reaches beyond the computed part of the spectrum")
        mask = (values >= lo) & (values <= hi)
        if not mask.any():
            raise ValueError(f"no eigenvalues inside window [{lo}, {hi}] at s={s!r}")
        if mask.all():
            raise ValueError(f"window must leave a nonempty sigma_out (s={s!r})")
        in_idx = np.flatnonzero(mask)
        out_idx = np.flatnonzero(~mask)
    else:
        raise ValueError(f"unknown sector rule {rule!r}")
    gap = float(np.abs(values[out_idx][:, None] - values[in_idx][None, :]).min())
    if gap < GAP_TOL:
        raise GapClosed(s, gap)
    return in_idx, out_idx, gap


def identify_sector(S: SpectralData, rule, s=None) -> SectorSpectrum:
    in_idx, out_idx, gap = split_sector(S.values, rule, s=s, complete=S.complete)
    vin, vout = S.values[in_idx], S.values[out_idx]
    warns = ()
    if gap < CLUSTER_TOL:
        warns = ("sector boundary lies inside an eigenvalue cluster",)
    return SectorSpectrum(
        values_in=vin,
        values_out=vout,
        basis=S.vectors[:, in_idx],
        gap=gap,
        width=float(vin.max() - vin.min()),
        warnings=warns,
    )


def _cluster_slices(values, tol=CLUSTER_TOL):
    """Contiguous index groups of (sorted) values closer than tol."""
    edges = [0]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > tol:
            edges.append(i)
    edges.append(len(values))
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def align_phases(prev: SectorSpectrum, next: SectorSpectrum, singular_tol=1e-8):
    """Re-phase (and re-mix degenerate clusters of) the next basis.

    Within each eigenvalue cluster of sigma_in(next) the basis is only
    defined up to a unitary; multiplying by the adjoint of the polar
    factor of the overlap block makes that block Hermitian PSD.
    """
    if prev.dim != next.dim:
        raise ValueError("sector dimensions differ")
    O = prev.basis.conj().T @ next.basis
    # a complex previous basis mixes complex phases into a real next one
    B = next.basis.astype(np.result_type(prev.basis, next.basis))
    for sl in _cluster_slices(next.values_in):
        block = O[sl, sl]
        U, sing, Vh = np.linalg.svd(block)
        if sing.min() < singular_tol:
            raise StepTooLarge(
                f"near-singular overlap within a cluster (min sv {sing.min():.2e})"
            )
        # block @ (V U^H) = U S U^H, Hermitian PSD
        B[:, sl] = B[:, sl] @ (Vh.conj().T @ U.conj().T)
    O_new = prev.basis.conj().T @ B
    herm = (O_new + O_new.conj().T) / 2
    if np.linalg.eigvalsh(herm).min() <= 0:
        raise StepTooLarge("overlap Hermitian part not positive definite")
    return replace(next, basis=B)


def solve_step_coefficients(prev: SectorSpectrum, next: SectorSpectrum):
    """Coefficients c with psi_i(next) = sum_j c_ij P(next) psi_j(prev).

    Solved through the Gram system of the projected vectors
    phi_j = P(next) psi_j(prev).  Returns (c, info); info records the
    row 1-norms against the 2 sqrt(D) bound without enforcing it.
    """
    if prev.dim != next.dim:
        raise ValueError("sector dimensions differ")
    d = prev.dim
    # phi_j in next-basis coordinates is column j of Y
    Y = next.basis.conj().T @ prev.basis
    G = Y.conj().T @ Y
    ev = np.linalg.eigvalsh(G)
    if ev.min() < 1e-12 * max(ev.max(), 1.0):
        raise StepTooLarge(f"Gram matrix of projected vectors is singular ({ev.min():.2e})")
    M = np.linalg.solve(G, Y.conj().T)  # column i = coefficients of psi_i(next)
    c = M.T
    one_norms = np.abs(c).sum(axis=1)
    bound = 2.0 * np.sqrt(d)
    residual = float(np.abs(Y @ M - np.eye(d)).max())
    info = {
        "one_norms": one_norms,
        "bound": bound,
        "violations": int((one_norms > bound).sum()),
        "residual": residual,
    }
    return c, info


class HamiltonianPath:
    """H(s) = sum(Phi) + W(s) on a fixed graph, with sector tracking.

    Spectral data is cached with a small LRU window: transport sweeps
    touch consecutive path points only, and dense eigenvector arrays at
    12+ spins are too large to keep around in bulk.
    """

    def __init__(
        self,
        G,
        phi: InteractionFamily,
        W=None,
        rule=("fixed_d", 1),
        decay: DecayFunctions | None = None,
        initial_basis=None,
        k=None,
        cache_size=3,
    ):
        self.graph = G
        self.phi = phi
        self.W = W
        self.rule = tuple(rule)
        self.decay = decay
        self.initial_basis = None if initial_basis is None else np.asarray(initial_basis)
        self.k = k
        self.dim = int(np.prod(G.site_dims, dtype=np.int64))
        self._cache = OrderedDict()
        self._cache_size = cache_size
        self._constants = None

    @property
    def K(self):
        return () if self.W is None else tuple(sorted(set(self.W.sites)))

    def hamiltonian(self, s, mode="dense"):
        return assemble_hamiltonian(self.phi, self.graph, W=self.W, s=s, mode=mode)

    def _solver_k(self):
        if self.k is not None:
            return self.k
        d = self.rule[1] if self.rule[0] == "fixed_d" else 2
        return min(self.dim - 2, max(6, int(d) + 5))

    def spectral(self, s) -> SpectralData:
        key = float(s)
        if key in self._cache:
            self._cache.move_to_end(key)
            return self._cache[key]
        if self.dim <= DENSE_LIMIT:
            S = eigendecompose(self.hamiltonian(s, mode="dense"), mode="dense")
        else:
            act = self.hamiltonian(s, mode="matvec")
            S = eigendecompose(act, mode="iterative", k=self._solver_k())
        self._cache[key] = S
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return S

    def sector(self, s) -> SectorSpectrum:
        sec = identify_sector(self.spectral(s), self.rule, s=s)
        if self.initial_basis is not None and s == 0.0:
            B = self.initial_basis
            if B.shape != sec.basis.shape:
                raise ValueError("initial basis has the wrong shape")
            # must span the same subspace as the eigenbasis
            P_eig = sec.projector
            mismatch = np.abs(P_eig @ B - B).max()
            if mismatch > 1e-8:
                raise ValueError(
                    f"initial basis does not span the s=0 sector (deviation {mismatch:.2e})"
                )
            sec = replace(sec, basis=B)
        return sec

    def sector_values(self, s):
        """Eigenvalues only (cheap path for gap grids)."""
        if self.dim <= DENSE_LIMIT:
            return np.linalg.eigvalsh(self.hamiltonian(s, mode="dense"))
        act = self.hamiltonian(s, mode="matvec")
        return eigendecompose(act, mode="iterative", k=self._solver_k()).values

    def constants(self):
        """The decay-framework constants attached to this path's graph."""
        if self.decay is None:
            raise ValueError("path has no DecayFunctions attached")
        if self._constants is None:
            dec = self.decay
            prime = interaction_norm(self.phi, dec, drop_single_site=True)
            self._constants = {
                "mu": dec.mu,
                "f_norm": dec.f_norm,
                "f0_norm": dec.f0_norm,
                "c_mu": dec.convolution_constant,
                "phi_prime_norm": prime,
                "v": lr_velocity(self.phi, dec),
            }
        return dict(self._constants)


def verify_gap_along_path(path: HamiltonianPath, n_check=9):
    """(g_min, width_max) over an s-grid; raises GapClosed with the s hit."""
    g_min, width_max = np.inf, 0.0
    for s in np.linspace(0.0, 1.0, n_check):
        values = path.sector_values(s)
        in_idx, _, gap = split_sector(
            values, path.rule, s=s, complete=len(values) == path.dim
        )
        vin = values[in_idx]
        g_min = min(g_min, gap)
        width_max = max(width_max, float(vin.max() - vin.min()))
    return g_min, width_max
