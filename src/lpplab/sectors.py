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

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import GapClosed, StepTooLarge
from .interactions import (
    DecayFunctions,
    InteractionFamily,
    assemble_hamiltonian,
    decay_constants,
)
from .operators import (
    DENSE_LIMIT,
    HamiltonianAction,
    SpectralCache,
    SpectralData,
    eigendecompose,
)

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


def _cluster_slices(values):
    """Contiguous index groups of (sorted) values closer than CLUSTER_TOL."""
    edges = [0]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > CLUSTER_TOL:
            edges.append(i)
    edges.append(len(values))
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def align_phases(prev: SectorSpectrum, next: SectorSpectrum):
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
        if sing.min() < 1e-8:
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
    """H(s) = sum(Phi) + s W on a fixed graph, with sector tracking.

    Phi and the slope W are InteractionFamily instances (no W: a
    constant path), each assembled once as CSR, so H(s) = H_Phi + s V
    with V = sum(W); s = 0 gives H_Phi itself, in its own dtype.  K is
    the union of W's supports.  Spectral data is kept in a SpectralCache
    keyed by float(s): transport sweeps touch consecutive path points
    only.  A path whose V is zero has one H for every s, so it keys
    every s to 0.0 and takes one spectrum.  The path holds V for its
    lifetime but never H(s): a long-lived CSR matrix made between D x D
    temporaries can pin them in the heap (about +8 MB of peak memory at
    D = 1024), so V is made in __init__, before any spectrum.
    """

    def __init__(
        self,
        G,
        phi: InteractionFamily,
        W: InteractionFamily | None = None,
        rule=("fixed_d", 1),
        decay: DecayFunctions | None = None,
        initial_basis=None,
    ):
        self.graph = G
        self.phi = phi
        self.W = InteractionFamily([]) if W is None else W
        self.rule = tuple(rule)
        self.decay = decay
        self.initial_basis = None if initial_basis is None else np.asarray(initial_basis)
        self.dim = int(np.prod(G.site_dims, dtype=np.int64))
        self._cache = SpectralCache()
        self._H_phi = assemble_hamiltonian(phi, G)
        V = assemble_hamiltonian(self.W, G)
        self._V = V if V.data.any() else None

    @property
    def K(self):
        return tuple(sorted(set().union(*self.W.regions())))

    def hamiltonian(self, s):
        """H(s) as a HamiltonianAction (CSR); `.dense()` gives the array."""
        if self._V is None or s == 0:
            return self._H_phi
        return HamiltonianAction(self._H_phi + float(s) * self._V)

    def spectral(self, s) -> SpectralData:
        # ARPACK pairs for the iterative mode: the sector plus a margin
        d = self.rule[1] if self.rule[0] == "fixed_d" else 2
        k = min(self.dim - 2, max(6, int(d) + 5))
        key = 0.0 if self._V is None else float(s)
        return self._cache.fetch(key, lambda: eigendecompose(self.hamiltonian(key), k=k))

    def sector(self, s) -> SectorSpectrum:
        sec = identify_sector(self.spectral(s), self.rule, s=s)
        if self.initial_basis is not None and s == 0.0:
            B = self.initial_basis
            if B.shape != sec.basis.shape:
                raise ValueError("initial basis has the wrong shape")
            # must span the same subspace as the eigenbasis: P B = B,
            # with P = V V^dagger applied in its rank-d form
            V = sec.basis
            mismatch = np.abs(V @ (V.conj().T @ B) - B).max()
            if mismatch > 1e-8:
                raise ValueError(
                    f"initial basis does not span the s=0 sector (deviation {mismatch:.2e})"
                )
            sec = replace(sec, basis=B)
        return sec

    def sector_values(self, s):
        """Eigenvalues for gap grids.

        A dense path that moves takes them from `eigvalsh` alone, outside
        the cache: a gap grid runs before any eigenpairs exist at its
        points.  A constant path reads its one cached spectrum, and above
        DENSE_LIMIT they are the cached iterative spectrum's values.
        """
        if self._V is not None and self.dim <= DENSE_LIMIT:
            return np.linalg.eigvalsh(self.hamiltonian(s).dense())
        return self.spectral(s).values

    def constants(self):
        """The decay-framework constants of Phi on this path's graph."""
        if self.decay is None:
            raise ValueError("path has no DecayFunctions attached")
        return decay_constants(self.phi, self.decay)


def _sector_gap(path: HamiltonianPath, s):
    """(sigma_in, gap) at s from the path's gap-grid eigenvalues; raises
    GapClosed with s when the gap is closed."""
    values = path.sector_values(s)
    in_idx, _, gap = split_sector(
        values, path.rule, s=s, complete=len(values) == path.dim
    )
    return values[in_idx], gap


def verify_gap_along_path(path: HamiltonianPath, n_check=9):
    """(g_min, width_max) over an s-grid; raises GapClosed with the s hit."""
    g_min, width_max = np.inf, 0.0
    for s in np.linspace(0.0, 1.0, n_check):
        vin, gap = _sector_gap(path, s)
        g_min = min(g_min, gap)
        width_max = max(width_max, float(vin.max() - vin.min()))
    return g_min, width_max
