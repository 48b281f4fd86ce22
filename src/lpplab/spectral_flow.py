"""Exponentially local spectral flow for impurity couplings.

The xy model with an impurity conserves particle number, so everything
happens inside fixed-number blocks of hard-core configurations on the
bulk sites plus the impurity modes.  Per block the flow is generated by
G = i[P, dP]; truncating G to configurations with all particles near
the coupling region gives a strictly local unitary whose defect against
the true sector projector decays exponentially in the truncation radius.

Every block Hamiltonian is real, so P and dP are real symmetric and
K = [P, dP] is real antisymmetric; the flow runs in real arithmetic:

* Rank-2d generator.  With P = B B^T (B the lowest d eigenvectors) the
  resolvent gives dP = Y B^T + B Y^T, Y = V_out X, X the eigen-sum
  (V_out^T dH B) / (lambda_in - lambda_out).  Then K = B Y^T - Y B^T
  has rank at most 2d, and a step never forms P, dP or K as D x D
  matrices.
* Steps in the span.  With [B, Y] = QR and S = R_B R_Y^T,
  K = Q (S - S^T) Q^T, so the midpoint step exp(i ds G) = exp(-ds K)
  of G = iK is I + Q (E - I) Q^T, where E = exp(-ds (S - S^T)) is the
  at most 2d x 2d orthogonal step from one small `eigh`.  A generator
  truncated at radius l is the same rank-2d form on the configurations
  it keeps, so the step factors B and Y on those rows alone and updates
  only those rows of U; every other row stays bitwise untouched.
* Errors in the sector span.  P(s) = B B^T and U P(0) U^T = C C^T with
  C = U B(0) are both supported on span[B, C], at most 2d columns.  With
  [B, C] = QR the flow error ||P(s) - U P(0) U^T|| is the norm of the
  2d x 2d matrix R J R^T (J = diag(1, -1) on the two halves), exact for
  any U, with no D x D product and no D-dimensional `eigvalsh`.

The flow path uses `numpy.linalg` only.  scipy's bundled OpenBLAS keeps
a thread pool of its own, and on a 2-CPU machine the two pools contend:
a `scipy.linalg.expm` step took about three times as long under default
threads as with one BLAS thread.

Only the truncation depends on the radius, so `integrate_flows` walks
the s-grid once for a list of radii: it diagonalizes each grid point
and forms B and Y once, then truncates, steps and measures the flow
error per radius.  Nothing is kept beyond the current grid point: a
flow returns its endpoint U, the grid and the flow error at each grid
point, and no D x D generator is formed along the way.  A radius whose
error series no caller reads is measured at s = 1 only (`track`), and
a pass that reads no series skips the spectra at the inner grid
points.

Every coupling is a linear ramp, so the one-particle matrix is
M(s) = M0 + s M1 and dH/ds is the block of M1: exact, and assembled once
per block path.  A block whose dH is zero (an uncoupled control) keys
every s to one spectrum, so such a flow takes one block `eigh`.

Blocks with more particles than the impurity can hold carry an empty
sector: P = 0, K = 0, and the flow is exactly the identity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import lattice
from .exceptions import UnitarityLost
from .models import single_particle_hamiltonian
from .operators import SpectralCache, _span_error, operator_norm
from .sectors import split_sector

PROJECTOR_TOL = 1e-8
UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class ImpurityModes:
    """One impurity: n_spins boson modes co-located at a bulk site.

    The hopping amplitude between the anchor site and each mode is
    coupling * s (the term enters H with a minus sign).
    """

    site: int
    n_spins: int
    coupling: float


class BosonSystem:
    """Bulk graph with potential u plus impurity modes.

    Modes 0..n-1 are the bulk sites; impurity modes follow in the order
    the impurities are listed.  The one-particle operator is
    M(s) = M0 + s M1: M0 is -Delta + u on the bulk block
    (models.single_particle_hamiltonian), and the slope M1 hops to the
    impurity modes with amplitude -coupling.
    """

    def __init__(self, graph, u, impurities=()):
        self.graph = graph
        n = graph.n_sites
        u = np.full(n, float(u)) if np.isscalar(u) else np.asarray(u, dtype=float)
        if u.shape != (n,):
            raise ValueError("potential must be a scalar or one value per site")
        self.impurities = tuple(impurities)
        for imp in self.impurities:
            if not (0 <= imp.site < n):
                raise ValueError(f"impurity site {imp.site} not on the graph")
            if imp.n_spins < 1:
                raise ValueError("impurities need at least one mode")
        self.n_modes = n + sum(imp.n_spins for imp in self.impurities)
        mode_site = list(range(n))
        pairs = []
        m = n
        for imp in self.impurities:
            for _ in range(imp.n_spins):
                mode_site.append(imp.site)
                pairs.append((imp.site, m, imp))
                m += 1
        self.mode_site = tuple(mode_site)
        self.impurity_modes = tuple(range(n, self.n_modes))
        self._pairs = tuple(pairs)
        self._M0 = np.zeros((self.n_modes, self.n_modes))
        self._M0[:n, :n] = single_particle_hamiltonian(graph, u)
        self._M1 = np.zeros((self.n_modes, self.n_modes))
        for site, mode, imp in pairs:
            self._M1[site, mode] = self._M1[mode, site] = -float(imp.coupling)

    @property
    def capacity(self):
        return len(self.impurity_modes)

    @property
    def anchor_sites(self):
        return tuple(sorted({imp.site for imp in self.impurities}))

    def single_particle(self, s):
        """M(s) = M0 + s M1."""
        return self._M0 + s * self._M1

    def dsingle_particle(self):
        """dM/ds = M1, exactly (read-only: it is the system's own)."""
        return self._M1

    def block(self, n_particles):
        return SectorBlockHamiltonian(self, n_particles)

    def mode_distance(self, a, b):
        return self.graph.distance(self.mode_site[a], self.mode_site[b])


class SectorBlockHamiltonian:
    """The n-particle block of H(s) over hard-core configurations.

    Configurations are sorted mode tuples in lexicographic order;
    config_distance measures them through the lattice sites of their
    modes.
    """

    def __init__(self, system: BosonSystem, n):
        n = int(n)
        if not (0 <= n <= system.n_modes):
            raise ValueError("particle number out of range")
        self.system = system
        self.n = n
        self.configs = list(itertools.combinations(range(system.n_modes), n))
        self.index = {cfg: i for i, cfg in enumerate(self.configs)}
        self.dim = len(self.configs)
        # static hopping structure: union over s of off-diagonal entries
        struct = [[] for _ in range(system.n_modes)]
        for a, b in system.graph.edges:
            struct[a].append(b)
            struct[b].append(a)
        for site, mode, _ in system._pairs:
            struct[site].append(mode)
            struct[mode].append(site)
        # index arrays: the modes of each configuration, and every hop
        # x -> y taking configuration ci to cj
        self._modes = np.array(self.configs, dtype=np.intp).reshape(self.dim, n)
        hops = []
        for ci, cfg in enumerate(self.configs):
            occ = set(cfg)
            for x in cfg:
                for y in struct[x]:
                    if y not in occ:
                        cj = self.index[tuple(sorted((occ - {x}) | {y}))]
                        hops.append((cj, ci, y, x))
        self._hops = np.array(hops, dtype=np.intp).reshape(-1, 4).T

    def _assemble(self, sp):
        diag = np.zeros(self.dim)
        for col in self._modes.T:
            diag += sp[col, col]
        H = np.diag(diag)
        cj, ci, y, x = self._hops
        np.add.at(H, (cj, ci), sp[y, x])
        return H

    def matrix(self, s):
        return self._assemble(self.system.single_particle(s))

    def dmatrix(self):
        """dH/ds, the block of M1: the same for every s."""
        return self._assemble(self.system.dsingle_particle())


class BlockSectorPath:
    """Sector tracking inside one particle-number block.

    The sector dimension is C(capacity, n): at s=0 exactly the
    configurations with every particle on an impurity mode have zero
    energy, anything else costs at least the bulk gap.  dH/ds is
    assembled once.  Spectra are kept in a SpectralCache keyed by
    float(s), since a flow walks the grid forward; a block whose dH is
    zero has one H for every s, so it keys every s to 0.0.
    """

    def __init__(self, system: BosonSystem, n):
        self.system = system
        self.block = system.block(n)
        self.n = int(n)
        self.d = math.comb(system.capacity, self.n)
        self._cache = SpectralCache()
        self._dH = self.block.dmatrix()

    @property
    def dim(self):
        return self.block.dim

    def dhamiltonian(self, s):
        return self._dH

    def spectral(self, s):
        key = float(s) if self._dH.any() else 0.0
        return self._cache.fetch(key, lambda: np.linalg.eigh(self.block.matrix(key)))


def sector_basis(path, s):
    """Orthonormal columns B with P(s) = B B*: the path's lowest d
    eigenvectors at s (no columns for an empty sector)."""
    if path.d == 0:
        return np.zeros((path.dim, 0))
    _, vecs = path.spectral(s)
    return vecs[:, : path.d]


# ----------------------------------------------------- generator algebra


def kato_generator(P, dP):
    """G = i[P, dP], Hermitian for Hermitian inputs.

    [P, dP] is taken exactly anti-Hermitian.  For an exact projector
    path this satisfies dP = i[G, P], which is what makes the generated
    flow track P(s).
    """
    P, dP = np.asarray(P), np.asarray(dP)
    if operator_norm(P @ P - P, hermitian=True) > PROJECTOR_TOL:
        raise ValueError("P is not a projector")
    C = P @ dP - dP @ P
    return 1j * ((C - C.conj().T) / 2)


def projector_derivative(path, s):
    """dP/ds for the sector projector of a block path.

    The resolvent eigen-sum over (in, out) pairs with the exact dH,
    machine precision from the spectral data.  An empty or full sector
    has dP = 0; any other raises GapClosed through `sectors.split_sector`
    when its gap is closed.
    """
    d = path.d
    dim = path.dim
    if d == 0 or d >= dim:
        return np.zeros((dim, dim))
    B, Y = _resolvent_factor(path, s)
    M = Y @ B.conj().T
    return M + M.conj().T


def _resolvent_factor(path, s):
    """(B, Y) with P(s) = B B* and dP/ds = Y B* + B Y*, for 0 < d < dim.

    B holds the lowest d eigenvectors and Y = V_out X, with X the
    resolvent eigen-sum (V_out* dH B) / (lambda_in - lambda_out), so
    [P, dP] = B Y* - Y B*.  Raises GapClosed through
    `sectors.split_sector` when the gap is closed, and ValueError when
    B B* is not a projector: its nonzero spectrum is that of g = B* B,
    so ||P^2 - P|| = ||g^2 - g||.
    """
    d = path.d
    vals, vecs = path.spectral(s)
    split_sector(vals, ("fixed_d", d), s=s)
    B = vecs[:, :d]
    g = B.conj().T @ B
    if operator_norm(g @ g - g, hermitian=True) > PROJECTOR_TOL:
        raise ValueError("P is not a projector")
    Vout = vecs[:, d:]
    X = (Vout.conj().T @ path.dhamiltonian(s) @ B) / (vals[None, :d] - vals[d:, None])
    return B, Vout @ X


def truncate_generator(G, K, l, block: SectorBlockHamiltonian):
    """Zero every element between configurations with any particle
    outside K_l union the impurity modes, then re-Hermitize.

    Configurations that are only partially inside are dropped entirely;
    the resulting generator is supported in K_l plus the impurity.
    """
    keep = _window_keep(K, l, block)
    Gl = np.where(np.outer(keep, keep), G, 0.0)
    return (Gl + Gl.conj().T) / 2


def _window_keep(K, l, block):
    """Boolean vector of the configurations truncate_generator keeps."""
    system = block.system
    allowed_sites = lattice.fatten(system.graph, set(K), l)
    imp = set(system.impurity_modes)
    keep = np.array(
        [
            all(m in imp or system.mode_site[m] in allowed_sites for m in cfg)
            for cfg in block.configs
        ]
    )
    return keep


def _orthogonal_step(K, ds):
    """exp(-ds K) for anti-Hermitian K: the step exp(i ds G) of G = iK.

    K* K = -K^2 = X is positive semidefinite and commutes with K, so the
    even and odd halves of the series are cos(ds sqrt X) and
    -[sin(ds sqrt X) / sqrt X] K.  Both are smooth functions of X itself,
    so one `eigh` of X gives them at full accuracy; for real K the step
    is real orthogonal.  K = 0 gives exactly the identity.
    """
    if not K.any():
        return np.eye(len(K))
    w, V = np.linalg.eigh(K.conj().T @ K)
    theta = np.sqrt(np.clip(w, 0.0, None))
    sinc = np.divide(
        np.sin(ds * theta), theta, out=np.full_like(theta, ds), where=theta > 0
    )
    Vt = V.conj().T
    return (V * np.cos(ds * theta)) @ Vt - ((V * sinc) @ Vt) @ K


def _span_step(B, Y, ds):
    """(Q, E - I) with exp(-ds K) = I + Q (E - I) Q* for K = B Y* - Y B*.

    K lives on span[B, Y]: with [B, Y] = QR and S = R_B R_Y*,
    K = Q (S - S*) Q*, and Q* Q = I, so the step needs only
    E = exp(-ds (S - S*)), at most 2d x 2d.  Q has fewer than 2d columns
    when B and Y have fewer than 2d rows.
    """
    d = B.shape[1]
    Q, R = np.linalg.qr(np.hstack([B, Y]))
    S = R[:, :d] @ R[:, d:].conj().T
    return Q, _orthogonal_step(S - S.conj().T, ds) - np.eye(len(S))


def integrate_flow(path, l, ds, K=None):
    """Drive -i dU/ds = G_l(s) U by exponential midpoint steps.

    Returns (U at s=1, grid, flow errors ||P(s) - U P(0) U*|| on the
    grid).  ds is rounded so that 1/ds steps fill [0, 1].  l=None
    integrates the untruncated flow; otherwise K defaults to the
    impurity anchor sites.
    """
    return integrate_flows(path, [l], ds, K=K)[0]


def integrate_flows(path, ls, ds, K=None, track=None):
    """integrate_flow for every radius in `ls`, in one pass over the grid.

    Returns one (U, grid, errors) per radius, in the order of `ls`,
    each what integrate_flow gives for that radius alone.  The resolvent
    factors B and Y of K = [P, dP] = B Y* - Y B* are formed once per
    grid point and shared by the radii; only the kept rows, the rank-2d
    step on them and the span-sized error are per radius.

    `track` lists the radii whose flow error the caller reads at every
    grid point; by default every radius is tracked.  An untracked
    radius gets its error at s = 1 only, as a one-entry errors array.
    A pass that tracks no radius takes the spectrum only at s = 0, at
    the midpoints and at s = 1.  U and the tracked errors do not depend
    on `track`.  Raises UnitarityLost, with the radius and the defect,
    when a flow ends further than UNITARITY_TOL from unitary.
    """
    ls = list(ls)
    tracked = [track is None or l in track for l in ls]
    if K is None and any(l is not None for l in ls):
        system = getattr(path, "system", None)
        if system is None:
            raise ValueError("truncated flow needs the coupling region K")
        K = system.anchor_sites
    rows = [slice(None) if l is None else _window_keep(K, l, path.block) for l in ls]

    n_steps = max(1, int(round(1.0 / ds)))
    ds = 1.0 / n_steps
    dim = path.dim
    moving = 0 < path.d < dim  # an empty or full sector never moves
    B0 = sector_basis(path, 0.0)
    Us = [np.eye(dim) for _ in ls]
    grid = [0.0]
    errors = [[0.0] if t else [] for t in tracked]
    for j in range(n_steps):
        smid = (j + 0.5) * ds
        B, Y = _resolvent_factor(path, smid) if moving else (None, None)
        last = j == n_steps - 1
        # (j + 1) * ds can fall a rounding step short of 1 at the end
        s1 = 1.0 if last else (j + 1) * ds
        B1 = sector_basis(path, s1) if last or any(tracked) else None
        for i, r in enumerate(rows):
            if moving and Y[r].any():
                Q, F = _span_step(B[r], Y[r], ds)
                Us[i] = Us[i].astype(np.result_type(Us[i], Q), copy=False)
                Us[i][r] += Q @ (F @ (Q.conj().T @ Us[i][r]))
            if last or tracked[i]:
                errors[i].append(_span_error(B1, Us[i] @ B0))
        grid.append(s1)
    grid = np.array(grid)
    out = []
    for l, U, errs in zip(ls, Us, errors):
        defect = operator_norm(U.conj().T @ U - np.eye(dim), hermitian=True)
        if defect > UNITARITY_TOL:
            raise UnitarityLost(l, defect)
        out.append((U, grid.copy(), np.array(errs)))
    return out


# ------------------------------------------------------- Combes-Thomas


def config_distance(block: SectorBlockHamiltonian, a, b):
    """Max particle displacement under the best matching of a onto b."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ValueError("configurations carry different particle numbers")
    n = len(a)
    if n == 0:
        return 0
    if n > 6:
        raise ValueError("configuration distance only implemented for n <= 6")
    system = block.system
    best = None
    for perm in itertools.permutations(b):
        worst = max(system.mode_distance(x, y) for x, y in zip(a, perm))
        if best is None or worst < best:
            best = worst
            if best == 0:
                break
    return int(best)


def combes_thomas_profile(block: SectorBlockHamiltonian, z, x0, s=0.0):
    """Resolvent column magnitudes grouped by configuration distance.

    Returns the profile: a sorted list of rows (distance,
    max |<x|(H-z)^{-1}|x0>|).  profile_rate fits its decay rate.
    """
    H = block.matrix(s)
    vals = np.linalg.eigvalsh(H)
    z = complex(z)
    if np.abs(vals - z).min() < 1e-8:
        raise ValueError("z is within 1e-8 of the block spectrum")
    x0 = tuple(sorted(x0))
    if x0 not in block.index:
        raise ValueError(f"reference configuration {x0} not in the block")
    e = np.zeros(block.dim, dtype=complex)
    e[block.index[x0]] = 1.0
    col = np.linalg.solve(H - z * np.eye(block.dim), e)

    grouped = {}
    for ci, cfg in enumerate(block.configs):
        dist = config_distance(block, cfg, x0)
        mag = abs(col[ci])
        if dist not in grouped or mag > grouped[dist]:
            grouped[dist] = mag
    return sorted(grouped.items())


def profile_rate(profile, d_max=None):
    """Exponential decay rate of a Combes-Thomas profile: minus the slope
    of a least-squares line through log(value) over the distances 1 to
    d_max (all positive distances when None) with a positive value; None
    with fewer than two such points."""
    pts = [
        (d, v)
        for d, v in profile
        if d >= 1 and v > 0 and (d_max is None or d <= d_max)
    ]
    if len(pts) < 2:
        return None
    ds_ = np.array([d for d, _ in pts], dtype=float)
    ys = np.log([v for _, v in pts])
    return float(-np.polyfit(ds_, ys, 1)[0])
