"""Concrete model builders.

Three families:

  * generic gapped chains (transverse-field Ising, xy with potential)
    for unique-ground-state experiments,
  * the spin-conserving xy model on rings and tori, unitarily a system
    of hard-core bosons (spin-up = occupied site), together with the
    impurity attachment that enlarges one site by an internal space,
  * Kitaev's toric code on small tori with the window geometry needed
    for topological-order checks.

Builders are pure and return a Model; none of them diagonalizes.  The
spectrum is taken where it is read, through Model.spectral.  The
transverse-field Ising builder declares the global spin flip
P = prod sigma_x, which commutes with -J sum ZZ - h sum X for every J
and h on open and periodic chains, so its dense spectrum is taken in the
two D/2 parity blocks (operators.FlipBlock).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import interactions as itx
from . import lattice
from .exceptions import NotApplicable
from .operators import (
    DENSE_LIMIT,
    LocalOperator,
    SpectralCache,
    compress,
    embed_matrix,
    eigendecompose,
    operator_norm,
    sigma_x,
    sigma_z,
)
from .sectors import HamiltonianPath

# spin-1/2 ladder operators; S_plus maps down to up
S_plus = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
S_minus = S_plus.conj().T
n_up = np.diag([1.0, 0.0]).astype(complex)  # 1/2 + S_z


@dataclass(frozen=True)
class Model:
    """A lattice graph with its interaction family.

    Spectral data is kept in a SpectralCache keyed by the resolved solver
    mode (and, in iterative mode, the eigen-depth k), so every consumer
    of the same mode shares one decomposition.  spin_flip declares that
    H commutes with the global spin flip of its spin-1/2 sites; the dense
    decomposition then comes from the two parity blocks, with the blocks
    kept in the SpectralData and the vectors lifted when first read.  It
    picks a solver route only, so it takes no part in equality.
    """

    graph: lattice.LatticeGraph
    family: itx.InteractionFamily
    kind: str
    params: dict = field(default_factory=dict)
    spin_flip: bool = field(default=False, compare=False)
    _spectra: SpectralCache = field(
        default_factory=SpectralCache, init=False, repr=False, compare=False
    )

    def hamiltonian(self):
        """H as a HamiltonianAction; `.dense()` gives the array."""
        return itx.assemble_hamiltonian(self.family, self.graph)

    def spectral(self, mode="auto", k=6):
        if mode == "auto":
            mode = "dense" if self.graph.dimension() <= DENSE_LIMIT else "iterative"
        return self._spectra.fetch(
            (mode, None if mode == "dense" else k),
            lambda: eigendecompose(
                self.hamiltonian(), mode=mode, k=k, spin_flip=self.spin_flip
            ),
        )


# --------------------------------------------------------- gapped chains


def build_gapped_chain(kind, params):
    """The transverse-field Ising or xy chain; whether it is gapped is
    left to the consumers of its spectrum."""
    if kind == "transverse-field-Ising":
        n = int(params["n"])
        J = float(params.get("J", 1.0))
        h = float(params.get("h", 2.0))
        periodic = bool(params.get("periodic", False))
        G = lattice.chain(n, periodic=periodic)
        terms = [
            LocalOperator((a, b), (2, 2), -J * np.kron(sigma_z, sigma_z), hermitian=True)
            for a, b in G.edges
        ]
        terms += [
            LocalOperator((x,), (2,), -h * sigma_x, hermitian=True) for x in G.sites()
        ]
        return Model(
            G, itx.InteractionFamily(terms), kind, dict(params), spin_flip=True
        )
    if kind == "xy-with-potential":
        n = int(params["n"])
        gamma = float(params["gamma"])
        u = _potential_array(params.get("u", gamma), n, gamma)
        periodic = bool(params.get("periodic", False))
        G = lattice.chain(n, periodic=periodic)
        return Model(G, _xy_family(G, u), kind, dict(params, u=u))
    raise ValueError(f"unknown chain kind {kind!r}")


def _potential_array(u, n, gamma):
    u = np.full(n, float(u)) if np.isscalar(u) else np.asarray(u, dtype=float)
    if u.shape != (n,):
        raise ValueError("potential must be a scalar or one value per site")
    if gamma <= 0 or (u < gamma).any():
        raise ValueError("need u(x) >= gamma > 0 everywhere")
    return u


# ------------------------------------------------------------- xy model


def _xy_family(G, u):
    """Hopping -(S+S- + S-S+) per edge plus (u + deg) n_up per site.

    With the degree term the single-particle block is exactly -Delta + u;
    on periodic volumes deg = 2 nu, the stated form.
    """
    hop = -(np.kron(S_plus, S_minus) + np.kron(S_minus, S_plus))
    terms = [
        LocalOperator((a, b), (G.site_dims[a], G.site_dims[b]), hop, hermitian=True)
        for a, b in G.edges
    ]
    for x in G.sites():
        deg = len(G.neighbors(x))
        terms.append(
            LocalOperator((x,), (2,), (u[x] + deg) * n_up, hermitian=True)
        )
    return itx.InteractionFamily(terms)


@dataclass(frozen=True)
class XYModelSpec:
    L: int
    nu: int = 1
    u: object = None  # scalar or per-site array; defaults to gamma
    gamma: float = 1.0


def build_xy_model(spec: XYModelSpec):
    """Bulk xy model on a ring (nu=1) or torus (nu=2).

    The ground state is the all-down product at energy zero and the gap
    is at least gamma (equal to it for constant potential).  An
    impurity is attached separately via attach_impurity.
    """
    if spec.nu not in (1, 2):
        raise ValueError("nu must be 1 or 2")
    if spec.L < 3:
        raise ValueError("periodic volumes need L >= 3")
    if spec.nu == 1:
        G = lattice.chain(spec.L, periodic=True)
    else:
        G = lattice.torus(spec.L)
    u = _potential_array(spec.u if spec.u is not None else spec.gamma,
                         G.n_sites, spec.gamma)
    return Model(G, _xy_family(G, u), "xy", {"spec": spec, "u": u})


def single_particle_hamiltonian(G, u):
    """-Delta + u on l^2 of the graph (the one-boson block)."""
    u = np.asarray(u, dtype=float)
    n = G.n_sites
    M = np.zeros((n, n))
    for a, b in G.edges:
        M[a, b] = M[b, a] = -1.0
    for x in range(n):
        M[x, x] = len(G.neighbors(x)) + u[x]
    return M


# ------------------------------------------------------------- impurities


def _lift_term(t: LocalOperator, site, dI, G2):
    """The same local term on the enlarged space, identity on I."""
    new_dims = tuple(G2.site_dims[x] for x in t.support)
    if site not in t.support:
        return LocalOperator(t.support, new_dims, t.matrix, hermitian=t.hermitian)
    p = t.support.index(site)
    axes_dims = list(t.dims[: p + 1]) + [dI] + list(t.dims[p + 1 :])
    positions = [i if i <= p else i + 1 for i in range(len(t.dims))]
    M = embed_matrix(t.matrix, positions, axes_dims)
    return LocalOperator(t.support, new_dims, M, hermitian=t.hermitian)


def lift_state(psi, dims, site, phi):
    """psi (on product of dims) tensored with phi on the factor inserted
    directly after site's local space, in the dtype of the two."""
    dims = list(dims)
    psi_r = np.asarray(psi).reshape(dims)
    phi = np.asarray(phi)
    out = np.expand_dims(psi_r, axis=site + 1) * phi.reshape(
        (1,) * (site + 1) + (len(phi),) + (1,) * (len(dims) - site - 1)
    )
    return out.ravel()


def attach_impurity(model: Model, k, impurity_dim, W, mu=None, bulk_degeneracy=1):
    """HamiltonianPath for the model with an internal space I at site k
    and the coupling ramp s W.

    W is the slope, a Hermitian matrix on the enlarged site space.  The
    unperturbed sector basis is the product (bulk eigenvectors) x
    (standard basis of I), so D = bulk_degeneracy * dim(I); it is real
    when the bulk eigenvectors are.
    """
    k, dI = int(k), int(impurity_dim)
    if dI < 1:
        raise ValueError("impurity dimension must be positive")

    G = model.graph
    dims2 = list(G.site_dims)
    dims2[k] *= dI
    G2 = lattice.LatticeGraph(G.n_sites, G.edges, dims2)
    terms = model.family.terms
    if dI > 1:
        terms = [_lift_term(t, k, dI, G2) for t in terms]
    phi2 = itx.InteractionFamily(terms)

    f = int(bulk_degeneracy)
    bulk = model.spectral(k=max(6, f + 5)).vectors[:, :f]
    basis = np.eye(dI)
    B = np.stack(
        [lift_state(v, G.site_dims, k, phi) for v in bulk.T for phi in basis.T],
        axis=1,
    )

    decay = itx.DecayFunctions(G2, mu) if mu is not None else None
    return HamiltonianPath(
        G2,
        phi2,
        W=itx.InteractionFamily([LocalOperator((k,), (dims2[k],), W, hermitian=True)]),
        rule=("fixed_d", B.shape[1]),
        decay=decay,
        initial_basis=B,
    )


# ------------------------------------------------------------ toric code


@dataclass(frozen=True)
class ToricGeometry:
    """Edge-qubit bookkeeping for the L x L vertex torus.

    Horizontal edge (i,j) joins vertices (i,j)-(i,j+1) and gets qubit id
    2(iL+j); vertical edge (i,j) joins (i,j)-(i+1,j) and gets 2(iL+j)+1.
    """

    L: int

    def h_edge(self, i, j):
        L = self.L
        return 2 * ((i % L) * L + (j % L))

    def v_edge(self, i, j):
        L = self.L
        return 2 * ((i % L) * L + (j % L)) + 1

    def star(self, i, j):
        return (
            self.h_edge(i, j), self.h_edge(i, j - 1),
            self.v_edge(i, j), self.v_edge(i - 1, j),
        )

    def plaquette(self, i, j):
        return (
            self.h_edge(i, j), self.h_edge(i + 1, j),
            self.v_edge(i, j), self.v_edge(i, j + 1),
        )

    def qubit_vertices(self, qid):
        L = self.L
        cell, horizontal = divmod(qid, 2)
        i, j = divmod(cell, L)
        if horizontal == 0:
            return ((i, j), (i, (j + 1) % L))
        return ((i, j), ((i + 1) % L, j))

    def in_square(self, qubits, Lstar):
        """True if every listed qubit edge fits one common vertex window
        of side Lstar (Lstar+1 vertices per axis), anywhere on the torus."""
        L = self.L
        Lstar = int(Lstar)
        if Lstar >= L:
            return True
        if Lstar < 1:
            return False

        def fits(qid, a, b):
            cell, horizontal = divmod(qid, 2)
            i, j = divmod(cell, L)
            if horizontal == 0:
                return (i - a) % L <= Lstar and (j - b) % L <= Lstar - 1
            return (i - a) % L <= Lstar - 1 and (j - b) % L <= Lstar

        for a in range(L):
            for b in range(L):
                if all(fits(q, a, b) for q in qubits):
                    return True
        return False

    @property
    def default_Lstar(self):
        return self.L - 1


def build_toric_code(L):
    """Stars and plaquettes on the L x L vertex torus, unit couplings.

    Returns (Model, ToricGeometry).  Supported sizes are desk scale:
    L=2 (256-dim, dense) and L=3 (2^18, iterative).
    """
    if L not in (2, 3):
        raise ValueError("toric code supported for L in {2, 3}")
    geom = ToricGeometry(L)
    n_qubits = 2 * L * L

    # qubit adjacency: edges sharing a vertex
    by_vertex = {}
    for q in range(n_qubits):
        for vtx in geom.qubit_vertices(q):
            by_vertex.setdefault(vtx, []).append(q)
    pairs = set()
    for group in by_vertex.values():
        for a, b in itertools.combinations(sorted(group), 2):
            pairs.add((a, b))
    G = lattice.LatticeGraph(n_qubits, sorted(pairs), 2)

    def pauli_product(qubits, p):
        sup = tuple(sorted(qubits))
        M = np.array([[1.0]], dtype=complex)
        for _ in sup:
            M = np.kron(M, p)
        return LocalOperator(sup, (2,) * len(sup), -M, hermitian=True)

    terms = []
    for i in range(L):
        for j in range(L):
            terms.append(pauli_product(geom.star(i, j), sigma_x))
            terms.append(pauli_product(geom.plaquette(i, j), sigma_z))
    model = Model(G, itx.InteractionFamily(terms), "toric", {"L": L})
    return model, geom


def ground_sector_data(model: Model, k=8, deg_tol=1e-8):
    """(values, ground basis, degeneracy, gap) via dense or iterative
    diagonalization as dictated by size."""
    S = model.spectral(k=k)
    vals = S.values
    degeneracy = int(np.sum(vals < vals[0] + deg_tol))
    if degeneracy >= len(vals):
        raise ValueError("eigen-depth too small to resolve the ground space")
    gap = float(vals[degeneracy] - vals[0])
    return vals, S.vectors[:, :degeneracy], degeneracy, gap


def tqo_check(B, A: LocalOperator, Lstar, geom: ToricGeometry):
    """(z, deviation) for PAP = zP; NotApplicable outside the regime.

    B is an orthonormal basis of the ground space (columns), so P = BB^dag;
    A a local observable whose support must fit an Lstar-window.  Since B
    is an isometry, ||PAP - zP|| = ||B^dag A B - z 1||, and the check runs
    on the deg x deg compression with A applied locally to B's columns:
    z = tr(B^dag A B) / deg, deviation = ||B^dag A B - z 1||.
    """
    if not geom.in_square(A.support, Lstar):
        raise NotApplicable(
            f"support {A.support} does not fit a side-{Lstar} window"
        )
    M = compress(B, A.matrix, A.support, (2,) * (2 * geom.L * geom.L))
    deg = B.shape[1]
    z = complex(np.trace(M) / deg)
    deviation = operator_norm(M - z * np.eye(deg))
    return z, float(deviation)
