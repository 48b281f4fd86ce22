"""Interaction families, decay functions, and the locality constants.

The decay framework: F_mu(d) = exp(-mu d) F0(d) with a reproducing base
F0 (default (1+d)^-(nu+1)).  On a fixed finite graph the relevant constants
are plain maxima over sites:

    ||F_0||   = max_x sum_y F_0(d(x,y))
    C_mu      = max_{x,y} sum_z F_mu(d(x,z)) F_mu(d(z,y)) / F_mu(d(x,y))
    ||Phi||_mu = max_{x,y} sum_{X ni x,y} ||Phi(X)|| / F_mu(d(x,y))

The primed interaction norm drops single-site terms; it feeds the group
velocity v = 2 ||Phi||'_mu C_mu / mu and the locality length
xi = 1/mu + 2 v / g.

A perturbation is an InteractionFamily too: the slope W of the linear
path H(s) = sum(Phi) + s W (sectors.HamiltonianPath), each assembled
once by assemble_hamiltonian.
"""

from __future__ import annotations

import numpy as np

from . import lattice
from .kernels import embed_sparse
from .operators import HamiltonianAction, LocalOperator, operator_norm


class DecayFunctions:
    """F_mu on a fixed graph, with the derived constants cached."""

    def __init__(self, G, mu, nu=1, f0=None):
        if mu < 0:
            raise ValueError("mu must be nonnegative")
        self.graph = G
        self.mu = float(mu)
        self.nu = int(nu)
        self._f0 = f0 if f0 is not None else (lambda d: (1.0 + d) ** (-(self.nu + 1)))
        if self._f0(0) <= 0:
            raise ValueError("F0 must be positive at distance 0")
        dist = G._dist
        if not np.isfinite(dist).all():
            raise ValueError("decay constants need a connected graph")
        self._F = self.f(dist)
        self._F0 = self.f0(dist)

    def f0(self, d):
        return self._f0(np.asarray(d, dtype=float))

    def f(self, d):
        d = np.asarray(d, dtype=float)
        return np.exp(-self.mu * d) * self._f0(d)

    @property
    def f0_norm(self):
        """||F_0|| on this graph (enters the Lieb-Robinson prefactor)."""
        return float(self._F0.sum(axis=1).max())

    @property
    def convolution_constant(self):
        """C_mu on this graph."""
        conv = self._F @ self._F
        return float((conv / self._F).max())


class InteractionFamily:
    """A finite collection of local terms keyed by their support."""

    def __init__(self, terms):
        self.terms = []
        for t in terms:
            if not isinstance(t, LocalOperator):
                raise TypeError("terms must be LocalOperator instances")
            self.terms.append(t)
        self._norms = [operator_norm(t.matrix, hermitian=t.hermitian) for t in self.terms]

    def regions(self):
        return [frozenset(t.support) for t in self.terms]

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)


def interaction_norm(phi: InteractionFamily, decay: DecayFunctions, drop_single_site=False):
    """||Phi||_mu (or the primed variant excluding single-site terms)."""
    G = decay.graph
    n = G.n_sites
    acc = np.zeros((n, n))
    for t, nrm in zip(phi.terms, phi._norms):
        if drop_single_site and len(t.support) < 2:
            continue
        for a in t.support:
            for b in t.support:
                acc[a, b] += nrm
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = acc / decay._F
    return float(ratio.max()) if acc.any() else 0.0


def lr_velocity(phi, decay):
    """v = 2 ||Phi||'_mu C_mu / mu."""
    if decay.mu == 0:
        raise ValueError("velocity needs mu > 0")
    prime = interaction_norm(phi, decay, drop_single_site=True)
    return 2.0 * prime * decay.convolution_constant / decay.mu


def decay_constants(phi, decay):
    """mu, C_mu, ||Phi||'_mu and v: the constants the filter parameters
    and every decay record are built from."""
    return {
        "mu": decay.mu,
        "c_mu": decay.convolution_constant,
        "phi_prime_norm": interaction_norm(phi, decay, drop_single_site=True),
        "v": lr_velocity(phi, decay),
    }


def xi(mu, v, g):
    """Locality length 1/mu + 2 v / g."""
    if mu <= 0 or g <= 0 or v < 0:
        raise ValueError("need mu > 0, g > 0, v >= 0")
    return 1.0 / mu + 2.0 * v / g


def lr_bound_rhs(A: LocalOperator, B: LocalOperator, t, phi, decay):
    """Right-hand side of the commutator bound for disjointly supported A, B:

        (2 ||F_0|| / C_mu) ||A|| ||B|| min(|bd X|, |bd Y|)
            * exp(-mu (d(X,Y) - v |t|))
    """
    G = decay.graph
    X = G.check_region(A.support)
    Y = G.check_region(B.support)
    d = G.region_distance(X, Y)
    if d == 0:
        raise ValueError("supports must be disjoint, at hop distance >= 1")
    regions = phi.regions()
    bx = len(lattice.phi_boundary(X, regions))
    by = len(lattice.phi_boundary(Y, regions))
    v = lr_velocity(phi, decay)
    pref = 2.0 * decay.f0_norm / decay.convolution_constant
    return pref * A.norm() * B.norm() * min(bx, by) * np.exp(-decay.mu * (d - v * abs(t)))


def assemble_hamiltonian(phi: InteractionFamily, G):
    """sum(Phi) as a HamiltonianAction (CSR); `.dense()` gives the array.

    The terms are embedded and added in order; the sum is float64 unless
    a term has an imaginary part.
    """
    H = HamiltonianAction((G.dimension(),) * 2)
    for t in phi.terms:
        H = H + embed_sparse(t.matrix, t.support, G.site_dims)
    return HamiltonianAction(H)
