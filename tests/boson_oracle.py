"""Spin and hard-core boson pictures of the xy model, for checking it.

  S1, S2, S3                  the spin-1/2 operators, eigenvalues +-1/2;
  vacuum_state                the all-down product state (no bosons);
  MMCorrespondence            the Matsubara-Matsueda relabeling between
                              spin basis states and boson configurations;
  coupling_preset             named spin-conserving impurity couplings;
  number_operator             the dense total particle number;
  number_conservation_defect  ||[H, N]|| for a dense H.

lpplab works in the spin basis throughout; these give the boson picture
that its xy Hamiltonians and impurity couplings are checked against.
"""

import itertools

import numpy as np
from embed_oracle import commutator_norm

from lpplab.models import S_minus, S_plus, n_up
from lpplab.operators import embed_matrix, sigma_x, sigma_y, sigma_z

S1 = sigma_x / 2
S2 = sigma_y / 2
S3 = sigma_z / 2


def vacuum_state(G):
    """All-down product state (the boson vacuum)."""
    psi = np.zeros(G.dimension(), dtype=complex)
    psi[-1] = 1.0  # all sites in their last local basis state
    return psi


class MMCorrespondence:
    """Relabeling between spin basis states and hard-core boson
    configurations: spin-up (first local basis state) = occupied.

    Configurations are ordered by particle number, then lexicographically
    by the occupied-site tuple; the map is a basis permutation, hence
    unitary, and supports are preserved site by site.
    """

    def __init__(self, G):
        if any(d != 2 for d in G.site_dims):
            raise ValueError("the correspondence is defined for spin-1/2 sites")
        self.graph = G
        n = G.n_sites
        self.configs = []
        self.block_slices = {}
        start = 0
        for npart in range(n + 1):
            combos = list(itertools.combinations(range(n), npart))
            self.configs.extend(combos)
            self.block_slices[npart] = slice(start, start + len(combos))
            start += len(combos)
        self.perm = np.array([self.spin_index(c) for c in self.configs])

    def spin_index(self, config):
        # occupied site x contributes bit 0 at position x (site 0 slowest)
        n = self.graph.n_sites
        j = 0
        occ = set(config)
        for x in range(n):
            j = 2 * j + (0 if x in occ else 1)
        return j

    def config(self, spin_index):
        n = self.graph.n_sites
        return tuple(
            x for x in range(n) if not (spin_index >> (n - 1 - x)) & 1
        )

    def to_boson(self, obj):
        obj = np.asarray(obj)
        if obj.ndim == 1:
            return obj[self.perm]
        return obj[np.ix_(self.perm, self.perm)]

    def to_spin(self, obj):
        inv = np.argsort(self.perm)
        obj = np.asarray(obj)
        if obj.ndim == 1:
            return obj[inv]
        return obj[np.ix_(inv, inv)]


def coupling_preset(name, theta, n_spins=1):
    """Slopes W of named spin-conserving coupling ramps s W on H_k x I,
    I = (C^2)^(n_spins).

    "hopping-ramp": -theta sum_a (S+_k S-_a + S-_k S+_a)
    "exchange-ramp": theta sum_a (S1 S1 + S2 S2 + S3 S3) between k and a
    """
    dims = [2] * (n_spins + 1)  # site factor first, impurity spins after

    def pair(A, B, a):
        # A on the k factor (axis 0), B on impurity spin a (axis a+1)
        M = embed_matrix(np.kron(A, B), (0, a + 1), dims)
        return M

    static = np.zeros((2 ** (n_spins + 1),) * 2, dtype=complex)
    for a in range(n_spins):
        if name == "hopping-ramp":
            static += -theta * (pair(S_plus, S_minus, a) + pair(S_minus, S_plus, a))
        elif name == "exchange-ramp":
            static += theta * (
                pair(S1, S1, a) + pair(S2, S2, a) + pair(S3, S3, a)
            )
        else:
            raise ValueError(f"unknown coupling preset {name!r}")
    return static


def number_operator(G, impurity_spins=None):
    """Dense total particle number on a (possibly enlarged) volume.

    impurity_spins maps a site to its count of internal spin factors;
    such a site has local dimension 2^(count+1) and contributes the sum
    of occupations over all its factors.
    """
    impurity_spins = dict(impurity_spins or {})
    dim = G.dimension()
    total = np.zeros((dim, dim), dtype=complex)
    for x in G.sites():
        d = G.site_dims[x]
        if x in impurity_spins:
            nf = impurity_spins[x] + 1
            if 2**nf != d:
                raise ValueError(f"site {x} dimension {d} does not hold {nf} spins")
            local_dims = [2] * nf
            loc = sum(embed_matrix(n_up, (a,), local_dims) for a in range(nf))
        else:
            if d != 2:
                raise ValueError(f"site {x} is not a spin-1/2 site")
            loc = n_up
        total += embed_matrix(loc, (x,), G.site_dims)
    return total


def number_conservation_defect(H, G, impurity_spins=None):
    """||[H, N]|| for a dense Hamiltonian on G."""
    return commutator_norm(H, number_operator(G, impurity_spins))
