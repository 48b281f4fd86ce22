"""Finite lattice graphs, regions, and the effective metric.

Sites are integers 0..n-1, each carrying the dimension of its local Hilbert
space.  All geometry is the hop (shortest-path) metric of the undirected
graph.  Regions are plain frozensets of sites.
"""

from __future__ import annotations

import math

import numpy as np


class LatticeGraph:
    """Undirected graph with per-site Hilbert-space dimensions.

    Distances are precomputed once, by a breadth-first search from every
    site over the adjacency sets; the matrix is float64 and unreachable
    pairs have distance inf.
    """

    def __init__(self, n_sites, edges, site_dims=2):
        n_sites = int(n_sites)
        if n_sites <= 0:
            raise ValueError("need at least one site")
        seen = set()
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise ValueError(f"self-loop at site {a}")
            if not (0 <= a < n_sites and 0 <= b < n_sites):
                raise ValueError(f"edge ({a},{b}) out of range")
            seen.add((min(a, b), max(a, b)))
        self.n_sites = n_sites
        self.edges = tuple(sorted(seen))
        if np.isscalar(site_dims):
            self.site_dims = (int(site_dims),) * n_sites
        else:
            self.site_dims = tuple(int(d) for d in site_dims)
            if len(self.site_dims) != n_sites:
                raise ValueError("site_dims length mismatch")
        if any(d < 1 for d in self.site_dims):
            raise ValueError("site dimensions must be positive")

        self._adj = {x: set() for x in range(n_sites)}
        for a, b in self.edges:
            self._adj[a].add(b)
            self._adj[b].add(a)
        rows = []
        for src in range(n_sites):
            row = [math.inf] * n_sites
            row[src], frontier, d = 0, [src], 0
            while frontier:
                d += 1
                nxt = []
                for x in frontier:
                    for y in self._adj[x]:
                        if row[y] == math.inf:
                            row[y] = d
                            nxt.append(y)
                frontier = nxt
            rows.append(row)
        self._dist = np.array(rows, dtype=float)

    def sites(self):
        return range(self.n_sites)

    def neighbors(self, x):
        return frozenset(self._adj[int(x)])

    def distance(self, x, y):
        d = self._dist[int(x), int(y)]
        return math.inf if np.isinf(d) else int(d)

    def region_distance(self, X, Y):
        """Minimum hop distance over pairs; 0 if the regions intersect."""
        X, Y = self.check_region(X), self.check_region(Y)
        sub = self._dist[np.ix_(sorted(X), sorted(Y))]
        d = sub.min()
        return math.inf if np.isinf(d) else int(d)

    def diameter(self):
        finite = self._dist[np.isfinite(self._dist)]
        return int(finite.max())

    def dimension(self, X=None):
        """Total Hilbert-space dimension of region X (default: everything)."""
        sites = self.sites() if X is None else sorted(self.check_region(X))
        return int(np.prod([self.site_dims[x] for x in sites], dtype=np.int64))

    def check_region(self, X):
        X = frozenset(int(x) for x in X)
        if not all(0 <= x < self.n_sites for x in X):
            raise ValueError("region contains sites outside the graph")
        return X


def chain(n, periodic=False, site_dim=2):
    edges = [(i, i + 1) for i in range(n - 1)]
    if periodic and n > 2:
        edges.append((n - 1, 0))
    return LatticeGraph(n, edges, site_dim)


def torus(L, site_dim=2):
    """L x L square lattice with periodic boundaries (nu = 2)."""
    if L < 2:
        raise ValueError("torus needs L >= 2")

    def vid(i, j):
        return (i % L) * L + (j % L)

    edges = []
    for i in range(L):
        for j in range(L):
            edges.append((vid(i, j), vid(i + 1, j)))
            edges.append((vid(i, j), vid(i, j + 1)))
    return LatticeGraph(L * L, edges, site_dim)


def fatten(G, X, l):
    """All sites within hop distance l of region X."""
    X = G.check_region(X)
    if not X:
        raise ValueError("cannot fatten an empty region")
    l = int(l)
    if l < 0:
        raise ValueError("l must be nonnegative")
    cols = sorted(X)
    dmin = G._dist[:, cols].min(axis=1)
    return frozenset(np.flatnonzero(dmin <= l).tolist())


def phi_boundary(X, regions):
    """Sites of X that some interaction region couples to the complement.

    `regions` is any iterable of site-sets with nonvanishing interaction.
    """
    X = frozenset(X)
    out = set()
    for Y in regions:
        Y = set(Y)
        if Y & X and Y - X:
            out |= Y & X
    return frozenset(out)


def effective_distance(G, X, Y, K):
    """Smallest l such that X_l | Y_l | K_l has one connected component
    containing all of X and Y.  K may be empty."""
    X, Y = G.check_region(X), G.check_region(Y)
    K = G.check_region(K) if K else frozenset()
    if not X or not Y:
        raise ValueError("X and Y must be nonempty")
    target = X | Y
    for l in range(G.diameter() + 1):
        U = fatten(G, X, l) | fatten(G, Y, l)
        if K:
            U |= fatten(G, K, l)
        if _one_component_contains(G, U, target):
            return l
    raise ValueError("X and Y are never joined; graph may be disconnected")


def _one_component_contains(G, U, target):
    if not target <= U:
        return False
    seed = next(iter(target))
    seen = {seed}
    stack = [seed]
    while stack:
        x = stack.pop()
        for y in G._adj[x]:
            if y in U and y not in seen:
                seen.add(y)
                stack.append(y)
    return target <= seen
