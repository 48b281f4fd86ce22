"""Lattice geometry against hand-rolled BFS/enumeration oracles and
scipy's csgraph shortest paths, the distance rule LatticeGraph replaced."""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from lpplab import lattice


def _bfs_dist(n, edges, src):
    adj = {i: [] for i in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    dist = {src: 0}
    q = deque([src])
    while q:
        x = q.popleft()
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                q.append(y)
    return dist


def _random_graph(rng, n, p):
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                edges.append((a, b))
    # keep it connected by threading a path through all sites
    for a in range(n - 1):
        edges.append((a, a + 1))
    return lattice.LatticeGraph(n, edges), edges


def test_distance_matches_bfs_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(3, 12))
        G, edges = _random_graph(rng, n, 0.25)
        src = int(rng.integers(0, n))
        oracle = _bfs_dist(n, edges, src)
        for y in range(n):
            assert G.distance(src, y) == oracle[y]


def _csgraph_dist(G):
    """All-pairs hop distances by scipy's csgraph, inf where unreachable."""
    rows = [a for a, b in G.edges] + [b for a, b in G.edges]
    cols = [b for a, b in G.edges] + [a for a, b in G.edges]
    adj = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(G.n_sites,) * 2)
    return shortest_path(adj, method="D", unweighted=True)


def _with_impurity(n=6, site=2):
    """An open n-chain with one 3-level impurity site hung off `site`."""
    edges = [(i, i + 1) for i in range(n - 1)] + [(site, n)]
    return lattice.LatticeGraph(n + 1, edges, [2] * n + [3])


def _disconnected():
    """Components {0, 1, 2, 3} (a path), {4, 5} and the lone site 6."""
    return lattice.LatticeGraph(7, [(0, 1), (1, 2), (2, 3), (4, 5)])


@pytest.mark.parametrize(
    "make",
    [
        lambda: lattice.chain(9),
        lambda: lattice.chain(9, periodic=True),
        lambda: lattice.torus(2),
        lambda: lattice.torus(3),
        _with_impurity,
        _disconnected,
    ],
    ids=["chain", "ring", "torus2", "torus3", "impurity", "disconnected"],
)
def test_distance_matrix_matches_csgraph_oracle(make):
    G = make()
    got = G._dist
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, _csgraph_dist(G))


def test_disconnected_graph_distances_are_inf():
    G = _disconnected()
    assert G.distance(0, 3) == 3
    assert G.distance(0, 4) == math.inf
    assert G.distance(5, 6) == math.inf
    assert G.region_distance({0, 1}, {4, 5}) == math.inf
    assert G.region_distance({3, 6}, {4}) == math.inf
    assert G.region_distance({0, 6}, {3, 5}) == 3
    assert G.diameter() == 3  # the largest finite distance
    with pytest.raises(ValueError, match="never joined"):
        lattice.effective_distance(G, {0}, {4}, set())


def test_chain_and_torus_shapes():
    C = lattice.chain(5)
    assert C.distance(0, 4) == 4
    R = lattice.chain(6, periodic=True)
    assert R.distance(0, 5) == 1
    assert R.distance(0, 3) == 3
    T = lattice.torus(3)
    assert T.n_sites == 9
    assert all(len(T.neighbors(x)) == 4 for x in T.sites())
    assert T.distance(0, 4) == 2  # (0,0) -> (1,1)


def test_fatten_matches_definition():
    rng = np.random.default_rng(3)
    G, _ = _random_graph(rng, 10, 0.2)
    X = frozenset({0, 7})
    for l in range(4):
        expect = {
            y for y in G.sites() if min(G.distance(x, y) for x in X) <= l
        }
        assert lattice.fatten(G, X, l) == expect


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 10),
    seed=st.integers(0, 10_000),
    l=st.integers(0, 3),
)
def test_fatten_monotone_and_contains(n, seed, l):
    rng = np.random.default_rng(seed)
    G, _ = _random_graph(rng, n, 0.2)
    X = frozenset({0, n - 1})
    f0 = lattice.fatten(G, X, l)
    f1 = lattice.fatten(G, X, l + 1)
    assert X <= f0 <= f1


def test_phi_boundary_enumeration():
    # regions on a 6-chain: {0,1},{1,2},...,{4,5} plus singletons
    regions = [{i, i + 1} for i in range(5)] + [{i} for i in range(6)]
    X = {2, 3}
    # oracle: direct scan of the definition
    expect = set()
    for Y in regions:
        if Y & X and Y - X:
            expect |= Y & X
    got = lattice.phi_boundary(X, regions)
    assert got == frozenset(expect) == {2, 3}

    # interior site of a large X is not on the boundary
    X2 = {1, 2, 3, 4}
    got2 = lattice.phi_boundary(X2, regions)
    assert got2 == {1, 4}


def test_boundary_of_full_volume_is_empty():
    regions = [{i, i + 1} for i in range(5)]
    assert lattice.phi_boundary(set(range(6)), regions) == frozenset()


def test_effective_distance_chain_midpoint():
    # 21-site chain, X={0}, Y={20}, K={10}: fattenings join at l = 5
    G = lattice.chain(21)
    assert lattice.effective_distance(G, {0}, {20}, {10}) == 5
    # without K the same pair joins at l = 10
    assert lattice.effective_distance(G, {0}, {20}, set()) == 10


def test_effective_distance_adjacent_regions():
    G = lattice.chain(5)
    assert lattice.effective_distance(G, {1}, {2}, {4}) == 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_effective_distance_symmetric_and_bounded(seed):
    rng = np.random.default_rng(seed)
    G, _ = _random_graph(rng, 9, 0.15)
    X, Y, K = frozenset({0}), frozenset({8}), frozenset({4})
    dxy = lattice.effective_distance(G, X, Y, K)
    dyx = lattice.effective_distance(G, Y, X, K)
    assert dxy == dyx
    # adding glue can only help
    assert dxy <= lattice.effective_distance(G, X, Y, set())
    assert lattice.effective_distance(G, X, Y, set()) <= math.ceil(
        G.region_distance(X, Y) / 2
    )


def test_region_checks():
    G = lattice.chain(4)
    with pytest.raises(ValueError):
        lattice.fatten(G, {5}, 1)
    with pytest.raises(ValueError):
        G.check_region({-1})
