"""Shared graph builders for the test suite."""

from __future__ import annotations

import itertools

from kintegration import CommunityGraph, build_graph


def islands(r: int, n: int, bridge_edges=()) -> CommunityGraph:
    """r complete communities of n nodes plus the given bridges.

    Node u belongs to community u // n, so ids line up with the layout
    the oracle and the constructions use.
    """
    communities = {u: u // n for u in range(r * n)}
    edges = [
        pair
        for c in range(r)
        for pair in itertools.combinations(range(c * n, (c + 1) * n), 2)
    ]
    edges.extend(bridge_edges)
    return build_graph(edges, communities)


def islands_of_sizes(sizes, bridge_edges=()) -> CommunityGraph:
    """Like islands() but with per-community sizes."""
    communities = {}
    start = 0
    edges = []
    for c, size in enumerate(sizes):
        members = range(start, start + size)
        communities.update({u: c for u in members})
        edges.extend(itertools.combinations(members, 2))
        start += size
    edges.extend(bridge_edges)
    return build_graph(edges, communities)


def remove_edge(g: CommunityGraph, u: int, v: int) -> CommunityGraph:
    adjacency = [list(nb) for nb in g.adjacency]
    adjacency[u].remove(v)
    adjacency[v].remove(u)
    return g.replace(adjacency=tuple(map(tuple, adjacency)))


def add_edge(g: CommunityGraph, u: int, v: int) -> CommunityGraph:
    adjacency = [list(nb) for nb in g.adjacency]
    adjacency[u] = sorted(adjacency[u] + [v])
    adjacency[v] = sorted(adjacency[v] + [u])
    return g.replace(adjacency=tuple(map(tuple, adjacency)))


def random_community_graph(rng, max_nodes: int, connected: bool = True) -> CommunityGraph:
    """Random graph with random community labels, connected on request."""
    n = rng.randint(2, max_nodes)
    r = rng.randint(1, min(6, n))
    labels = list(range(r)) + [rng.randrange(r) for _ in range(n - r)]
    rng.shuffle(labels)
    communities = {u: labels[u] for u in range(n)}
    edge_set = set()
    if connected:
        order = list(range(n))
        rng.shuffle(order)
        for i in range(1, n):
            a, b = order[i], order[rng.randrange(i)]
            edge_set.add((min(a, b), max(a, b)))
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.sample(range(n), 2)
        edge_set.add((min(a, b), max(a, b)))
    return build_graph(sorted(edge_set), communities)


def id_edges(g: CommunityGraph):
    """Edges as internal-id pairs, the form the naive oracle consumes."""
    return list(g.edges)
