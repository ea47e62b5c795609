"""Independent reference implementations used to cross-check the package.

Everything here is deliberately dumb and slow: distances come from
Bellman-Ford style iterative relaxation (no BFS), and minimum bridge
counts come from full subset enumeration with no symmetry reduction.
Expected values frozen in the test files were produced by these
routines; the package must agree with them by construction, never the
other way around.
"""

from __future__ import annotations

import itertools
import math
import random

INF = float("inf")


def relaxation_distances(node_count, edges):
    """All-pairs shortest paths by iterated edge relaxation.

    Returns a node_count x node_count matrix; unreachable entries are None.
    """
    dist = [[INF] * node_count for _ in range(node_count)]
    for u in range(node_count):
        dist[u][u] = 0
    changed = True
    while changed:
        changed = False
        for s in range(node_count):
            row = dist[s]
            for u, v in edges:
                if row[u] + 1 < row[v]:
                    row[v] = row[u] + 1
                    changed = True
                if row[v] + 1 < row[u]:
                    row[u] = row[v] + 1
                    changed = True
    return [[d if d != INF else None for d in row] for row in dist]


def diameter(node_count, edges):
    """Exact diameter, or None when the graph is disconnected."""
    if node_count == 0:
        return None
    dist = relaxation_distances(node_count, edges)
    worst = 0
    for row in dist:
        for d in row:
            if d is None:
                return None
            worst = max(worst, d)
    return worst


def reach_profile(node_count, edges, ks):
    """Per k, how many nodes lie within distance k of each node, itself included."""
    dist = relaxation_distances(node_count, edges)
    return {k: tuple(sum(1 for d in row if d is not None and d <= k) for row in dist) for k in ks}


def is_k_integrated(node_count, edges, k):
    d = diameter(node_count, edges)
    return d is not None and d <= k


def violation_witness(node_count, edges, k):
    """First violating pair under the ascending-source rule.

    Scans sources in ascending id; for the first source with any
    violation, picks the lowest unreachable node, else the lowest node
    at distance > k. Returns (u, v, distance-or-None) or None when the
    graph is k-integrated.
    """
    dist = relaxation_distances(node_count, edges)
    for u in range(node_count):
        row = dist[u]
        unreached = [v for v in range(node_count) if row[v] is None]
        if unreached:
            return (u, min(unreached), None)
        far = [v for v in range(node_count) if row[v] > k]
        if far:
            v = min(far)
            return (u, v, row[v])
    return None


def threshold_table(r, n, k):
    """(B_k lower end, B_k upper end, C_k) for r communities of n >= r nodes.

    A case-by-case transcription of the table in the ``thresholds``
    module docstring, one branch per line there, after its r = 1 rule.
    """
    if r == 1:
        return 0, 0, 0
    if k == 1:
        return n * n * r * (r - 1) // 2, n * n * r * (r - 1) // 2, r * n
    if k == 2:
        return (r - 1) * n, (r - 1) * n, (r - 1) * n + 1
    if k == 3:
        return r * (r - 1) // 2, r * (r - 1) // 2, r
    if k < r + 1:
        return r - 1, r * (r - 1) // 2, r
    return r - 1, r - 1, r


def island_nodes(sizes):
    """Node ids grouped by community for disjoint complete communities."""
    groups = []
    start = 0
    for size in sizes:
        groups.append(list(range(start, start + size)))
        start += size
    return groups


def local_edges(sizes):
    out = []
    for group in island_nodes(sizes):
        out.extend(itertools.combinations(group, 2))
    return out


def cross_pairs(sizes):
    groups = island_nodes(sizes)
    out = []
    for i, j in itertools.combinations(range(len(groups)), 2):
        for u in groups[i]:
            for v in groups[j]:
                out.append((u, v))
    return sorted(out)


def bridge_set_count(sizes, smallest, largest):
    """How many bridge sets of sizes smallest..largest the cross pairs allow."""
    pairs = len(cross_pairs(sizes))
    return sum(math.comb(pairs, m) for m in range(smallest, largest + 1))


def min_bridges(sizes, k, max_size=None):
    """Minimum bridge count for k-integration over complete communities.

    Plain subset enumeration, size ascending, lexicographic within a
    size; no symmetry reduction. Only usable on tiny instances.
    Returns (count, witness_set) or None if no bridge set up to
    max_size works.
    """
    node_count = sum(sizes)
    base = local_edges(sizes)
    universe = cross_pairs(sizes)
    if max_size is None:
        max_size = len(universe)
    for size in range(0, max_size + 1):
        for combo in itertools.combinations(universe, size):
            if is_k_integrated(node_count, base + list(combo), k):
                return size, combo
    return None


def shuffle_and_prune(r, n, k, initial, trials, seed):
    """The randomized search's witness, redone with full checks and the plain draws.

    Each trial prunes ``initial`` (drops its edges in shuffled sorted order
    while the set stays k-integrated), then draws swaps: an edge to drop by
    ``rng.choice`` over the sorted set and one to add by ``rng.choice`` over
    the sorted unused pairs, pruning any swap that stays k-integrated.
    Returns the smallest set found, sorted, ``initial`` included.
    """
    sizes = (n,) * r
    node_count, base, universe = r * n, local_edges(sizes), cross_pairs(sizes)
    rng = random.Random(seed)

    def feasible(edges):
        return is_k_integrated(node_count, base + sorted(edges), k)

    def prune(edges):
        keep = set(edges)
        order = sorted(keep)
        rng.shuffle(order)
        for e in order:
            if len(keep) > r - 1 and feasible(keep - {e}):
                keep.discard(e)
        return keep

    best = sorted(initial)
    for _ in range(trials):
        current = prune(initial)
        for _ in range(max(10, 2 * len(current))):
            if len(current) <= r - 1:
                break
            e_out = rng.choice(sorted(current))
            unused = [e for e in universe if e not in current]
            if not unused:
                break
            candidate = current - {e_out} | {rng.choice(unused)}
            if feasible(candidate):
                current = prune(candidate)
        if len(current) < len(best):
            best = sorted(current)
    return tuple(best)
