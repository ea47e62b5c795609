"""Community-structured undirected graphs and structural queries.

The model is an "islands" network: nodes partitioned into communities,
edges split into local edges (both endpoints in one community) and
bridges (endpoints in different communities). A node is central when it
is an endpoint of at least one bridge.

Every graph computes its edge census (bridge, central-node and
local-edge counts) once, on first use, in one pass over the adjacency
lists: per node, one C-level ``itemgetter`` call fetches the neighbours'
communities and ``count`` finds those in its own. The bridge list
(``bridges``), the central set (``central_nodes``) and the edge tuple
(``edges``) are built only when asked for.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from functools import cached_property
from operator import itemgetter
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

from .errors import EmptyCommunityMapError, KIntegrationError, SelfLoopError, UnknownNodeError, require_int

log = logging.getLogger(__name__)

Edge = tuple[int, int]

# the one cap on a graph built beyond the input: a generated one takes ~65 B an edge for the complete join,
# ~0.65 GB at the cap, and ~215 B for an extended star on a complete quotient (README has the measured figures)
MAX_EDGES = 10_000_000


class EdgeCensus(NamedTuple):
    """The bridge, central-node and local-edge counts of a graph."""

    bridge_count: int
    central_count: int
    local_edge_count: int


class Frozen:
    """Immutable fields, named by a subclass's annotations and set once in ``__init__``, with equality (same type
    only), hash and repr by field; a ``cached_property`` still works, as it writes the instance ``__dict__`` itself."""

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args: object, **kwargs: object) -> None:
        if len(args) > len(self._fields) or kwargs.keys() != set(self._fields[len(args) :]):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        self.__dict__.update(zip(self._fields, args), **kwargs)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes: object) -> Frozen:
        """A new instance with ``changes`` applied, built by ``__init__`` again, so nothing cached carries over."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


class CommunityGraph(Frozen):
    """Simple undirected graph whose nodes carry community labels.

    Nodes are dense ids ``0..node_count-1`` and communities dense ids
    ``0..community_count-1``; ``tokens`` and ``community_tokens`` map
    them back to the names used in the input. Instances are immutable
    after construction and safe to share across concurrent readers.

    Invariant: ``adjacency[u]`` is strictly ascending and excludes u.
    Every producer keeps it; ``bridges``, the twin-class key in ``metrics``,
    ``fileio.format_edge_list`` and ``fileio.dot_blocks`` rely on it to split a neighbour tuple
    at u by bisection instead of sorting or filtering it.
    """

    adjacency: tuple[tuple[int, ...], ...]
    community_of: tuple[int, ...]
    tokens: tuple[str, ...]
    community_tokens: tuple[str, ...]

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    @property
    def community_count(self) -> int:
        return len(self.community_tokens)

    @cached_property
    def community_sizes(self) -> tuple[int, ...]:
        sizes = [0] * self.community_count
        for c in self.community_of:
            sizes[c] += 1
        return tuple(sizes)

    @cached_property
    def community_members(self) -> tuple[tuple[int, ...], ...]:
        members: list[list[int]] = [[] for _ in range(self.community_count)]
        for u, c in enumerate(self.community_of):
            members[c].append(u)
        return tuple(tuple(m) for m in members)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """All edges as (u, v) with u < v, sorted by node id."""
        return tuple(
            (u, v) for u in range(self.node_count) for v in self.adjacency[u] if u < v
        )

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adjacency)) // 2

    @cached_property
    def census(self) -> EdgeCensus:
        """The edge census, from one pass over the adjacency lists."""
        community_of = self.community_of
        central = local_ends = 0
        for u, nbs in enumerate(self.adjacency):
            same = pick(community_of, nbs).count(community_of[u])
            local_ends += same
            central += same != len(nbs)
        return EdgeCensus(self.edge_count - local_ends // 2, central, local_ends // 2)


def pick(values: Sequence, keys: Sequence[int]) -> Sequence:
    """``values[k]`` for each of ``keys``, by one ``itemgetter`` call unless fewer than two (it returns one bare, refuses none)."""
    return itemgetter(*keys)(values) if len(keys) > 1 else [values[k] for k in keys]


def build_graph(
    edges: Iterable[tuple[Hashable, Hashable]],
    communities: Mapping[Hashable, Hashable],
) -> CommunityGraph:
    """Validate and intern a graph given by raw edge pairs and a community map.

    Node and community keys may be any mutually comparable values
    (ints from code, strings from files); they are interned to dense
    ids in sorted-key order and kept as string tokens. Duplicate edge
    listings collapse to one edge.
    """
    node_keys, node_index = index_nodes(communities)
    neighbors: list[list[int]] = [[] for _ in node_keys]
    for a, b in edges:
        u, v = edge_ids(a, b, node_index)
        neighbors[u].append(v)
        neighbors[v].append(u)
    return intern_graph(communities, node_keys, neighbors)


def index_nodes(communities: Mapping[Hashable, Hashable]) -> tuple[list, dict]:
    """The sorted node keys and each key's id; an empty map raises EmptyCommunityMapError."""
    if not communities:
        raise EmptyCommunityMapError()
    node_keys = sorted(communities)
    return node_keys, {key: i for i, key in enumerate(node_keys)}


def edge_ids(a: Hashable, b: Hashable, node_index: Mapping[Hashable, int]) -> Edge:
    """The ids of edge (a, b)'s ends, checking for a self-loop, then an unknown ``a``, then an unknown ``b``."""
    if a == b:
        raise SelfLoopError(a)
    if a not in node_index:
        raise UnknownNodeError(a)
    if b not in node_index:
        raise UnknownNodeError(b)
    return node_index[a], node_index[b]


def intern_graph(
    communities: Mapping[Hashable, Hashable],
    node_keys: list,
    neighbor_lists: list[list[int]],
) -> CommunityGraph:
    """The graph of validated neighbour lists, indexed by position in ``node_keys`` (the sorted node keys).

    Each edge listing is in both ends' lists; repeated listings collapse to one edge.
    """
    community_keys = sorted(set(communities.values()))
    community_index = {key: i for i, key in enumerate(community_keys)}
    g = CommunityGraph(
        adjacency=tuple(map(tuple, map(sorted, map(set, neighbor_lists)))),
        community_of=tuple(map(community_index.__getitem__, map(communities.__getitem__, node_keys))),
        tokens=tuple(map(str, node_keys)),
        community_tokens=tuple(map(str, community_keys)),
    )
    duplicates = sum(map(len, neighbor_lists)) // 2 - g.edge_count
    if duplicates:
        log.debug("collapsed %d duplicate edge listings", duplicates)
    return g


def bridges(g: CommunityGraph) -> list[Edge]:
    """Edges whose endpoints lie in different communities, as (u, v) with u < v, by u then v."""
    community_of = g.community_of
    found: list[Edge] = []
    for u, nbs in enumerate(g.adjacency):
        cu = community_of[u]
        found.extend((u, v) for v in nbs[bisect_right(nbs, u) :] if community_of[v] != cu)
    return found


def local_edges(g: CommunityGraph) -> list[Edge]:
    """Edges whose endpoints share a community."""
    return [(u, v) for u, v in g.edges if g.community_of[u] == g.community_of[v]]


def central_nodes(g: CommunityGraph) -> set[int]:
    """Endpoints of bridges."""
    return {x for edge in bridges(g) for x in edge}


def missing_local_pair_count(g: CommunityGraph) -> int:
    """The same-community node pairs that are not edges, in closed form from the census."""
    return sum(s * (s - 1) // 2 for s in g.community_sizes) - g.census.local_edge_count


def is_locally_complete(
    g: CommunityGraph, max_witnesses: int = 10
) -> tuple[bool, list[Edge]]:
    """Whether every community's induced subgraph is complete.

    Returns (ok, missing) where missing lists up to ``max_witnesses``
    absent local pairs as witnesses.
    """
    require_int("max_witnesses", max_witnesses, 1)
    missing: list[Edge] = []
    for members in g.community_members:
        for i, u in enumerate(members):
            adjacent = set(g.adjacency[u])
            for v in members[i + 1 :]:
                if v not in adjacent:
                    missing.append((u, v))
                    if len(missing) >= max_witnesses:
                        return False, missing
    return not missing, missing


def localize_complete(g: CommunityGraph) -> CommunityGraph:
    """Copy of ``g`` with every missing local edge added: each node's neighbours united with its community.

    Bridges and central nodes are unchanged; idempotent. Adding more than
    MAX_EDGES edges is refused before anything is built.
    """
    added = missing_local_pair_count(g)
    if added > MAX_EDGES:
        raise KIntegrationError(f"localizing adds {added} edges, more than the limit of {MAX_EDGES}")
    members, community_of = g.community_members, g.community_of
    united = (set(nb).union(members[community_of[u]]).difference((u,)) for u, nb in enumerate(g.adjacency))
    return g.replace(adjacency=tuple(tuple(sorted(nb)) for nb in united))
