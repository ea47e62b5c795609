"""Generators for minimal k-integrated community networks.

Three families, each meeting the corresponding threshold row exactly:

* complete join (k=1): every cross-community pair bridged.
* two-star (k=2): one hub node bridged to every node outside its own
  community.
* extended star (k >= 3): one central node per community, bridged
  according to a connected quotient graph on the communities; the
  result is (d+2)-integrated where d is the quotient's diameter
  (or d-integrated in the degenerate n=1 case, where the network is
  the quotient itself).

A single community is one clique, so every family is then 1-integrated
(0 with one node); so is a two-star on two single-node communities.

Every construction is locally complete. Hubs and central nodes are
always the lowest node id of their community, so outputs are
deterministic.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import cached_property
from typing import Iterable, NamedTuple

from . import metrics
from .errors import (
    DisconnectedQuotientError,
    InvalidParamsError,
    UnsupportedCommunityCountError,
    require_int,
)
from .graph import MAX_EDGES, CommunityGraph, Edge, Frozen, build_graph


class QuotientGraph(Frozen):
    """Simple graph on community ids, used as an extended-star bridge plan; edges are kept sorted, with u < v."""

    r: int
    edges: tuple[Edge, ...]

    def __init__(self, r: int, edges: tuple[Edge, ...]) -> None:
        require_int("r", r, 1)
        seen: set[Edge] = set()
        for edge in edges:
            if not isinstance(edge, (tuple, list)) or len(edge) != 2:
                raise InvalidParamsError(f"quotient edge {edge!r} is not a pair")
            u, v = edge
            require_int("quotient endpoint", u, 0, maximum=r - 1)
            require_int("quotient endpoint", v, 0, maximum=r - 1)
            if u == v:
                raise InvalidParamsError(f"quotient self-loop at {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise InvalidParamsError(f"duplicate quotient edge ({u}, {v})")
            seen.add(key)
        super().__init__(r, tuple(sorted(seen)))

    @cached_property
    def diameter(self) -> int | None:
        """Exact diameter, or None when disconnected: the integration level of one node per community."""
        return metrics.integration_level(build_graph(self.edges, {c: c for c in range(self.r)}))


def complete_quotient(r: int) -> QuotientGraph:
    require_int("r", r, 1)
    # refused in closed form: a network on more quotient edges than MAX_EDGES never passes _check_size
    edges = r * (r - 1) // 2
    if edges > MAX_EDGES:
        raise InvalidParamsError(f"a complete quotient on r={r} has {edges} edges, more than the limit of {MAX_EDGES}")
    return QuotientGraph(r, tuple(itertools.combinations(range(r), 2)))


# A star, path or cycle on r >= 4 vertices has r twin classes, so above
# MAX_CLASSES its diameter is refused; these refuse it before it is built.


def star_quotient(r: int) -> QuotientGraph:
    """Community 0 as the quotient hub."""
    require_int("r", r, 1)
    metrics.check_class_count(r)
    return QuotientGraph(r, tuple((0, c) for c in range(1, r)))


def path_quotient(r: int) -> QuotientGraph:
    require_int("r", r, 1)
    metrics.check_class_count(r)
    return QuotientGraph(r, tuple((c, c + 1) for c in range(r - 1)))


def cycle_quotient(r: int) -> QuotientGraph:
    require_int("r", r, 3)
    metrics.check_class_count(r)
    return QuotientGraph(r, tuple((c, c + 1) for c in range(r - 1)) + ((0, r - 1),))


# Fixed eight-community layouts giving small bridge counts at
# intermediate integration levels, keyed by the level they target
# (quotient diameter = level - 2). Keys 4..6 share an 8-cycle with
# chords; 9 is a path, and 8 and 7 are trees made from it by moving its
# end leaves inward. Reference patterns shipped as data: known
# constructions, not certified minima.
_FIGURE1_EDGES: dict[int, tuple[Edge, ...]] = {
    4: ((0, 1), (6, 7), (2, 4), (3, 5), (0, 2), (5, 6), (1, 3), (4, 7), (0, 6), (1, 7), (3, 4), (2, 5)),
    5: ((0, 1), (6, 7), (2, 4), (3, 5), (0, 2), (5, 6), (1, 3), (4, 7), (0, 6), (3, 4)),
    6: ((0, 1), (6, 7), (2, 4), (3, 5), (0, 2), (5, 6), (1, 3), (4, 7)),
    7: ((0, 1), (5, 7), (0, 4), (3, 5), (0, 2), (5, 6), (1, 3)),
    8: ((0, 1), (6, 7), (0, 4), (3, 5), (0, 2), (5, 6), (1, 3)),
    9: ((0, 1), (6, 7), (2, 4), (3, 5), (0, 2), (5, 6), (1, 3)),
}


def figure1_quotient(k: int, r: int = 8) -> QuotientGraph:
    """The bundled eight-community quotient targeting integration level k.

    Available from the CLI as ``--quotient figure1:K`` for K in 4..9.
    """
    require_int("r", r, 1)
    if r != 8:
        raise UnsupportedCommunityCountError(f"the figure1 family is defined for r=8 only, got r={r}")
    require_int("k", k, 1)
    if k not in _FIGURE1_EDGES:
        raise InvalidParamsError(f"the figure1 family covers k in 4..9, got k={k}")
    return QuotientGraph(8, _FIGURE1_EDGES[k])


class Construction(NamedTuple):
    """A generated network plus its claimed certificate.

    The claims (k-integration at ``claimed_k``, bridge and central
    counts) hold by construction and are re-measured in tests and by
    the CLI.
    """

    graph: CommunityGraph
    family: str
    claimed_k: int
    claimed_b: int
    claimed_c: int


def _check_size(r: int, n: int, bridge_count: int) -> None:
    """Refuse, in closed form and before any edge is built, a network over MAX_EDGES."""
    edges = r * n * (n - 1) // 2 + bridge_count
    if edges > MAX_EDGES:
        raise InvalidParamsError(f"r={r}, n={n} needs {edges} edges, more than the limit of {MAX_EDGES}")


def _assemble(r: int, n: int, bridge_edges: Iterable[Edge]) -> CommunityGraph:
    """Locally complete graph on r communities of n nodes plus the given bridges, each listed once.

    Node id = community*n + slot; tokens are zero-padded so token order
    equals id order and canonical files stay in layout order.
    """
    node_count = r * n
    width = len(str(node_count - 1)) if node_count > 1 else 1
    cwidth = len(str(r - 1)) if r > 1 else 1
    bridged: dict[int, list[int]] = {}
    for u, v in bridge_edges:
        bridged.setdefault(u, []).append(v)
        bridged.setdefault(v, []).append(u)
    adjacency: list[tuple[int, ...]] = []
    for c in range(r):
        block = tuple(range(c * n, (c + 1) * n))
        for i, u in enumerate(block):
            local = block[:i] + block[i + 1 :]
            # every bridge end lies outside u's block, so the block slots in whole
            ends = sorted(bridged.pop(u, ()))
            cut = bisect_left(ends, c * n)
            adjacency.append((*ends[:cut], *local, *ends[cut:]) if ends else local)
    return CommunityGraph(
        adjacency=tuple(adjacency),
        community_of=tuple(u // n for u in range(node_count)),
        tokens=tuple(str(u).zfill(width) for u in range(node_count)),
        community_tokens=tuple(str(c).zfill(cwidth) for c in range(r)),
    )


def complete_join(r: int, n: int) -> Construction:
    """Every cross-community pair bridged; 1-integrated (0 for a single node)."""
    require_int("r", r, 1)
    require_int("n", n, 1)
    b = n * n * r * (r - 1) // 2
    _check_size(r, n, b)
    bridge_edges = (
        (ci * n + i, cj * n + j)
        for ci, cj in itertools.combinations(range(r), 2)
        for i in range(n)
        for j in range(n)
    )
    return Construction(
        graph=_assemble(r, n, bridge_edges),
        family="complete-join",
        claimed_k=1 if r * n > 1 else 0,
        claimed_b=b,
        claimed_c=r * n if r > 1 else 0,
    )


def two_star(r: int, n: int) -> Construction:
    """One hub (lowest id of community 0) bridged to every outside node; 2-integrated."""
    require_int("r", r, 1)
    require_int("n", n, 1)
    b = (r - 1) * n
    _check_size(r, n, b)
    bridge_edges = [(0, v) for v in range(n, r * n)]
    return Construction(
        graph=_assemble(r, n, bridge_edges),
        family="two-star",
        claimed_k=2 if r > 1 and r * n > 2 else min(r * n - 1, 1),
        claimed_b=b,
        claimed_c=(r - 1) * n + 1 if r > 1 else 0,
    )


def extended_star(r: int, n: int, quotient: QuotientGraph) -> Construction:
    """One central node per community, bridged along the quotient edges.

    (d+2)-integrated for quotient diameter d when r, n >= 2; with n = 1
    the network degenerates to the quotient itself and is d-integrated.
    """
    require_int("r", r, 1)
    require_int("n", n, 1)
    if quotient.r != r:
        raise InvalidParamsError(f"quotient has {quotient.r} vertices, expected {r}")
    _check_size(r, n, len(quotient.edges))
    d = quotient.diameter
    if d is None:
        raise DisconnectedQuotientError("extended star needs a connected quotient")
    bridge_edges = [(i * n, j * n) for i, j in quotient.edges]
    return Construction(
        graph=_assemble(r, n, bridge_edges),
        family="extended-star",
        claimed_k=d if n == 1 else 1 if r == 1 else d + 2,
        claimed_b=len(quotient.edges),
        claimed_c=r if r > 1 else 0,
    )
