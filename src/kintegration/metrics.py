"""Exact distance computations and the k-integration predicate.

A graph is k-integrated when every pair of nodes is joined by a path of
length at most k, i.e. its diameter is at most k; the integration level
k* is the diameter itself. Nodes with identical closed neighborhoods
("true twins", e.g. the interchangeable members of a complete community
with the same bridge endpoints) are collapsed first, which keeps dense
community graphs cheap. Twins sit at distance 1, so the collapse changes
no answer at the levels k >= 1 that every query takes, as in the paper.

All-pairs questions (k*, per-k verdicts, reach counts) are answered by
one level-synchronous kernel: every class keeps its closed ball as an
int bitset, and each round ORs in the balls of its neighbours, so round
k holds exactly the classes within distance k. The rounds stop at
closure, when one more round would change nothing. Two rounds of balls
are alive at a time, about classes**2 / 8 bytes each, so a graph with
more than MAX_CLASSES twin classes is refused before the first round,
as is a request for more than MAX_REACH_COUNTS reach counts (one per
node and distinct level).
Only ``build_report`` turns the rounds into k* and the per-k verdicts,
which ``integration_level``, ``is_k_integrated`` and
``QuotientGraph.diameter`` read. The reported witness is always the one
from the lowest-numbered violating source, and its distance is read
from the rounds too: the first level whose ball around the source holds
the target.
"""

from __future__ import annotations

import logging
import time
from bisect import bisect_left
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import KIntegrationError, require_int
from .graph import CommunityGraph, Edge

log = logging.getLogger(__name__)

# two rounds of balls hold 2 * classes**2 / 8 bytes: ~0.9 GB at the limit
MAX_CLASSES = 60_000
# one reach count per node and distinct level; analyze --format json peaks at ~75 B a count,
# 767 MB (VmHWM) for 3,333 levels of 3,000 nodes (README has the measured figures)
MAX_REACH_COUNTS = 10_000_000


class KVerdict(NamedTuple):
    """Outcome of an is-k-integrated check, read from its witness.

    ``witness`` is None iff the graph is k-integrated, else a concrete
    pair at distance > k, or an unreachable one (``witness_distance`` None).
    """

    k: int
    witness: Edge | None = None
    witness_distance: int | None = None

    @property
    def integrated(self) -> bool:
        return self.witness is None


class IntegrationReport(NamedTuple):
    """Per-graph distance facts: integration level, per-k verdicts, reach counts."""

    k_star: int | None
    per_k: tuple[KVerdict, ...]
    reach_profile: dict[int, tuple[int, ...]]


def _ball_levels(adjacency: Sequence[Sequence[int]]) -> Iterator[list[int]]:
    """Closed balls of every vertex as bitsets, for level 0, 1, ... up to closure.

    Bit d of the c-th ball yielded at level k is set iff vertex d is
    within distance k of vertex c. The last list yielded is the
    closure: the next round would change no ball. Callers may stop
    early; yielded lists are never mutated.
    """
    full = (1 << len(adjacency)) - 1
    balls = [1 << c for c in range(len(adjacency))]
    while True:
        yield balls
        grown = []
        for ball, nbs in zip(balls, adjacency):
            if ball != full:
                for d in nbs:
                    ball |= balls[d]
            grown.append(ball)
        if grown == balls:
            return
        balls = grown


def check_class_count(classes: int) -> None:
    """Refuse a graph of more than MAX_CLASSES twin classes, before the kernel allocates."""
    if classes > MAX_CLASSES:
        raise KIntegrationError(f"the graph has {classes} twin classes, more than the limit of {MAX_CLASSES}")


class _TwinQuotient:
    """Nodes grouped by closed neighborhood, plus the class-level graph.

    Two nodes with the same closed neighborhood are adjacent and sit at
    the same distance from everything else, so distances in the class
    graph are exactly the original distances between members of
    distinct classes; members of one class sit at distance 1 (classes
    are cliques). Classes are ordered by their smallest node id and keyed
    by the closed neighborhood as a tuple, u spliced into its neighbours.
    Without twins every class is one node, in node order, and the class
    graph is the input's adjacency itself.
    """

    def __init__(self, g: CommunityGraph):
        groups: dict[tuple[int, ...], list[int]] = {}
        for u, nbs in enumerate(g.adjacency):
            i = bisect_left(nbs, u)
            groups.setdefault(nbs[:i] + (u,) + nbs[i:], []).append(u)
        check_class_count(len(groups))
        # each group was created at its smallest member, so the dict holds them in that order
        classes = list(groups.values())
        self.node_count = g.node_count
        self.classes: list[list[int]] = classes
        self.extra_masks: list[int] = []
        if len(classes) == g.node_count:
            self.class_of: Sequence[int] = range(g.node_count)
            self.adjacency: Sequence[Sequence[int]] = g.adjacency
            return
        class_of = [0] * g.node_count
        for ci, members in enumerate(classes):
            for u in members:
                class_of[u] = ci
        adjacency: list[tuple[int, ...]] = []
        for ci, members in enumerate(classes):
            nbs = {class_of[v] for v in g.adjacency[members[0]]}
            nbs.discard(ci)
            adjacency.append(tuple(sorted(nbs)))
        # extra_masks[j] holds the classes whose extra members (size - 1)
        # have bit j set, so a ball's node count is its bit count plus
        # sum_j 2**j * |ball & extra_masks[j]|
        multi = [(ci, len(members) - 1) for ci, members in enumerate(classes) if len(members) > 1]
        width = max(extra for _, extra in multi).bit_length()
        self.extra_masks = [sum(1 << ci for ci, extra in multi if extra >> j & 1) for j in range(width)]
        self.class_of = class_of
        self.adjacency = adjacency

    def violation(self, balls: list[int]) -> tuple[int, int] | None:
        """The lowest class whose ball is not full, and the lowest class outside that ball.

        ``balls`` are the class balls of one level k >= 1, where members
        of one class sit within k. Classes are ordered by min node id, so
        the first violating class holds the lowest violating source overall.
        """
        full = (1 << len(balls)) - 1
        for ci, ball in enumerate(balls):
            if ball != full:
                missing = full & ~ball
                return ci, (missing & -missing).bit_length() - 1
        return None

    def reach_counts(self, balls: list[int]) -> tuple[int, ...]:
        """Per node, how many nodes lie within the level k >= 1 of ``balls`` (itself included)."""
        within = list(map(int.bit_count, balls))
        for j, mask in enumerate(self.extra_masks):
            within = [count + ((ball & mask).bit_count() << j) for count, ball in zip(within, balls)]
        return tuple(map(within.__getitem__, self.class_of))


def integration_level(g: CommunityGraph) -> int | None:
    """The graph diameter (minimal k with the graph k-integrated); None if disconnected."""
    return build_report(g, ()).k_star


def is_k_integrated(g: CommunityGraph, k: int) -> KVerdict:
    """Exact check of "every pair within distance k", with a witness on failure.

    The witness source is the lowest-id violating node; its target is
    the lowest-id unreachable node if any, else the lowest-id node at
    distance > k. This is ``build_report``'s row for k, so it walks the
    kernel to closure.
    """
    return build_report(g, (k,)).per_k[0]


def build_report(g: CommunityGraph, ks: Iterable[int]) -> IntegrationReport:
    """k*, per-k verdicts and reach profile from one run of the distance kernel.

    A failing k's witness distance comes from the same rounds: the first
    level whose ball around the source class holds the target class.
    """
    started = time.perf_counter()
    ks = list(ks)
    for k in ks:
        require_int("k", k, 1)
    wanted = set(ks)
    counts = len(wanted) * g.node_count
    if counts > MAX_REACH_COUNTS:
        raise KIntegrationError(
            f"{len(wanted)} levels of {g.node_count} nodes need {counts} reach counts, "
            f"more than the limit of {MAX_REACH_COUNTS}"
        )
    q = _TwinQuotient(g)
    violations: dict[int, tuple[int, int] | None] = {}
    reach: dict[int, tuple[int, ...]] = {}
    # (source class, target class) -> the first level whose source ball holds the target
    entered: dict[tuple[int, int], int] = {}
    pending: set[tuple[int, int]] = set()
    for level, balls in enumerate(_ball_levels(q.adjacency)):
        for pair in [pair for pair in pending if balls[pair[0]] >> pair[1] & 1]:
            entered[pair] = level
            pending.remove(pair)
        if level in wanted:
            violations[level] = found = q.violation(balls)
            reach[level] = q.reach_counts(balls)
            if found is not None:
                pending.add(found)
    # levels past closure see the closed balls
    for k in wanted:
        if k > level:
            violations[k] = q.violation(balls)
            reach[k] = q.reach_counts(balls)
    # a connected class graph closes at its diameter, with every ball full
    full = (1 << len(balls)) - 1
    k_star = None
    if all(ball == full for ball in balls):
        # members of one class sit at distance 1
        k_star = max(level, 1) if len(balls) < q.node_count else level
    verdicts: dict[int, KVerdict] = {}
    for k, found in violations.items():
        if found is None:
            verdicts[k] = KVerdict(k)
            continue
        ci, cj = found
        unreached = full & ~balls[ci]
        if unreached:
            target, distance = q.classes[(unreached & -unreached).bit_length() - 1][0], None
        else:
            target, distance = q.classes[cj][0], entered[ci, cj]
        verdicts[k] = KVerdict(k, (q.classes[ci][0], target), distance)
    log.info("distance kernel: %d classes, closed after %d rounds, k* %s, %d distinct witness sources, %.3f s",
             len(balls), level, k_star, len({found[0] for found in violations.values() if found is not None}),
             time.perf_counter() - started)
    return IntegrationReport(
        k_star=k_star,
        per_k=tuple(verdicts[k] for k in ks),
        reach_profile={k: reach[k] for k in ks},
    )
