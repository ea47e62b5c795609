"""Exhaustive and randomized search for minimum bridge sets.

Answers the question: given r complete communities of fixed sizes and a
target level k, how many bridges must be added before every pair of
nodes is within distance k?  The exhaustive search enumerates candidate
bridge sets in ascending size, so the first feasible set certifies the
true minimum.  The randomized one starts from a construction's bridges,
laid on each community's first slot, and builds no network.

``check_threshold_row``, ``min_bridges_for_sizes`` and the r = 1 and
k = 1 rows of ``min_bridges_randomized`` each check their parameters and
refuse an oversized instance once, then enter the one exhaustive search.

There is one search, and it is symmetry-reduced: it skips candidate
sets that are relabelings of an earlier one (nodes within a community
are interchangeable, as are whole communities of equal size).
Candidates are generated in lexicographic order under one rule that
every orbit's lex-least member satisfies: a node may take its first
bridge only once its gate holds one.  A node's gate is the previous
slot of its community; for slot 0 it is slot 0 of the previous
community when that has the same size, and otherwise there is none.
So each community uses a prefix of its slots, and equal-size
communities are opened in order; the nodes free to take a bridge are
kept as one mask.  The search therefore still visits the lex-least
feasible set first and reports the same witness a full enumeration
would; the tests hold it to the unreduced enumeration in
``tests/naive.py``.

A check grows every node's ball at once as a bitset: the 1-balls are
the community masks plus each bridge's ends, and each further round
gives a community's members the union of its balls (a community is a
clique), then each bridge adds its partner's old ball, up to
min(k, nodes - 1) rounds; the set is k-integrated when every k-ball is
full.  A leaf P + (u, v) is decided from its parent's ball layers, the
i-balls for i = 0..k: a bridge with both ends beyond k - 1 hops of a
source brings nothing within k hops of it, so the leaf is refuted when
such a source's k-ball in P is not full.  Balls are symmetric, so for
each u only the v near its first such source are tested.  Those that
pass are decided exactly: a shortest path uses the new bridge at most
once, so a source s short in P gains v's (k - 1 - d(s, u))-ball and u's
(k - 1 - d(s, v))-ball, where d(s, u) is the first layer in which u's
ball holds s (Ausiello et al., J. Algorithms 1991).  As in the
refutation, a source short in a node and beyond k - 1 hops of both ends
of a child's new bridge stays short in the child, so each node two or
more bridges short grows its own rule once and hands it to its children
with the new ends' balls taken out.
When such a source's whole (k - 1)-ball lies below the node's first u,
no bridge below the node comes near it and every leaf below is refuted:
the subtree is counted, not walked.  So is the subtree of a node two or
more bridges short whose completion is not k-integrated: its bridges plus
every later pair whose two ends sit below their community's bridged
slots plus the bridges left.  Each community's bridged slots are a
prefix and a bridge bridges at most one new node per community, so every
leaf below lies inside the completion; a bridge never lengthens a path,
so no leaf below is k-integrated.  The completion adds only pairs whose
ends lie at or above the first u, so it refutes every subtree the
inherited rule does: that rule is its cheap first check, and a parent's
only one.  A node grows its own rule only once neither check refutes
its subtree, and a parent only for a leaf the inherited rule leaves
open; the INFO line counts the parents that grew theirs, and the
subtrees a completion refuted.

Candidate counts grow combinatorially, so the search takes a budget of
leaves, refuted ones included: a parent counts each u's leaves by
popcount, and a refuted subtree's count, whichever rule refuted it,
comes in closed form from the same enumeration of what the gates admit,
memoized by the node's start index, open mask and bridges left.  So a
budget that runs out inside a refuted subtree stops at the exact leaf a
walk would.  Exceeding it returns a partial verdict (min_bridges is None)
rather than raising: the caller learns which sizes were fully ruled out.
"""

from __future__ import annotations

import logging
import random
import time
from bisect import bisect_left, bisect_right
from functools import reduce
from itertools import combinations, compress, repeat
from operator import and_, ne, or_
from typing import NamedTuple

from .errors import InvalidParamsError, require_int
from .graph import Edge
from .thresholds import ThresholdRow, threshold_row

DEFAULT_BUDGET = 2_000_000
DEFAULT_TRIALS = 20
# the cross pairs sit in one tuple, ~100 B a pair
MAX_CROSS_PAIRS = 100_000

log = logging.getLogger(__name__)

# a bridge set's (k-1)-balls, its sources whose k-ball is not full and its ball layers
Rule = tuple[list[int], int, list[list[int]]]


class OracleVerdict(NamedTuple):
    """Outcome of an exhaustive minimum-bridge search, read from its witness.

    ``witness`` is a smallest feasible bridge set, or None when the budget
    ran out first; then ``exhausted_size`` is the largest candidate-set
    size fully proven infeasible.
    """

    sizes: tuple[int, ...]
    witness: tuple[Edge, ...] | None
    sets_examined: int
    exhausted_size: int | None

    @property
    def min_bridges(self) -> int | None:
        return None if self.witness is None else len(self.witness)

    @property
    def certified(self) -> bool:
        """True only when the minimum is exact."""
        return self.witness is not None


class RowCheck(NamedTuple):
    """A certified search and the threshold row it is checked against, read for their agreement."""

    row: ThresholdRow
    verdict: OracleVerdict

    @property
    def agrees(self) -> bool | None:
        """None when the budget ran out, else ``fits_row`` of the witness; False is a verified counterexample."""
        return None if self.verdict.witness is None else fits_row(self.row, self.verdict.witness, exact=True)


class _Instance:
    """Ball kernel and gates for one community-size profile.

    Node ids are consecutive per community: slot s of a community that
    starts at id o is node o + s.  Sizes must come in ascending order
    so that equal sizes form contiguous blocks.  ``opens[x]`` holds x and
    the nodes x gates (slot s + 1; for slot 0 also the next community's,
    if equal in size), ``base`` the ungated nodes, and ``community[x]``
    and ``later[x]`` x's community and the communities after it.  A
    search node is its first free pair's index in ``universe`` and the
    mask of nodes free to take a bridge; ``children`` and ``leaves`` are
    the one enumeration of what the gates admit below it, and
    ``leaf_count`` counts its leaves from them, memoized.
    """

    def __init__(self, sizes: tuple[int, ...]) -> None:
        self.node_count = sum(sizes)
        self.full_mask = (1 << self.node_count) - 1
        self.bits = [1 << x for x in range(self.node_count)]  # the 0-balls
        self.spans: list[tuple[int, int]] = []
        self.opens: list[int] = []
        self.base = 0
        start = 0
        for c, size in enumerate(sizes):
            self.spans.append((start, start + size))
            self.opens += [3 << x for x in range(start, start + size - 1)] + [1 << (start + size - 1)]
            if c > 0 and sizes[c - 1] == size:
                self.opens[start - size] |= 1 << start
            else:
                self.base |= 1 << start
            start += size
        self.community = [(1 << hi) - (1 << lo) for lo, hi in self.spans for _ in range(lo, hi)]
        self.later = [self.full_mask >> hi << hi for lo, hi in self.spans for _ in range(lo, hi)]
        self.universe: tuple[Edge, ...] = tuple(
            (u, v) for lo, hi in self.spans for u in range(lo, hi) for v in range(hi, self.node_count)
        )
        self.leaf_counts: dict[tuple[int, int, int], int] = {}

    def grow(self, balls: list[int], edges) -> list[int]:
        """Every node's ball one hop wider, given the bridges ``edges``."""
        grown: list[int] = []
        for lo, hi in self.spans:
            grown += [reduce(or_, balls[lo:hi])] * (hi - lo)
        for u, v in edges:
            grown[u] |= balls[v]
            grown[v] |= balls[u]
        return grown

    def layers(self, edges, radius: int) -> list[list[int]]:
        """Bitsets of the nodes within i of each node, for i = 0..min(radius, node_count - 1).

        No ball grows past node_count - 1, so a wider one equals the last.
        """
        bits = self.bits
        layers = [bits]
        if radius:
            balls = self.community[:]
            for u, v in edges:
                balls[u] |= bits[v]
                balls[v] |= bits[u]
            layers.append(balls)
            for _ in range(min(radius, self.node_count - 1) - 1):
                layers.append(self.grow(layers[-1], edges))
        return layers

    def is_k_integrated(self, edges, k: int) -> bool:
        """True iff every pair of nodes is within distance k."""
        return reduce(and_, self.layers(edges, k)[-1]) == self.full_mask

    def children(self, start_idx: int, open_: int, left: int):
        """(idx, u, v, open mask) of each child the gates admit below a node ``left`` bridges short."""
        for idx in range(start_idx, len(self.universe) - left + 1):
            u, v = self.universe[idx]
            if open_ >> u & 1:
                # u's bridge is counted first, so it can open v's gate
                reach = open_ | self.opens[u]
                if reach >> v & 1:
                    yield idx, u, v, reach | self.opens[v]

    def leaves(self, start_idx: int, open_: int):
        """(u, vs) for each u of a node one bridge short: vs holds the v whose leaf (u, v) the gates admit."""
        u0, v0 = self.universe[start_idx]
        for u in range(u0, self.spans[-1][0]):
            if open_ >> u & 1:
                vs = (open_ | self.opens[u]) & self.later[u]
                yield u, vs & -1 << v0 if u == u0 else vs

    def leaf_count(self, start_idx: int, open_: int, left: int) -> int:
        """How many leaves lie below a node ``left`` bridges short."""
        key = start_idx, open_, left
        if key not in self.leaf_counts:
            if left == 1:
                self.leaf_counts[key] = sum(vs.bit_count() for _, vs in self.leaves(start_idx, open_))
            else:
                self.leaf_counts[key] = sum(self.leaf_count(idx + 1, child, left - 1)
                                            for idx, _, _, child in self.children(start_idx, open_, left))
        return self.leaf_counts[key]

    def completion(self, start_idx: int, ends: int, left: int) -> list[Edge]:
        """The pairs a leaf ``left`` bridges below a node can add.

        They are the pairs from ``start_idx`` on whose two ends both sit below
        their community's bridged slots plus ``left``: ``ends`` holds the
        bridged nodes, a prefix of each community, and a bridge bridges at
        most one new node per community.
        """
        allowed = 0
        for lo, _ in self.spans:
            slots = (ends & self.community[lo]).bit_count() + left
            allowed |= self.community[lo] & ((1 << slots) - 1) << lo
        return [(u, v) for u, v in self.universe[start_idx:] if allowed >> u & allowed >> v & 1]

    def leaf_rule(self, edges, k: int) -> Rule:
        """The (k-1)-balls, the sources whose k-ball is not full and the ball layers of ``edges``.

        ``short & ~(near[u] | near[v])`` non-zero proves edges + (u, v) is not
        k-integrated; ``is_k_integrated_with`` decides it exactly.
        """
        layers = self.layers(edges, k)
        short = sum(compress(self.bits, map(ne, layers[-1], repeat(self.full_mask))))
        return layers[min(k - 1, len(layers) - 1)], short, layers

    def is_k_integrated_with(self, rule: Rule, k: int, u: int, v: int) -> bool:
        """True iff the set behind ``rule`` plus the bridge (u, v) is k-integrated.

        A shortest path uses the new bridge at most once, so a short source s
        gains v's (k - 1 - d(s, u))-ball and u's (k - 1 - d(s, v))-ball; balls
        are symmetric, so d(s, u) is the first layer in which u's ball holds s.
        """
        _, short, layers = rule
        last = len(layers) - 1
        hops = range(min(k, last + 1))
        while short:
            low = short & -short
            short ^= low
            ball = layers[last][low.bit_length() - 1]
            for a, b in (u, v), (v, u):
                for i in hops:
                    if layers[i][a] & low:
                        ball |= layers[min(k - 1 - i, last)][b]
                        break
            if ball != self.full_mask:
                return False
        return True


def _check_size(communities: int, nodes: int, pairs: int) -> None:
    """Refuse a search over more than MAX_CROSS_PAIRS cross pairs, from its counts alone.

    One check's balls hold nodes² bits, so nodes² is capped at 4 × that
    limit too; r >= 2 equal sizes have nodes² <= 4 × their cross pairs.
    """
    if pairs > MAX_CROSS_PAIRS:
        raise InvalidParamsError(
            f"{communities} communities of {nodes} nodes give {pairs} cross pairs, more than the limit of {MAX_CROSS_PAIRS}"
        )
    if nodes * nodes > 4 * MAX_CROSS_PAIRS:
        raise InvalidParamsError(
            f"{communities} communities of {nodes} nodes need {nodes * nodes} mask bits, more than the limit of {4 * MAX_CROSS_PAIRS}"
        )


def _check_equal_size(r: int, n: int) -> None:
    """``_check_size`` for r communities of n nodes, before the r sizes are built."""
    if r > 1:
        _check_size(r, r * n, n * n * r * (r - 1) // 2)


def min_bridges_for_sizes(sizes, k: int, budget: int = DEFAULT_BUDGET) -> OracleVerdict:
    """Exact minimum bridge count for communities of the given sizes.

    Sizes are sorted ascending internally and the verdict reports the
    sorted profile; witness node ids refer to that layout.  ``sizes`` is
    read once, so any iterable will do.
    """
    try:
        sizes = iter(sizes)
    except TypeError:
        raise InvalidParamsError(f"sizes must be an iterable of community sizes, got {sizes!r}") from None
    sizes = tuple(sizes)
    if not sizes:
        raise InvalidParamsError("need at least one community")
    for s in sizes:
        require_int("community size", s, 1)
    require_int("k", k, 1)
    require_int("budget", budget, 1)
    ordered = tuple(sorted(sizes))
    if len(ordered) > 1:
        nodes = sum(ordered)
        _check_size(len(ordered), nodes, (nodes * nodes - sum(s * s for s in ordered)) // 2)
    return _search(ordered, k, budget)


def _search(ordered: tuple[int, ...], k: int, budget: int) -> OracleVerdict:
    """The exhaustive search over ascending sizes, which its callers have checked and capped."""
    if len(ordered) == 1:
        # one complete community has diameter at most 1 already
        return OracleVerdict(ordered, (), 0, None)
    inst = _Instance(ordered)
    if k == 1:
        # diameter <= 1 means complete, so every cross pair must be
        # bridged; the full cross set is the unique minimum
        witness = inst.universe
        if not inst.is_k_integrated(witness, 1):
            raise AssertionError("internal: complete join failed its own check")
        return OracleVerdict(ordered, witness, 1, None)

    universe = inst.universe
    last = len(universe)
    start = len(ordered) - 1  # fewer bridges cannot connect r communities

    def refutes_all(near: list[int], short: int, u0: int) -> bool:
        """True when a source in ``short`` has its whole (k-1)-ball below u0, so no bridge from u0 on comes near it."""
        below = short & ((1 << u0) - 1)  # a ball holds its source
        while below:
            low = below & -below
            below ^= low
            if not near[low.bit_length() - 1] >> u0:
                return True
        return False

    def unrefuted(near: list[int], short: int, u: int, vs: int) -> int:
        """The v in ``vs`` whose leaf (u, v) the rule (near, short) leaves open."""
        lacking = short & ~near[u]
        if not lacking:
            return vs
        # balls are symmetric: only the v within k - 1 hops of u's lowest lacking source can cover it
        kept = candidates = vs & near[(lacking & -lacking).bit_length() - 1]
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            if lacking & ~near[low.bit_length() - 1]:
                kept ^= low
        return kept

    examined = 0
    for m in range(start, last + 1):
        found: tuple[Edge, ...] | None = None
        budget_hit = False
        before, decided, parents, grown, began = examined, 0, 0, 0, time.perf_counter()
        wholes = held = completed = 0

        def extend(start_idx: int, open_: int, chosen: tuple[Edge, ...], ends: int, near: list[int], short: int) -> bool:
            """Returns True to stop the whole size-m pass.

            ``open_`` holds the nodes that may take a bridge and ``ends`` those
            that hold one.  ``short`` holds the sources short in the parent,
            whose (k-1)-balls are ``near``, and beyond k - 1 hops of both ends
            of the bridge added since, so they are short here.
            """
            nonlocal examined, found, budget_hit, decided, parents, grown, wholes, held, completed
            left = m - len(chosen)
            parents += left == 1
            whole = refutes_all(near, short, universe[start_idx][0])
            if not whole and left > 1:
                whole = not inst.is_k_integrated((*chosen, *inst.completion(start_idx, ends, left)), k)
                completed += whole
            if whole:
                # every leaf below keeps that source short, or adds only pairs of a completion that is not
                # k-integrated: count them, walk none
                count = inst.leaf_count(start_idx, open_, left)
                wholes, budget_hit = wholes + 1, examined + count > budget
                count = min(count, budget - examined)
                held, examined = held + count, examined + count
                return budget_hit
            if left > 1:
                near, short, _ = inst.leaf_rule(chosen, k)
                for idx, u, v, child in inst.children(start_idx, open_, left):
                    if extend(idx + 1, child, (*chosen, (u, v)), ends | 1 << u | 1 << v, near,
                              short & ~near[u] & ~near[v]):
                        return True
                return False
            # the leaves, one u at a time, all counted; this node grows its rule only for a leaf the inherited rule
            # leaves open, and decides that leaf from the rule's layers
            own = None
            for u, vs in inst.leaves(start_idx, open_):
                survivors = unrefuted(near, short, u, vs)
                if survivors and own is None:
                    own, grown = inst.leaf_rule(chosen, k), grown + 1
                survivors = survivors and unrefuted(own[0], own[1], u, survivors)
                while survivors:
                    low = survivors & -survivors
                    survivors ^= low
                    v = low.bit_length() - 1
                    position = examined + (vs & (low - 1)).bit_count() + 1
                    if position > budget:
                        break  # the count after this u passes the budget too
                    decided += 1
                    if inst.is_k_integrated_with(own, k, u, v):
                        examined, found = position, (*chosen, (u, v))
                        return True
                examined += vs.bit_count()
                if examined > budget:
                    examined, budget_hit = budget, True
                    return True
            return False

        extend(0, inst.base, (), 0, inst.community, 0)  # the root has no parent: no source is known short
        sets = examined - before
        rate = sets / max(time.perf_counter() - began, 1e-9)
        log.info("size %d: %d sets, %d refuted without a check, %d decided from the ball layers, "
                 "%d subtrees refuted whole holding %d sets, %d of them by their completion, "
                 "%d of %d parents grew their own balls, %.0f sets/s, budget %d of %d used",
                 m, sets, sets - decided, decided, wholes, held, completed, grown, parents, rate, examined, budget)
        if found is not None:
            return OracleVerdict(ordered, found, examined, m - 1)
        if budget_hit:
            return OracleVerdict(ordered, None, examined, m - 1)
    # unreachable for k >= 1: the full cross set is always feasible
    return OracleVerdict(ordered, None, examined, last)


def min_bridges_randomized(r: int, n: int, k: int, trials: int = DEFAULT_TRIALS, seed: int = 0) -> tuple[Edge, ...]:
    """A feasible bridge set found by shuffle-and-prune, sorted; its size bounds the minimum from above.

    Each trial starts from the bridges of the construction meeting the k
    row, laid on each community's first slot with no network built,
    removes edges in random order (keeping the set feasible), then tries
    random edge swaps to escape local minima.  Every set the search holds
    (the starting set, the current one and the one a prune works on) keeps
    a table, filled lazily, of the leaf rule of the set without each of
    its edges.  A prune keeps an edge when that rule has a short source,
    which is exactly when the set without it is not k-integrated; a
    removal starts a fresh table, and the starting set's table serves
    every trial.  A swap (e_out, e_in) is refuted in O(1) by the current
    set's rule for e_out, when a short source lies beyond k - 1 hops of
    both ends of e_in; the swaps it leaves open are decided exactly from
    that rule's ball layers, and after an accepted swap the prune keeps at
    once an edge whose rule in the old set decides that adding e_in leaves
    it short.  The returned set is always feasible, so the bound is sound
    even though it may not be tight.  The RNG draws are fixed by the seed
    (>= 0), so a seed names one witness.
    """
    require_int("r", r, 1)
    require_int("n", n, 1)
    require_int("k", k, 1)
    require_int("trials", trials, 1)
    require_int("seed", seed, 0)
    _check_equal_size(r, n)
    if r == 1 or k == 1:
        # the exact search settles both at once: no bridges, or every cross pair
        return _search((n,) * r, k, DEFAULT_BUDGET).witness
    inst = _Instance((n,) * r)
    # the bridges of the construction meeting this k row, with each community's first slot as its hub: the
    # two-star, then the extended star on a complete quotient, then on a star quotient
    hubs = [lo for lo, _ in inst.spans]
    later = range(hubs[1], inst.node_count) if k == 2 else hubs[1:]
    initial = frozenset(combinations(hubs, 2) if k == 3 else ((0, v) for v in later))
    if not inst.is_k_integrated(initial, k):
        raise AssertionError("internal: seed bridge set failed its own check")
    rng = random.Random(seed)
    universe = inst.universe
    floor = r - 1  # connectivity needs at least r-1 bridges
    refuted = decided = grown = 0

    def rule(edges: frozenset[Edge], table: dict, e: Edge) -> Rule:
        """The leaf rule of ``edges`` without e, read from the table of ``edges`` or grown into it."""
        nonlocal grown
        if e not in table:
            table[e], grown = inst.leaf_rule(edges - {e}, k), grown + 1
        return table[e]

    def prune(edges: frozenset[Edge], table: dict, before: dict,
              added: Edge | None = None) -> tuple[frozenset[Edge], dict]:
        """``edges`` with edges dropped in random order while it stays k-integrated, and its table.

        ``before`` is the table of a set S with ``edges`` inside S + ``added``: an edge e
        it holds a rule for stays, with no rule grown, when (S - e) + ``added``,
        which holds every set the prune tries without e, is not k-integrated.
        """
        order = sorted(edges)
        rng.shuffle(order)
        for e in order:
            if len(edges) <= floor:
                break
            if e in before and not inst.is_k_integrated_with(before[e], k, *added):
                continue
            if not rule(edges, table, e)[1]:
                edges, table = edges - {e}, {}
        return edges, table

    def drawing(edges: frozenset[Edge]) -> tuple[list[Edge], list[int]]:
        """``edges`` sorted, and before each the count of unused pairs of the universe below it."""
        ordered = sorted(edges)
        return ordered, [bisect_left(universe, e) - j for j, e in enumerate(ordered)]

    initial_table: dict = {}
    best = tuple(sorted(initial))
    for _ in range(trials):
        current, table = prune(initial, initial_table, {})
        ordered, gaps = drawing(current)
        for _ in range(max(10, 2 * len(current))):
            if len(current) <= floor:
                break
            e_out = rng.choice(ordered)
            # the i-th unused pair, drawn by the RNG call rng.choice(unused) makes:
            # i plus the used pairs with at most i unused pairs below them
            i = rng.choice(range(len(universe) - len(ordered)))
            e_in = u, v = universe[i + bisect_right(gaps, i)]
            without = near, short, _ = rule(current, table, e_out)
            if short & ~(near[u] | near[v]):
                refuted += 1
                continue
            decided += 1
            if inst.is_k_integrated_with(without, k, u, v):
                current, table = prune(current - {e_out} | {e_in}, {}, table, e_in)
                ordered, gaps = drawing(current)
        if len(current) < len(best):
            best = tuple(sorted(current))
    log.info("randomized r %d n %d k %d: %d trials, %d swaps drawn, %d refuted by a leaf rule, "
             "%d decided from the ball layers, %d leaf rules grown, best %d bridges",
             r, n, k, trials, refuted + decided, refuted, decided, grown, len(best))
    return best


def fits_row(row: ThresholdRow, witness, exact: bool) -> bool:
    """Whether the feasible bridge set ``witness`` agrees with a threshold row.

    The row's counts are necessary, so any ``row.shortfall`` of the
    witness's bridges and distinct ends disproves it.  Only a certified
    minimum (``exact``) must also stay within ``row.bridges.upper``.
    """
    ends = len({node for edge in witness for node in edge})
    return row.shortfall(len(witness), ends) is None and (not exact or len(witness) <= row.bridges.upper)


def check_threshold_row(r: int, n: int, k: int, budget: int = DEFAULT_BUDGET) -> RowCheck:
    """The threshold row for r communities of n nodes at level k, and the certified search checked against it.

    The row checks r, n and k and refuses n < r; then the budget is
    checked and an oversized instance refused from r and n alone, before
    the r sizes are built and searched once.
    """
    row = threshold_row(r, n, k)
    require_int("budget", budget, 1)
    _check_equal_size(r, n)
    return RowCheck(row, _search((n,) * r, k, budget))
