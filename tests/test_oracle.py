import itertools
import logging
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kintegration import (
    Bound,
    InvalidParamsError,
    OracleVerdict,
    ThresholdRow,
    bridge_threshold,
    check_threshold_row,
    complete_quotient,
    extended_star,
    min_bridges_for_sizes,
    min_bridges_randomized,
    oracle,
    star_quotient,
    two_star,
)

import naive


def test_single_community_needs_nothing():
    verdict = check_threshold_row(1, 4, 2).verdict
    assert verdict.min_bridges == 0
    assert verdict.witness == ()
    assert verdict.certified
    # answered without a search: no set is examined and no size runs out of budget
    assert min_bridges_for_sizes((3,), 2) == OracleVerdict((3,), (), 0, None)
    # one community has no cross pair, so no entry caps it, however large
    big = 10**6
    answer = OracleVerdict((big,), (), 0, None)
    assert check_threshold_row(1, big, 2).verdict == min_bridges_for_sizes((big,), 2) == answer
    assert min_bridges_randomized(1, big, 2) == ()


def test_k1_is_the_full_cross_set():
    verdict = min_bridges_for_sizes((2, 2, 2), 1)
    assert verdict.min_bridges == 12
    assert len(verdict.witness) == 12
    assert verdict.certified
    assert verdict.sets_examined == 1


@pytest.mark.parametrize(
    "sizes,k",
    [
        ((2, 2), 1), ((2, 2), 2), ((2, 2), 3), ((2, 2), 4),
        ((1, 2), 2), ((2, 3), 2), ((2, 3), 3),
        ((1, 1, 1), 2), ((2, 2, 2), 2), ((2, 2, 2), 3), ((2, 2, 2), 4),
        ((1, 2, 3), 2), ((1, 2, 3), 3),
        ((1, 1, 1, 1), 3), ((2, 1, 2), 2),
    ],
)
def test_matches_naive_enumeration_including_witness(sizes, k):
    expected_count, expected_witness = naive.min_bridges(tuple(sorted(sizes)), k)
    verdict = min_bridges_for_sizes(sizes, k)
    assert verdict.min_bridges == expected_count
    assert verdict.witness == expected_witness
    assert verdict.certified
    assert verdict.sizes == tuple(sorted(sizes))


@pytest.mark.parametrize("sizes,k", [((2, 2), 2), ((2, 3), 2), ((3, 3), 3), ((2, 2, 2), 3), ((1, 2, 2), 2)])
def test_symmetry_reduction_changes_nothing_but_work(sizes, k):
    ordered = tuple(sorted(sizes))
    expected_count, expected_witness = naive.min_bridges(ordered, k)
    verdict = min_bridges_for_sizes(sizes, k)
    assert verdict.min_bridges == expected_count
    assert verdict.witness == expected_witness
    assert verdict.certified
    # no more work than the unreduced enumeration from r-1 bridges up to the minimum
    assert verdict.sets_examined <= naive.bridge_set_count(ordered, len(sizes) - 1, expected_count)


# sets examined, last size ruled out, minimum and witness, pinned so that a
# change to the symmetry rule that keeps the minima still shows up
PINNED = [
    ((2, 3, 4), 2, None, 1659, 4, 5, ((0, 5), (1, 5), (2, 5), (3, 5), (4, 5))),
    ((1, 2, 2), 2, None, 15, 2, 3, ((0, 1), (0, 3), (2, 4))),
    ((3, 4, 4), 3, None, 25, 2, 3, ((0, 3), (0, 7), (3, 7))),
    ((2, 2, 2, 2), 3, None, 388, 4, 5, ((0, 2), (0, 3), (0, 4), (0, 5), (0, 6))),
    ((3, 3, 3), 2, None, 1942, 5, 6, ((0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8))),
    ((1, 1, 2, 2), 2, None, 164, 3, 4, ((0, 2), (1, 2), (2, 4), (2, 5))),
    ((5, 5, 5, 5), 3, 400_000, 31488, 5, 6, ((0, 5), (0, 10), (0, 15), (5, 10), (5, 15), (10, 15))),
    ((4, 4, 4, 4), 2, 300, 300, 3, None, None),
    # the benchmark's certified rows, (3, 4, 2) and (4, 4, 3), and its budget row (4, 4, 2)
    ((4, 4, 4), 2, None, 143_334, 7, 8, tuple((0, v) for v in range(4, 12))),
    ((4, 4, 4, 4), 3, None, 29_462, 5, 6, ((0, 4), (0, 8), (0, 12), (4, 8), (4, 12), (8, 12))),
    ((4, 4, 4, 4), 2, 300_000, 300_000, 6, None, None),
    # the README's two rows that exhaust the default budget
    ((4, 4, 4, 4), 2, None, 2_000_000, 7, None, None),
    ((5, 5, 5, 5, 5), 3, None, 2_000_000, 6, None, None),
]


@pytest.mark.parametrize("sizes,k,budget,examined,exhausted,minimum,witness", PINNED)
def test_search_work_is_pinned(sizes, k, budget, examined, exhausted, minimum, witness):
    verdict = min_bridges_for_sizes(sizes, k, budget or oracle.DEFAULT_BUDGET)
    assert verdict.sets_examined == examined
    assert verdict.exhausted_size == exhausted
    assert verdict.min_bridges == minimum
    assert verdict.witness == witness
    assert verdict.certified is (minimum is not None)


# budgets on the (3, 4, 2) row and the size each rules out, recorded by walking every
# leaf: each side of the size-5 and size-6 totals (3,129 and 21,944 sets) and ten
# draws of random.Random(12).randint(1, 143_333); 3,128, 21,943, 91,695, 126,495
# and 138,709 run out inside a subtree whose leaves are counted, not walked
ROW_342_RULED_OUT = {
    2847: 4, 3128: 4, 3129: 5, 3130: 5, 21943: 5, 21944: 6, 21945: 6, 37382: 6,
    70516: 6, 71841: 6, 91695: 6, 98240: 6, 100045: 6, 124406: 6, 126495: 6, 138709: 6,
}


def _boundary_cases():
    # budgets 1, E - 1, E, E + 1 and seeded draws around them, for each small unbudgeted row
    rng = random.Random(9)
    for row in PINNED:
        sizes, k, budget, examined = row[:4]
        if budget is None and examined < 5_000:
            draws = {rng.randint(1, examined + 5) for _ in range(16)}
            for b in sorted({1, examined - 1, examined, examined + 1} | draws):
                yield pytest.param(row, b, None, id=f"{sizes}-k{k}-b{b}")
    row = next(row for row in PINNED if row[:3] == ((4, 4, 4), 2, None))
    for b, ruled_out in ROW_342_RULED_OUT.items():
        yield pytest.param(row, b, ruled_out, id=f"{row[0]}-k2-b{b}")


@pytest.mark.parametrize("row,budget,ruled_out", _boundary_cases())
def test_budget_boundary_is_exact(row, budget, ruled_out):
    sizes, k, _, examined, exhausted, minimum, witness = row
    verdict = min_bridges_for_sizes(sizes, k, budget)
    if budget >= examined:
        assert (verdict.sets_examined, verdict.exhausted_size) == (examined, exhausted)
        assert (verdict.min_bridges, verdict.witness) == (minimum, witness)
    else:
        # the search stops at exactly the budget, having ruled out no more than the full one
        assert verdict.min_bridges is None and verdict.witness is None
        assert verdict.sets_examined == budget
        assert verdict.exhausted_size <= exhausted
        assert ruled_out is None or verdict.exhausted_size == ruled_out


@st.composite
def profile_and_bridges(draw, max_r, max_size):
    sizes = tuple(sorted(draw(st.lists(st.integers(1, max_size), min_size=2, max_size=max_r))))
    universe = naive.cross_pairs(sizes)
    bridges = draw(st.lists(st.sampled_from(universe), unique=True, max_size=len(universe)))
    return sizes, universe, sorted(bridges)


@given(profile_and_bridges(max_r=4, max_size=6), st.integers(1, 8), st.data())
@settings(max_examples=300, deadline=None)
def test_ball_kernel_matches_naive(case, k, data):
    # size-1 communities and lopsided profiles such as (1, 6) included; a check ends before its last
    # round on a community with a node without a bridge, so some draws give every node of one
    # community a bridge, and some take k at or past nodes - 1, where the rounds stop
    sizes, universe, bridges = case
    if data.draw(st.booleans()):
        c = data.draw(st.integers(0, len(sizes) - 1))
        for x in range(sum(sizes[:c]), sum(sizes[: c + 1])):
            bridges.append(data.draw(st.sampled_from([e for e in universe if x in e])))
        bridges = sorted(set(bridges))
    if data.draw(st.booleans()):
        k = sum(sizes) - 1 + data.draw(st.integers(0, 2))
    inst = oracle._Instance(sizes)
    assert inst.is_k_integrated(bridges, k) == naive.is_k_integrated(sum(sizes), naive.local_edges(sizes) + bridges, k)


@given(profile_and_bridges(max_r=4, max_size=3), st.integers(1, 4), st.data())
@settings(max_examples=300, deadline=None)
def test_leaf_rule_refutes_only_infeasible_sets(case, k, data):
    sizes, universe, bridges = case
    u, v = data.draw(st.sampled_from(universe))
    near, short, _ = oracle._Instance(sizes).leaf_rule(bridges, k)
    if short & ~(near[u] | near[v]):
        assert not naive.is_k_integrated(sum(sizes), naive.local_edges(sizes) + bridges + [(u, v)], k)


@given(profile_and_bridges(max_r=4, max_size=3), st.data())
@settings(max_examples=300, deadline=None)
def test_leaf_rule_has_no_short_source_exactly_when_k_integrated(case, data):
    # the randomized prune keeps an edge when the set without it has a short source, so the two must agree;
    # k runs past node_count - 1, where the rounds stop
    sizes, _, bridges = case
    k = data.draw(st.integers(1, sum(sizes) + 2))
    _, short, _ = oracle._Instance(sizes).leaf_rule(bridges, k)
    assert (short == 0) == naive.is_k_integrated(sum(sizes), naive.local_edges(sizes) + bridges, k)


@given(profile_and_bridges(max_r=4, max_size=4), st.data())
@settings(max_examples=300, deadline=None)
def test_is_k_integrated_with_decides_one_more_bridge_exactly(case, data):
    # the search decides every leaf, and the randomized search every swap, that the leaf rule leaves
    # open this way; the pair may already be a bridge, and k runs past node_count - 1, where the layers stop
    sizes, universe, bridges = case
    k = data.draw(st.integers(1, sum(sizes) + 2))
    u, v = data.draw(st.sampled_from(universe))
    inst = oracle._Instance(sizes)
    expected = naive.is_k_integrated(sum(sizes), naive.local_edges(sizes) + bridges + [(u, v)], k)
    assert inst.is_k_integrated_with(inst.leaf_rule(bridges, k), k, u, v) == expected


@given(profile_and_bridges(max_r=4, max_size=3), st.integers(1, 4), st.data())
@settings(max_examples=300, deadline=None)
def test_grandparent_rule_refutes_only_infeasible_sets(case, k, data):
    # the rule a grandparent Q passes to its child Q + (a, b), applied to the leaf Q + (a, b) + (u, v)
    sizes, universe, bridges = case
    (a, b), (u, v) = data.draw(st.lists(st.sampled_from(universe), min_size=2, max_size=2))
    inst = oracle._Instance(sizes)
    near, short, _ = inst.leaf_rule(bridges, k)
    if short & ~near[a] & ~near[b] & ~(near[u] | near[v]):
        assert not naive.is_k_integrated(sum(sizes), naive.local_edges(sizes) + bridges + [(a, b), (u, v)], k)
        # the child's own balls refute the leaf too, so the rule does not change which leaves are decided from the layers
        near, short, _ = inst.leaf_rule(bridges + [(a, b)], k)
        assert short & ~(near[u] | near[v])


@given(profile_and_bridges(max_r=4, max_size=3), st.integers(1, 4), st.data())
@settings(max_examples=300, deadline=None)
def test_subtree_rule_refutes_only_infeasible_sets(case, k, data):
    # a source short in Q whose whole (k - 1)-ball lies below u0 stays short in Q plus any
    # bridges with both ends >= u0, so the search counts that subtree's leaves without walking it
    sizes, universe, bridges = case
    u0 = universe[data.draw(st.integers(0, len(universe) - 1))][0]
    near, short, _ = oracle._Instance(sizes).leaf_rule(bridges, k)
    if any(short >> s & 1 and not near[s] >> u0 for s in range(sum(sizes))):
        added = data.draw(st.lists(st.sampled_from([e for e in universe if e[0] >= u0]), unique=True))
        assert not naive.is_k_integrated(sum(sizes), naive.local_edges(sizes) + bridges + added, k)


@given(profile_and_bridges(max_r=4, max_size=4), st.data())
@settings(max_examples=300, deadline=None)
def test_source_with_its_ball_below_u0_stays_short_in_the_whole_suffix(case, data):
    # why a node needs no rule of its own to refute its subtree: its completion lies inside P plus every
    # pair from idx on, all with both ends >= u0, and a path from s reaches its first new end within
    # k - 1 hops of s in P, so a source short in P whose whole (k - 1)-ball lies below u0 stays short
    sizes, _, bridges = case
    inst = oracle._Instance(sizes)
    k = data.draw(st.integers(1, inst.node_count + 1))
    idx = data.draw(st.integers(0, len(inst.universe) - 1))
    u0 = inst.universe[idx][0]
    near, short, _ = inst.leaf_rule(bridges, k)
    if any(short >> s & 1 and not near[s] >> u0 for s in range(u0)):
        edges = naive.local_edges(sizes) + bridges + list(inst.universe[idx:])
        assert not naive.is_k_integrated(inst.node_count, edges, k)


def _gates(sizes):
    """Each node's gate, read off the symmetry rule: the previous slot, or slot 0 of an equal-size previous community."""
    gate, lo = {}, 0
    for c, size in enumerate(sizes):
        gate[lo] = lo - size if c and sizes[c - 1] == size else None
        gate.update((x, x - 1) for x in range(lo + 1, lo + size))
        lo += size
    return gate


@pytest.mark.parametrize("sizes", [(2, 2), (1, 2, 3), (2, 2, 2), (3, 3, 3), (1, 1, 2, 2), (2, 2, 2, 2), (4, 4), (1, 2, 3, 4)])
def test_leaf_count_matches_a_plain_walk(sizes):
    # every start index, every open mask the gates can reach before it, 1 to 3 bridges left
    inst = oracle._Instance(sizes)
    gate = _gates(sizes)
    universe = inst.universe

    def take(open_, x):
        # x holds a bridge: it and the nodes it gates may take one
        return open_ | {x} | {y for y, g in gate.items() if g == x}

    def walk(open_, i, left):
        if left == 0:
            return 1
        total = 0
        for j in range(i, len(universe)):
            u, v = universe[j]
            if u in open_ and v in take(open_, u):
                total += walk(take(take(open_, u), v), j + 1, left - 1)
        return total

    reachable = {frozenset(x for x, g in gate.items() if g is None)}
    for i, (u, v) in enumerate(universe):
        for open_ in reachable:
            mask = sum(1 << x for x in open_)
            for left in (1, 2, 3):
                assert inst.leaf_count(i, mask, left) == walk(open_, i, left)
        reachable |= {take(take(o, u), v) for o in reachable if u in o and v in take(o, u)}


def _count_kernel_calls(monkeypatch) -> dict[str, int]:
    """Counts of the kernel calls made from now on, kept current."""
    calls = {"leaf_rule": 0, "is_k_integrated_with": 0, "is_k_integrated": 0}
    for name in calls:
        method = getattr(oracle._Instance, name)

        def counting(self, *args, name=name, method=method):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(oracle._Instance, name, counting)
    return calls


# leaf_rule calls (every level's together), leaves decided from a rule's layers and
# completion tests on the benchmark's rows; every completion test is one
# is_k_integrated call.  Before the layers decided a leaf, each was one more
# is_k_integrated call: 538 + 1,306, 1,216 + 179 and 0 + 340 calls.  Without
# the grandparent rule every parent grew its own balls, 21,760, 2,549 and 27,210
# calls; before whole subtrees were refuted 9,936, 2,004 and 7,988; before subtrees
# were refuted by their completion 8,516/1,618, 1,964/1,721 and 6,493/0 calls and
# checks; while a node tested its completion only when it had lost a pair since an
# ancestor's k-integrated one, 1,224, 176 and 332 tests; while only nodes two and
# three bridges short grew their own balls, 2,632/1,306, 1,518/179 and 60/340 rules
# and tests.  The sets examined and the verdicts stayed the same throughout
LEAF_WORK = [
    ((4, 4, 4), 2, None, 2_681, 538, 1_148),
    ((4, 4, 4, 4), 3, None, 1_525, 1_216, 175),
    ((4, 4, 4, 4), 2, 300_000, 82, 0, 252),
]


@pytest.mark.parametrize("sizes,k,budget,rules,decided,tests", LEAF_WORK)
def test_leaf_work_is_pinned(monkeypatch, sizes, k, budget, rules, decided, tests):
    calls = _count_kernel_calls(monkeypatch)
    calls["completion"] = 0
    completion = oracle._Instance.completion

    def counting_tests(self, *args):
        calls["completion"] += 1
        return completion(self, *args)

    monkeypatch.setattr(oracle._Instance, "completion", counting_tests)
    min_bridges_for_sizes(sizes, k, budget or oracle.DEFAULT_BUDGET)
    assert calls == {"leaf_rule": rules, "is_k_integrated_with": decided, "is_k_integrated": tests,
                     "completion": tests}


# the per-size INFO counts of the benchmark's certified rows, sets/s left out: size, sets,
# refuted without a check, decided from the ball layers, subtrees refuted whole and the sets
# they held, those refuted by their completion, parents that grew their own balls and parents
# reached, budget used and budget.  A change to what the search decides shows here even when
# the verdict and the sets examined stay the same
INFO_COUNTS = {
    ((4, 4, 4), 2): [
        (2, 7, 7, 0, 1, 7, 1, 0, 0, 7, 2_000_000),
        (3, 49, 49, 0, 1, 49, 1, 0, 0, 56, 2_000_000),
        (4, 367, 367, 0, 7, 367, 5, 0, 0, 423, 2_000_000),
        (5, 2_706, 2_706, 0, 36, 2_587, 17, 8, 14, 3_129, 2_000_000),
        (6, 18_815, 18_805, 10, 399, 15_744, 88, 196, 404, 21_944, 2_000_000),
        (7, 121_389, 120_862, 527, 3_728, 92_134, 517, 1_957, 4_424, 143_333, 2_000_000),
        (8, 1, 0, 1, 0, 0, 0, 1, 1, 143_334, 2_000_000),
    ],
    ((4, 4, 4, 4), 3): [
        (3, 75, 73, 2, 2, 10, 0, 6, 8, 75, 2_000_000),
        (4, 774, 752, 22, 13, 151, 1, 48, 58, 849, 2_000_000),
        (5, 8_144, 7_855, 289, 104, 2_307, 18, 408, 482, 8_993, 2_000_000),
        (6, 20_469, 19_566, 903, 215, 4_840, 38, 945, 1_105, 29_462, 2_000_000),
    ],
}


@pytest.mark.parametrize("sizes,k", sorted(INFO_COUNTS))
def test_info_counts_are_pinned(caplog, sizes, k):
    caplog.set_level(logging.INFO, logger="kintegration.oracle")
    min_bridges_for_sizes(sizes, k)
    messages = [re.sub(r", \d+ sets/s", "", record.getMessage()) for record in caplog.records]
    assert [tuple(map(int, re.findall(r"\d+", message))) for message in messages] == INFO_COUNTS[sizes, k]


def _search_nodes(sizes, m):
    """(chosen, start index, leaves below) of every node the gates admit in a size-m pass.

    Read off the symmetry rule with sets, independently of the search's masks.
    """
    gate = _gates(sizes)
    universe = naive.cross_pairs(sizes)

    def take(open_, x):
        return open_ | {x} | {y for y, g in gate.items() if g == x}

    def walk(chosen, i, open_):
        # the leaves below this node, after yielding every node below it
        leaves = []
        for j in range(i, len(universe)):
            u, v = universe[j]
            if u in open_ and v in take(open_, u):
                child = (*chosen, (u, v))
                leaves += (yield from walk(child, j + 1, take(take(open_, u), v))) if len(child) < m else [child]
        yield chosen, i, leaves
        return leaves

    yield from walk((), 0, frozenset(x for x, g in gate.items() if g is None))


@pytest.mark.parametrize("sizes,k", [((3, 3), 2), ((1, 2, 3), 2), ((1, 2, 3), 3), ((2, 2, 2), 2), ((2, 2, 2), 3),
                                     ((1, 1, 2, 2), 3)])
def test_completion_refutes_only_subtrees_without_a_feasible_leaf(sizes, k):
    # at every node two or more bridges short, in every pass, every leaf below lies inside
    # the node's completion; where the completion is not k-integrated, no leaf below is,
    # by brute force over the leaves
    inst = oracle._Instance(sizes)
    base = naive.local_edges(sizes)
    refuted = 0
    for m in range(len(sizes) - 1, len(inst.universe) + 1):
        for chosen, start_idx, leaves in _search_nodes(sizes, m):
            left = m - len(chosen)
            if left < 2:
                continue
            ends = sum(1 << x for x in {x for edge in chosen for x in edge})
            completion = set(chosen) | set(inst.completion(start_idx, ends, left))
            assert all(set(leaf) <= completion for leaf in leaves)
            if not naive.is_k_integrated(sum(sizes), base + sorted(completion), k):
                refuted += 1
                assert not any(naive.is_k_integrated(sum(sizes), base + list(leaf), k) for leaf in leaves)
    assert refuted > 0


@pytest.mark.parametrize("row", [row for row in PINNED if row[3] < 200_000], ids=lambda row: f"{row[0]}-k{row[1]}")
def test_completion_changes_no_verdict_and_no_count(monkeypatch, row):
    # with the cut turned off, the same sets are examined and the same verdicts come out, also
    # where a smaller budget stops the search partway: every cross pair together is 1-integrated,
    # so a completion of the whole universe never refutes a subtree
    sizes, k, budget, examined = row[:4]
    budgets = [budget or oracle.DEFAULT_BUDGET, 1, examined // 3, examined - 1]
    cut = [min_bridges_for_sizes(sizes, k, b) for b in budgets]
    monkeypatch.setattr(oracle._Instance, "completion", lambda self, *args: self.universe)
    assert [min_bridges_for_sizes(sizes, k, b) for b in budgets] == cut


def test_balls_stop_growing_after_node_count_minus_one_rounds(monkeypatch):
    # a check costs min(k, nodes - 1) rounds, feasible or not, so a huge k cannot
    # hang; the first round starts from the community masks, so it is not a grow call
    inst = oracle._Instance((1, 2, 3))
    grow = oracle._Instance.grow
    calls = 0

    def counting(self, balls, edges):
        nonlocal calls
        calls += 1
        return grow(self, balls, edges)

    monkeypatch.setattr(oracle._Instance, "grow", counting)
    assert inst.is_k_integrated([(0, 1), (1, 3)], 10**9)
    assert calls == inst.node_count - 2
    calls = 0
    assert not inst.is_k_integrated([(0, 1)], 10**9)
    assert calls == inst.node_count - 2
    calls = 0
    # the leaf rule reads its short sources off the same last layer, so it grows no further
    near, _, layers = inst.leaf_rule([(0, 1)], 10**9)
    assert calls == inst.node_count - 2
    assert len(layers) == inst.node_count and near is layers[-1]


def test_certified_minima_match_threshold_table():
    for r, n in [(2, 2), (2, 3), (3, 3)]:
        for k in (1, 2, 3):
            verdict = check_threshold_row(r, n, k).verdict
            bound = bridge_threshold(r, n, k)
            assert bound.exact
            assert verdict.min_bridges == bound.lower
            assert verdict.certified


def test_budget_exhaustion_is_a_partial_verdict():
    verdict = check_threshold_row(3, 3, 2, budget=5).verdict
    assert verdict.min_bridges is None
    assert verdict.witness is None
    assert not verdict.certified
    assert verdict.exhausted_size is not None
    assert verdict.sets_examined <= 5


def test_witness_is_feasible_and_minimal_by_one_less():
    # removing any single edge from the witness breaks feasibility
    verdict = min_bridges_for_sizes((3, 3), 2)
    base = naive.local_edges((3, 3))
    assert naive.is_k_integrated(6, base + list(verdict.witness), 2)
    for drop in verdict.witness:
        rest = [e for e in verdict.witness if e != drop]
        assert not naive.is_k_integrated(6, base + rest, 2)


def test_sizes_may_be_any_iterable():
    # the sizes are read once, so a generator is not used up by their validation
    verdict = min_bridges_for_sizes((3, 2), 2)
    assert min_bridges_for_sizes([3, 2], 2) == verdict
    assert min_bridges_for_sizes((s for s in (3, 2)), 2) == verdict
    assert min_bridges_for_sizes(iter([2, 2]), 2) == min_bridges_for_sizes((2, 2), 2)


def test_validation_errors():
    with pytest.raises(InvalidParamsError):
        check_threshold_row(0, 2, 2)
    with pytest.raises(InvalidParamsError):
        check_threshold_row(2, 2, 0)
    with pytest.raises(InvalidParamsError):
        min_bridges_for_sizes((), 2)
    with pytest.raises(InvalidParamsError, match="iterable"):
        min_bridges_for_sizes(5, 2)
    with pytest.raises(InvalidParamsError):
        min_bridges_for_sizes((2, 2), 2, budget=0)
    with pytest.raises(InvalidParamsError):
        min_bridges_randomized(2, 2, 2, trials=0)


def test_lopsided_sizes_are_refused_before_building(monkeypatch):
    def never(*args):
        raise AssertionError("the lopsided instance was built")

    # 20,000 cross pairs pass the pair limit, but 20,001 nodes need 20,001 masks of 20,001 bits
    monkeypatch.setattr(oracle, "_Instance", never)
    with pytest.raises(InvalidParamsError, match="more than the limit of 400000"):
        min_bridges_for_sizes((1, 20000), 3)


def test_randomized_upper_bound_is_sound():
    for r, n, k in [(2, 2, 2), (3, 3, 2), (3, 3, 3), (4, 3, 4)]:
        certified = min_bridges_for_sizes((n,) * r, k).min_bridges
        witness = min_bridges_randomized(r, n, k, trials=8, seed=3)
        assert len(witness) >= certified
        base = naive.local_edges((n,) * r)
        assert naive.is_k_integrated(r * n, base + list(witness), k)


def test_randomized_finds_exact_minimum_on_easy_cases():
    assert len(min_bridges_randomized(2, 2, 3, trials=4, seed=0)) == 1
    assert len(min_bridges_randomized(3, 2, 2, trials=10, seed=1)) == 4
    # the seed defaults to 0: seeds 0 and 1 find different two-bridge paths on three single nodes
    assert min_bridges_randomized(3, 1, 3) == ((0, 2), (1, 2)) != min_bridges_randomized(3, 1, 3, seed=1)


@pytest.mark.parametrize(
    "r,n,k,seed,trials,witness",
    [
        (8, 8, 2, 1, 2, tuple((0, v) for v in range(8, 64))),
        (8, 8, 3, 1, 2, tuple(itertools.combinations(range(0, 64, 8), 2))),
        (4, 1, 3, 2, 3, ((0, 1), (1, 3), (2, 3))),
        (4, 2, 3, 0, 3, ((0, 2), (0, 4), (0, 6), (2, 6), (5, 6))),
        (5, 2, 3, 1, 3, ((0, 3), (0, 8), (1, 6), (2, 4), (4, 6), (4, 8), (7, 8))),
        (6, 2, 3, 1, 3, ((0, 3), (0, 4), (0, 8), (0, 11), (2, 4), (4, 6), (4, 7), (4, 8), (4, 10))),
    ],
)
def test_randomized_witness_is_pinned(r, n, k, seed, trials, witness):
    # the swaps draw from the RNG in a fixed order, so a seed names one witness
    assert min_bridges_randomized(r, n, k, trials=trials, seed=seed) == witness


def _seed_bridges(r, n, k):
    """The bridges of the construction the randomized search starts from."""
    built = two_star(r, n) if k == 2 else extended_star(r, n, complete_quotient(r) if k == 3 else star_quotient(r))
    return {(u, v) for u, v in built.graph.edges if built.graph.community_of[u] != built.graph.community_of[v]}


@given(st.integers(2, 4), st.integers(1, 3), st.integers(0, 3), st.integers(0, 2**32), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_randomized_matches_plain_shuffle_and_prune(r, n, extra, seed, trials):
    # the leaf-rule tables change which checks run, never a verdict, and the draws map to the same pairs
    k = 2 + extra % r
    expected = naive.shuffle_and_prune(r, n, k, _seed_bridges(r, n, k), trials, seed)
    assert min_bridges_randomized(r, n, k, trials=trials, seed=seed) == expected


# leaf_rule, is_k_integrated_with and is_k_integrated calls of the 20-trial seed-1 rows; on (6, 1, 3) prunes drop
# edges of the starting set, each removal starting a fresh table.  The one is_k_integrated call
# checks the starting set.  Before the prune after a swap decided each edge the old set's table holds
# from that rule's layers, it kept only the edges the O(1) rule refutes: 56/0, 713/229 and 306/18.
# Before the layers decided a swap and the prune after a swap read the old
# set's table, each open swap was an is_k_integrated call: 56/1, 1,092/230 and 315/19 leaf rules
# and checks.  Before each bridge set kept a table of leaf rules, every prune step and every swap
# was a full check: 0/3,361 and 0/2,745 calls on the (8, 8) rows
RANDOMIZED_WORK = [(8, 8, 2, 56, 0), (8, 8, 3, 663, 1_031), (6, 1, 3, 300, 49)]


@pytest.mark.parametrize("r,n,k,rules,decided", RANDOMIZED_WORK)
def test_randomized_work_is_pinned(monkeypatch, r, n, k, rules, decided):
    calls = _count_kernel_calls(monkeypatch)
    min_bridges_randomized(r, n, k, trials=20, seed=1)
    assert calls == {"leaf_rule": rules, "is_k_integrated_with": decided, "is_k_integrated": 1}


def test_randomized_k1_and_r1():
    assert min_bridges_randomized(1, 5, 2) == ()
    assert len(min_bridges_randomized(2, 2, 1)) == 4


STAR = ((0, 4), (0, 8), (0, 12))  # 3 bridges, 4 ends, on four communities of 4
TRIANGLE = ((0, 4), (0, 8), (4, 8))  # 3 bridges, 3 ends
SIX = ((0, 4), (0, 8), (0, 12), (4, 8), (4, 12), (8, 12))  # 6 bridges, 4 ends


@pytest.mark.parametrize(
    "witness, exact, agrees",
    [
        pytest.param(STAR, True, True, id="exactly-lower-bridges"),
        pytest.param(STAR[:2], True, False, id="one-bridge-fewer"),
        pytest.param(((0, 4), (8, 12)), False, False, id="one-bridge-fewer-all-ends"),
        pytest.param(TRIANGLE, True, False, id="one-central-fewer"),
        pytest.param(TRIANGLE, False, False, id="one-central-fewer-randomized"),
        pytest.param(SIX[:5], True, True, id="certified-at-upper"),
        pytest.param(SIX, True, False, id="certified-above-upper"),
        pytest.param(SIX, False, True, id="randomized-above-upper"),
    ],
)
def test_fits_row_boundaries(witness, exact, agrees):
    # the row needs 3 to 5 bridges and 4 centrals
    assert oracle.fits_row(ThresholdRow(k=2, bridges=Bound(3, 5), centrals=4), witness, exact) is agrees


def test_check_threshold_row_agreement():
    rc = check_threshold_row(3, 3, 2)
    assert rc.agrees is True
    assert rc.verdict.min_bridges == 6
    # the two-star: one hub bridged to the six nodes outside its community, 7 centrals
    assert rc.verdict.witness == tuple((0, v) for v in range(3, 9))


def test_check_threshold_row_interval():
    # the row's bound is the interval [3, 6]; the minimum, a star on the hubs, sits at its lower end
    rc = check_threshold_row(4, 4, 4)
    assert rc.verdict.min_bridges == 3
    assert rc.verdict.witness == ((0, 4), (0, 8), (0, 12))
    assert rc.agrees is True


def test_check_threshold_row_budget_exhaustion():
    rc = check_threshold_row(3, 3, 2, budget=3)
    assert rc.agrees is None
    assert rc.verdict.min_bridges is None
