import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kintegration import (
    InvalidParamsError,
    bridge_threshold,
    check_threshold_row,
    min_bridges_exhaustive,
    min_bridges_for_sizes,
    min_bridges_randomized,
    oracle,
)

import naive


def test_single_community_needs_nothing():
    verdict = min_bridges_exhaustive(1, 4, 2)
    assert verdict.min_bridges == 0
    assert verdict.witness == ()
    assert verdict.certified


def test_k1_is_the_full_cross_set():
    verdict = min_bridges_exhaustive(3, 2, 1)
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
]


@pytest.mark.parametrize("sizes,k,budget,examined,exhausted,minimum,witness", PINNED)
def test_search_work_is_pinned(sizes, k, budget, examined, exhausted, minimum, witness):
    verdict = min_bridges_for_sizes(sizes, k, budget or oracle.DEFAULT_BUDGET)
    assert verdict.sets_examined == examined
    assert verdict.exhausted_size == exhausted
    assert verdict.min_bridges == minimum
    assert verdict.witness == witness
    assert verdict.certified is (minimum is not None)


def _boundary_cases():
    # budgets 1, E - 1, E, E + 1 and seeded draws around them, for each small unbudgeted row
    rng = random.Random(9)
    for row in PINNED:
        sizes, k, budget, examined = row[:4]
        if budget is None and examined < 5_000:
            draws = {rng.randint(1, examined + 5) for _ in range(16)}
            for b in sorted({1, examined - 1, examined, examined + 1} | draws):
                yield pytest.param(row, b, id=f"{sizes}-k{k}-b{b}")


@pytest.mark.parametrize("row,budget", _boundary_cases())
def test_budget_boundary_is_exact(row, budget):
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


@st.composite
def profile_and_bridges(draw, max_r, max_size):
    sizes = tuple(sorted(draw(st.lists(st.integers(1, max_size), min_size=2, max_size=max_r))))
    universe = naive.cross_pairs(sizes)
    bridges = draw(st.lists(st.sampled_from(universe), unique=True, max_size=len(universe)))
    return sizes, universe, sorted(bridges)


@given(profile_and_bridges(max_r=4, max_size=6), st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_ball_kernel_matches_naive(case, k):
    # size-1 communities and lopsided profiles such as (1, 6) included
    sizes, _, bridges = case
    inst = oracle._instance(sizes)
    assert inst.is_k_integrated(bridges, k) == naive.is_k_integrated(sum(sizes), naive.local_edges(sizes) + bridges, k)


@given(profile_and_bridges(max_r=4, max_size=3), st.integers(1, 4), st.data())
@settings(max_examples=300, deadline=None)
def test_leaf_rule_refutes_only_infeasible_sets(case, k, data):
    sizes, universe, bridges = case
    u, v = data.draw(st.sampled_from(universe))
    near, short = oracle._instance(sizes).leaf_rule(bridges, k)
    if short & ~(near[u] | near[v]):
        assert not naive.is_k_integrated(sum(sizes), naive.local_edges(sizes) + bridges + [(u, v)], k)


@given(profile_and_bridges(max_r=4, max_size=3), st.integers(1, 4), st.data())
@settings(max_examples=300, deadline=None)
def test_grandparent_rule_refutes_only_infeasible_sets(case, k, data):
    # the rule a grandparent Q passes to its child Q + (a, b), applied to the leaf Q + (a, b) + (u, v)
    sizes, universe, bridges = case
    (a, b), (u, v) = data.draw(st.lists(st.sampled_from(universe), min_size=2, max_size=2))
    inst = oracle._instance(sizes)
    near, short = inst.leaf_rule(bridges, k)
    if short & ~near[a] & ~near[b] & ~(near[u] | near[v]):
        assert not naive.is_k_integrated(sum(sizes), naive.local_edges(sizes) + bridges + [(a, b), (u, v)], k)
        # the child's own balls refute the leaf too, so the rule does not change which leaves are checked in full
        near, short = inst.leaf_rule(bridges + [(a, b)], k)
        assert short & ~(near[u] | near[v])


# leaf_rule calls (grandparents' and parents' together) and full checks on the
# benchmark's rows: without the grandparent rule every parent grew its own balls,
# 21,760, 2,549 and 27,210 calls, and the full checks were the same
LEAF_WORK = [
    ((4, 4, 4), 2, None, 9_936, 1_618),
    ((4, 4, 4, 4), 3, None, 2_004, 1_721),
    ((4, 4, 4, 4), 2, 300_000, 7_988, 0),
]


@pytest.mark.parametrize("sizes,k,budget,rules,checks", LEAF_WORK)
def test_leaf_work_is_pinned(monkeypatch, sizes, k, budget, rules, checks):
    calls = {"leaf_rule": 0, "is_k_integrated": 0}
    for name in calls:
        method = getattr(oracle._Instance, name)

        def counting(self, edges, k, name=name, method=method):
            calls[name] += 1
            return method(self, edges, k)

        monkeypatch.setattr(oracle._Instance, name, counting)
    min_bridges_for_sizes(sizes, k, budget or oracle.DEFAULT_BUDGET)
    assert calls == {"leaf_rule": rules, "is_k_integrated": checks}


def test_balls_stop_growing_after_node_count_minus_one_rounds(monkeypatch):
    # a check costs min(k, nodes - 1) rounds, so a huge k cannot hang; the first
    # round starts from the community masks, so it is not a grow call
    inst = oracle._instance((1, 2, 3))
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
    inst.leaf_rule([(0, 1)], 10**9)
    assert calls == inst.node_count - 1


def test_certified_minima_match_threshold_table():
    for r, n in [(2, 2), (2, 3), (3, 3)]:
        for k in (1, 2, 3):
            verdict = min_bridges_exhaustive(r, n, k)
            bound = bridge_threshold(r, n, k)
            assert bound.exact
            assert verdict.min_bridges == bound.lower
            assert verdict.certified


def test_budget_exhaustion_is_a_partial_verdict():
    verdict = min_bridges_exhaustive(3, 3, 2, budget=5)
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


def test_validation_errors():
    with pytest.raises(InvalidParamsError):
        min_bridges_exhaustive(0, 2, 2)
    with pytest.raises(InvalidParamsError):
        min_bridges_exhaustive(2, 2, 0)
    with pytest.raises(InvalidParamsError):
        min_bridges_for_sizes((), 2)
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
        certified = min_bridges_exhaustive(r, n, k).min_bridges
        rb = min_bridges_randomized(r, n, k, trials=8, seed=3)
        assert rb.upper_bound >= certified
        base = naive.local_edges((n,) * r)
        assert naive.is_k_integrated(r * n, base + list(rb.witness), k)


def test_randomized_finds_exact_minimum_on_easy_cases():
    assert min_bridges_randomized(2, 2, 3, trials=4, seed=0).upper_bound == 1
    assert min_bridges_randomized(3, 2, 2, trials=10, seed=1).upper_bound == 4


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
    assert min_bridges_randomized(r, n, k, trials=trials, seed=seed).witness == witness


def test_randomized_k1_and_r1():
    assert min_bridges_randomized(1, 5, 2).upper_bound == 0
    assert min_bridges_randomized(2, 2, 1).upper_bound == 4


def test_check_threshold_row_agreement():
    rc = check_threshold_row(3, 3, 2)
    assert rc.agrees is True
    assert rc.verdict.min_bridges == 6
    assert rc.witness_centrals == 7
    assert rc.centrals_required == 7


def test_check_threshold_row_interval():
    rc = check_threshold_row(4, 4, 4)
    assert rc.bound.lower == 3 and rc.bound.upper == 6
    assert rc.verdict.min_bridges == 3
    assert rc.agrees is True


def test_check_threshold_row_budget_exhaustion():
    rc = check_threshold_row(3, 3, 2, budget=3)
    assert rc.agrees is None
    assert rc.verdict.min_bridges is None
