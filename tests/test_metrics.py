import itertools
import logging
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kintegration import (
    KIntegrationError,
    InvalidParamsError,
    build_graph,
    build_report,
    complete_join,
    extended_star,
    integration_level,
    is_k_integrated,
    path_quotient,
    star_quotient,
    two_star,
)
from kintegration import cli, metrics
from kintegration.metrics import _TwinQuotient

import naive
from helpers import islands, random_community_graph

# token ids in the sample graph: communities occupy 0-3, 4-7, 8-11


def test_integration_level_sample(sample_graph):
    assert integration_level(sample_graph) == 5


def test_integration_level_edge_cases():
    assert integration_level(build_graph([], {0: "a"})) == 0
    assert integration_level(build_graph([(0, 1)], {0: "a", 1: "a"})) == 1
    assert integration_level(build_graph([], {0: "a", 1: "b"})) is None


def test_is_k_integrated_witnesses_sample(sample_graph):
    id_of = {t: i for i, t in enumerate(sample_graph.tokens)}
    for k in (1, 2):
        verdict = is_k_integrated(sample_graph, k)
        assert not verdict.integrated
        assert verdict.witness == (id_of["01"], id_of["11"])
        assert verdict.witness_distance == 3
    for k in (3, 4):
        verdict = is_k_integrated(sample_graph, k)
        assert not verdict.integrated
        assert verdict.witness == (id_of["01"], id_of["21"])
        assert verdict.witness_distance == 5
    assert is_k_integrated(sample_graph, 5).integrated
    assert is_k_integrated(sample_graph, 6).integrated


def test_is_k_integrated_unreachable_witness():
    g = islands(2, 2)  # no bridges
    verdict = is_k_integrated(g, 3)
    assert not verdict.integrated
    assert verdict.witness == (0, 2)
    assert verdict.witness_distance is None


def test_is_k_integrated_k0():
    single = build_graph([], {0: "a"})
    assert is_k_integrated(single, 0).integrated
    pair = build_graph([(0, 1)], {0: "a", 1: "a"})
    verdict = is_k_integrated(pair, 0)
    assert not verdict.integrated
    assert verdict.witness == (0, 1)
    assert verdict.witness_distance == 1
    with pytest.raises(InvalidParamsError):
        is_k_integrated(pair, -1)


def _random_islands(rng):
    """Locally complete graph: members of a community not touched by a bridge are twins."""
    r, n = rng.randint(1, 4), rng.randint(1, 4)
    cross = [(u, v) for u in range(r * n) for v in range(u + 1, r * n) if u // n != v // n]
    return islands(r, n, rng.sample(cross, rng.randint(0, min(len(cross), r + 1))))


def _assert_witness(verdict, expected):
    if expected is None:
        assert verdict.integrated
    else:
        assert not verdict.integrated
        assert (verdict.witness[0], verdict.witness[1], verdict.witness_distance) == expected


def test_witness_matches_naive_rule_on_random_graphs():
    rng = random.Random(402)
    graphs = [random_community_graph(rng, 18, connected=rng.random() < 0.7) for _ in range(60)]
    graphs += [islands(1, 1), islands(1, 3), islands(3, 2)]
    graphs += [_random_islands(rng) for _ in range(40)]
    for g in graphs:
        edges = list(g.edges)
        ks = (0, 1, 2, 3, g.node_count)
        report = build_report(g, ks)
        assert report.k_star == naive.diameter(g.node_count, edges)
        assert [v.k for v in report.per_k] == list(ks)
        assert report.reach_profile == naive.reach_profile(g.node_count, edges, ks)
        for k, row in zip(ks, report.per_k):
            expected = naive.violation_witness(g.node_count, edges, k)
            _assert_witness(row, expected)
            _assert_witness(is_k_integrated(g, k), expected)


def test_twin_classes_are_the_closed_neighborhood_groups():
    rng = random.Random(403)
    graphs = [random_community_graph(rng, 18, connected=rng.random() < 0.7) for _ in range(60)]
    graphs += [islands(1, 1), islands(1, 3), islands(3, 2), islands(2, 300, [(0, 300)])]
    graphs += [_random_islands(rng) for _ in range(40)]
    for r, n in [(1, 3), (2, 1), (3, 4), (5, 3)]:
        graphs += [complete_join(r, n).graph, two_star(r, n).graph, extended_star(r, n, star_quotient(r)).graph]
    for g in graphs:
        groups = {}
        for u, nbs in enumerate(g.adjacency):
            groups.setdefault(frozenset(nbs) | {u}, []).append(u)
        assert _TwinQuotient(g).classes == sorted(groups.values(), key=lambda members: members[0])


def test_build_report_sample(sample_graph):
    report = build_report(sample_graph, [2, 5])
    assert report.k_star == 5
    assert [v.k for v in report.per_k] == [2, 5]
    assert report.reach_profile[2] == (5, 8, 5, 5, 6, 9, 9, 6, 5, 8, 5, 5)
    assert report.reach_profile[5] == (12,) * 12


def test_eccentricity_is_the_first_full_reach_count(sample_graph):
    # a node's eccentricity is the least k whose reach count is the node count
    id_of = {t: i for i, t in enumerate(sample_graph.tokens)}
    n = sample_graph.node_count
    profile = build_report(sample_graph, range(n + 1)).reach_profile
    assert min(k for k in profile if profile[k][id_of["01"]] == n) == 5
    assert min(k for k in profile if profile[k][id_of["12"]] == n) == 3
    assert profile[1][id_of["01"]] == 4 and profile[2][id_of["01"]] == 5
    # a node that cannot reach every other one never fills its count
    g = build_graph([(0, 1)], {0: "a", 1: "a", 2: "b"})
    assert all(counts[0] < 3 for counts in build_report(g, range(4)).reach_profile.values())


def test_reach_profile_matches_naive(sample_graph):
    ks = range(sample_graph.node_count + 1)
    expected = naive.reach_profile(sample_graph.node_count, list(sample_graph.edges), ks)
    assert build_report(sample_graph, ks).reach_profile == expected


def test_twin_reduction_keeps_large_stars_cheap():
    # 600 nodes collapse to four twin classes
    g = islands(2, 300, [(0, 300)])
    assert integration_level(g) == 3
    report = build_report(g, [2, 3])
    assert not report.per_k[0].integrated
    assert report.per_k[0].witness == (1, 301)
    assert report.per_k[1].integrated


def test_every_kernel_entry_refuses_more_classes_than_the_limit(monkeypatch):
    # a 4-node path has 4 twin classes; under a limit of 3 each entry refuses it before any round
    def never(adjacency):
        raise AssertionError("the distance kernel ran")

    monkeypatch.setattr(metrics, "MAX_CLASSES", 3)
    monkeypatch.setattr(metrics, "_ball_levels", never)
    g = islands(4, 1, [(0, 1), (1, 2), (2, 3)])
    message = "the graph has 4 twin classes, more than the limit of 3"
    for entry in (integration_level, lambda g: is_k_integrated(g, 2), lambda g: build_report(g, [1])):
        with pytest.raises(KIntegrationError, match=message):
            entry(g)
    with pytest.raises(KIntegrationError, match=message):
        path_quotient(4).diameter
    # twins collapse first: 600 nodes in four classes pass a limit of 4
    monkeypatch.undo()
    monkeypatch.setattr(metrics, "MAX_CLASSES", 4)
    assert integration_level(islands(2, 300, [(0, 300)])) == 3


@st.composite
def _graph_and_ks(draw):
    """A random community graph of up to 39 nodes, and ks from 0 to node_count + 1.

    The base nodes fall into 1 to 3 components by id modulo the count,
    each a random tree plus random chords. Each base node is then blown
    up into a clique of 1 to 3 twins under shuffled ids, so twin classes
    of several members occur.
    """
    base = draw(st.integers(1, 13))
    parts = draw(st.integers(1, 3))
    copies = draw(st.lists(st.integers(1, 3), min_size=base, max_size=base))
    pairs = [(a, b) for a, b in itertools.combinations(range(base), 2) if (b - a) % parts == 0]
    base_edges = set(draw(st.lists(st.sampled_from(pairs), max_size=base))) if pairs else set()
    base_edges |= {(draw(st.sampled_from(range(b % parts, b, parts))), b) for b in range(parts, base)}
    node_count = sum(copies)
    ids = draw(st.permutations(range(node_count)))
    groups, start = [], 0
    for size in copies:
        groups.append(ids[start:start + size])
        start += size
    edges = [pair for group in groups for pair in itertools.combinations(group, 2)]
    edges += [(u, v) for a, b in base_edges for u in groups[a] for v in groups[b]]
    labels = draw(st.lists(st.integers(0, 3), min_size=node_count, max_size=node_count))
    g = build_graph(edges, dict(enumerate(labels)))
    ks = draw(st.lists(st.integers(0, node_count + 1), min_size=1, max_size=8))
    return g, ks


@given(_graph_and_ks())
@settings(max_examples=150, deadline=None)
def test_every_report_row_matches_the_naive_witness(case):
    g, ks = case
    edges = list(g.edges)
    expected = {k: naive.violation_witness(g.node_count, edges, k) for k in set(ks)}
    report = build_report(g, ks)
    assert [row.k for row in report.per_k] == ks
    for k, row in zip(ks, report.per_k):
        _assert_witness(row, expected[k])
        assert is_k_integrated(g, k) == row


def test_witness_distances_come_from_the_report_rows(sample_graph, data_dir, capsys):
    report = build_report(sample_graph, [0, 1, 2, 3, 4, 5, 6])
    assert [row.witness_distance for row in report.per_k] == [1, 3, 3, 5, 5, None, None]
    assert is_k_integrated(sample_graph, 4) == report.per_k[4]
    files = ["--edges", str(data_dir / "sample_edges.txt"), "--communities", str(data_dir / "sample_communities.txt")]
    assert cli.main(["analyze", *files, "--k", "1,2,3,4,5,6"]) == 0
    assert capsys.readouterr().err == ""


def _kernel_work(adjacency) -> tuple[int, int]:
    """Levels ``_ball_levels`` yields over ``adjacency``, and the neighbour tuples it walks to get them."""
    walks = 0

    class Counting(tuple):
        def __iter__(self):
            nonlocal walks
            walks += 1
            return super().__iter__()

    levels = len(list(metrics._ball_levels([Counting(nbs) for nbs in adjacency])))
    return levels, walks


def test_kernel_work_is_pinned(sample_graph):
    # a ball already full is not grown again: without that skip the star walks
    # 5 tuples in each of its 3 rounds (15) and the sample 12 in each of its 6 (72)
    assert _kernel_work(((1, 2, 3, 4), (0,), (0,), (0,), (0,))) == (3, 9)
    assert _kernel_work(sample_graph.adjacency) == (6, 50)


def test_build_report_logs_its_kernel_counts(sample_graph, caplog):
    caplog.set_level(logging.INFO, logger="kintegration.metrics")
    build_report(sample_graph, [1, 2, 3, 4, 5, 6])
    message, = [record.getMessage() for record in caplog.records]
    # 7 classes, closed after 5 rounds, k* 5, and one witness source (node 01) for k = 1..4
    assert re.sub(r", [\d.]+ s$", "", message) == (
        "distance kernel: 7 classes, closed after 5 rounds, k* 5, 1 distinct witness sources"
    )
