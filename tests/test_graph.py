import random

import pytest

from kintegration import (
    EmptyCommunityMapError,
    SelfLoopError,
    UnknownNodeError,
    bridges,
    build_graph,
    central_nodes,
    is_locally_complete,
    local_edges,
    localize_complete,
)

from helpers import islands, random_community_graph, remove_edge


def test_build_graph_interns_in_sorted_key_order():
    g = build_graph([(10, 2), (2, 7)], {7: "b", 2: "a", 10: "a"})
    assert g.tokens == ("2", "7", "10")
    assert g.community_tokens == ("a", "b")
    assert g.community_of == (0, 1, 0)
    assert g.edges == ((0, 1), (0, 2))


def test_build_graph_collapses_duplicate_edges():
    g = build_graph([("x", "y"), ("y", "x"), ("x", "y")], {"x": "c", "y": "c"})
    assert g.edges == ((0, 1),)


def test_build_graph_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        build_graph([("x", "x")], {"x": "c"})


def test_build_graph_rejects_unknown_node():
    with pytest.raises(UnknownNodeError):
        build_graph([("x", "y")], {"x": "c"})


def test_build_graph_checks_self_loop_then_first_then_second_end():
    communities = {"x": "c", "y": "c"}
    for edges, error, node in [
        ([("zz", "zz")], SelfLoopError, "zz"),
        ([("zz", "ww")], UnknownNodeError, "zz"),
        ([("x", "ww"), ("zz", "zz")], UnknownNodeError, "ww"),
        ([("x", "y"), ("y", "y"), ("zz", "x")], SelfLoopError, "y"),
    ]:
        with pytest.raises(error) as err:
            build_graph(edges, communities)
        assert err.value.node == node


def test_build_graph_rejects_empty_community_map():
    with pytest.raises(EmptyCommunityMapError):
        build_graph([], {})


def test_nodes_without_edges_are_kept():
    g = build_graph([], {"a": "c1", "b": "c2"})
    assert g.node_count == 2
    assert g.edge_count == 0
    assert g.degree(0) == 0


def test_sample_structure(sample_graph):
    g = sample_graph
    assert g.node_count == 12
    assert g.community_count == 3
    assert g.edge_count == 20
    assert len(local_edges(g)) == 18
    token_bridges = {(g.tokens[u], g.tokens[v]) for u, v in bridges(g)}
    assert token_bridges == {("02", "12"), ("13", "22")}
    assert {g.tokens[u] for u in central_nodes(g)} == {"02", "12", "13", "22"}


def test_adjacency_queries(sample_graph):
    g = sample_graph
    id_of = {t: i for i, t in enumerate(g.tokens)}
    assert id_of["12"] in g.adjacency[id_of["02"]]
    assert id_of["12"] not in g.adjacency[id_of["01"]]
    assert g.is_bridge(id_of["02"], id_of["12"])
    assert not g.is_bridge(id_of["01"], id_of["02"])
    assert g.degree(id_of["02"]) == 4
    assert g.community_sizes == (4, 4, 4)


def test_is_locally_complete_and_witnesses(sample_graph):
    ok, missing = is_locally_complete(sample_graph)
    assert ok and missing == []
    broken = remove_edge(sample_graph, 0, 1)
    ok, missing = is_locally_complete(broken)
    assert not ok
    assert missing == [(0, 1)]


def test_is_locally_complete_caps_witnesses():
    bare = build_graph([], {u: 0 for u in range(6)})
    ok, missing = is_locally_complete(bare, max_witnesses=3)
    assert not ok
    assert len(missing) == 3
    assert all(v not in bare.adjacency[u] for u, v in missing)


def test_islands_helper_is_locally_complete():
    g = islands(3, 4, [(0, 4)])
    assert is_locally_complete(g) == (True, [])
    assert len(local_edges(g)) == 18
    assert bridges(g) == [(0, 4)]


def test_localize_complete_restores_missing_edges(sample_graph):
    broken = remove_edge(remove_edge(sample_graph, 0, 1), 4, 6)
    fixed = localize_complete(broken)
    assert is_locally_complete(fixed) == (True, [])
    assert fixed.tokens == sample_graph.tokens
    assert fixed.community_of == sample_graph.community_of
    assert bridges(fixed) == bridges(sample_graph)
    assert fixed.edges == sample_graph.edges


def test_localize_complete_idempotent(sample_graph):
    once = localize_complete(sample_graph)
    assert localize_complete(once).edges == once.edges


def _census_by_definition(g):
    """Bridges, centrals and local-edge count filtered from the full edge tuple."""
    cross = [(u, v) for u, v in g.edges if g.community_of[u] != g.community_of[v]]
    local = [(u, v) for u, v in g.edges if g.community_of[u] == g.community_of[v]]
    return cross, {x for edge in cross for x in edge}, len(local)


def _census_cases():
    rng = random.Random(7)
    for _ in range(60):
        yield random_community_graph(rng, 14, connected=rng.random() < 0.5)
    yield build_graph([], {"a": "c1", "b": "c2", "c": "c2"})  # no edges at all
    yield build_graph([("a", "b")], {"a": 0, "b": 0, "z": 0})  # one community, an isolated node
    yield islands(4, 3)  # several communities, zero bridges
    yield islands(3, 3, [(0, 3), (0, 6), (4, 8)])
    yield build_graph([(0, 1), (1, 2)], {0: 0, 1: 1, 2: 0, 3: 1})  # isolated node beside bridges


def test_census_matches_edge_filter_definitions():
    for g in _census_cases():
        cross, centrals, local_count = _census_by_definition(g)
        assert bridges(g) == cross
        assert central_nodes(g) == centrals
        assert g.census.bridges == tuple(cross)
        assert g.census.central == centrals
        assert g.census.local_edge_count == local_count == len(local_edges(g))
        assert g.edge_count == len(g.edges)


def test_census_results_are_fresh_containers(sample_graph):
    g = sample_graph
    before_bridges, before_centrals = bridges(g), central_nodes(g)
    listed = bridges(g)
    listed.append((0, 1))
    listed.clear()
    found = central_nodes(g)
    found.add(0)
    found.discard(before_bridges[0][0])
    assert bridges(g) == before_bridges
    assert central_nodes(g) == before_centrals
    assert bridges(g) is not bridges(g)
    assert central_nodes(g) is not central_nodes(g)
