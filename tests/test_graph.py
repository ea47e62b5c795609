import itertools
import random

import pytest

from kintegration import (
    EmptyCommunityMapError,
    SelfLoopError,
    UnknownNodeError,
    bridges,
    build_graph,
    central_nodes,
    complete_join,
    complete_quotient,
    cycle_quotient,
    extended_star,
    figure1_quotient,
    is_locally_complete,
    load_graph,
    local_edges,
    localize_complete,
    path_quotient,
    star_quotient,
    two_star,
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
    assert len(g.adjacency[0]) == 0


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
    assert g.community_of[id_of["02"]] != g.community_of[id_of["12"]]
    assert g.community_of[id_of["01"]] == g.community_of[id_of["02"]]
    assert len(g.adjacency[id_of["02"]]) == 4
    assert g.community_sizes == (4, 4, 4)


def test_is_locally_complete_and_witnesses(sample_graph):
    ok, missing = is_locally_complete(sample_graph)
    assert ok and missing == []
    broken = remove_edge(sample_graph, 0, 1)
    ok, missing = is_locally_complete(broken)
    assert not ok
    assert missing == [(0, 1)]


def test_is_locally_complete_caps_witnesses():
    # one community of 6 with no edges misses 15 pairs; the first ten are named
    bare = build_graph([], {u: 0 for u in range(6)})
    ok, missing = is_locally_complete(bare)
    assert not ok
    assert missing == list(itertools.combinations(range(6), 2))[:10]


@pytest.mark.parametrize("sizes", [(1,), (1, 1), (2,), (2, 4), (5,), (6,), (4, 4)], ids=str)
def test_is_locally_complete_names_the_first_ten_missing_pairs(sizes):
    # edgeless communities of the given sizes; the cap of ten may fall inside a later community
    communities, start = {}, 0
    for c, size in enumerate(sizes):
        communities.update({u: c for u in range(start, start + size)})
        start += size
    g = build_graph([], communities)
    every_missing = [pair for members in g.community_members for pair in itertools.combinations(members, 2)]
    ok, missing = is_locally_complete(g)
    assert ok == (not every_missing)
    assert missing == every_missing[:10]


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


def _assert_adjacency_invariant(g):
    """Each neighbour tuple is strictly ascending and leaves out its own node."""
    for u, nbs in enumerate(g.adjacency):
        assert all(a < b for a, b in zip(nbs, nbs[1:])), (u, nbs)
        assert u not in nbs, (u, nbs)


def _constructions():
    """Every family at a few sizes; star quotients put a hub's bridges after its block and the leaves' before."""
    for r, n in [(1, 1), (1, 4), (2, 1), (2, 3), (3, 4), (5, 2)]:
        yield complete_join(r, n).graph
        yield two_star(r, n).graph
        yield extended_star(r, n, star_quotient(r)).graph
        yield extended_star(r, n, path_quotient(r)).graph
        yield extended_star(r, n, complete_quotient(r)).graph
    yield extended_star(4, 3, cycle_quotient(4)).graph
    for k in range(4, 10):
        yield extended_star(8, 3, figure1_quotient(k)).graph


def test_adjacency_is_strictly_ascending_without_self_for_every_producer(tmp_path):
    communities = {"b": 1, "a": 0, "c": 0, "d": 1}
    listed = [("d", "a"), ("a", "d"), ("c", "a"), ("a", "c"), ("c", "a"), ("d", "b"), ("b", "c")]
    g = build_graph(listed, communities)
    assert g.adjacency == ((2, 3), (2, 3), (0, 1), (0, 1))
    _assert_adjacency_invariant(g)
    (tmp_path / "e.txt").write_text("# comment\nd a\na d\n\nc  a\r\nc a\nd b\nb c\n")
    (tmp_path / "c.txt").write_text("".join(f"{u} {c}\n" for u, c in communities.items()))
    loaded = load_graph(tmp_path / "e.txt", tmp_path / "c.txt")
    assert loaded.adjacency == g.adjacency
    _assert_adjacency_invariant(loaded)
    rng = random.Random(11)
    for _ in range(20):
        sparse = random_community_graph(rng, 12, connected=False)
        _assert_adjacency_invariant(sparse)
        _assert_adjacency_invariant(localize_complete(sparse))
    for built in _constructions():
        _assert_adjacency_invariant(built)


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
    yield from _constructions()
    yield two_star(40, 60).graph  # a hub with 2,340 bridges
    yield complete_join(3, 40).graph  # 80 bridges a node, before and after its block
    yield extended_star(30, 3, star_quotient(30)).graph


def test_census_matches_edge_filter_definitions():
    for g in _census_cases():
        cross, centrals, local_count = _census_by_definition(g)
        assert bridges(g) == cross
        assert central_nodes(g) == centrals
        assert g.census.bridge_count == len(cross)
        assert g.census.central_count == len(centrals)
        assert g.census.local_edge_count == local_count == len(local_edges(g))
        assert all(type(field) is int for field in g.census)
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
