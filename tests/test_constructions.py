import pytest

from kintegration import (
    DisconnectedQuotientError,
    InvalidParamsError,
    QuotientGraph,
    UnsupportedCommunityCountError,
    bridges,
    central_nodes,
    complete_join,
    complete_quotient,
    cycle_quotient,
    extended_star,
    figure1_quotient,
    integration_level,
    is_locally_complete,
    path_quotient,
    star_quotient,
    two_star,
    write_graph,
)


def test_quotient_validation():
    with pytest.raises(InvalidParamsError):
        QuotientGraph(3, ((0, 0),))
    for out_of_range in ((0, 3), (3, 0)):
        with pytest.raises(InvalidParamsError):
            QuotientGraph(3, (out_of_range,))
    with pytest.raises(InvalidParamsError):
        QuotientGraph(3, ((0, 1), (1, 0)))
    for not_a_pair in ((0, 1, 2), (0,), 1, "01"):
        with pytest.raises(InvalidParamsError, match="not a pair"):
            QuotientGraph(3, (not_a_pair,))
    assert QuotientGraph(3, ((2, 0),)).edges == ((0, 2),)


def test_quotient_diameters():
    assert complete_quotient(5).diameter == 1
    assert star_quotient(5).diameter == 2
    assert path_quotient(5).diameter == 4
    assert cycle_quotient(5).diameter == 2
    assert cycle_quotient(6).diameter == 3
    assert complete_quotient(1).diameter == 0
    assert QuotientGraph(2, ()).diameter is None
    # twin-heavy quotients collapse to few classes: r = 2 with its edge to one, K4 minus an edge to three
    assert QuotientGraph(2, ((0, 1),)).diameter == 1
    assert QuotientGraph(4, tuple(e for e in complete_quotient(4).edges if e != (0, 1))).diameter == 2
    assert QuotientGraph(3, ((0, 1),)).diameter is None


def test_cycle_needs_three_communities():
    with pytest.raises(InvalidParamsError):
        cycle_quotient(2)


def test_figure1_quotients():
    for level in range(4, 10):
        q = figure1_quotient(level)
        assert q.r == 8
        assert q.diameter == level - 2
    assert len(figure1_quotient(9).edges) == 7
    assert len(figure1_quotient(4).edges) == 12
    for k in (1, 3, 10):
        with pytest.raises(InvalidParamsError, match=f"covers k in 4..9, got k={k}$"):
            figure1_quotient(k)
    with pytest.raises(UnsupportedCommunityCountError):
        figure1_quotient(4, r=7)


def test_complete_join_counts_and_level():
    built = complete_join(3, 2)
    assert built.claimed_k == 1
    assert built.claimed_b == 12
    assert built.claimed_c == 6
    assert len(bridges(built.graph)) == 12
    assert len(central_nodes(built.graph)) == 6
    assert integration_level(built.graph) == 1


def test_two_star_counts_and_level():
    built = two_star(3, 3)
    assert (built.claimed_b, built.claimed_c, built.claimed_k) == (6, 7, 2)
    g = built.graph
    assert len(bridges(g)) == 6
    assert len(central_nodes(g)) == 7
    assert integration_level(g) == 2
    # the hub is the lowest id of community 0
    assert all(0 in (u, v) for u, v in bridges(g))


def test_extended_star_complete_quotient():
    built = extended_star(4, 4, complete_quotient(4))
    assert (built.claimed_b, built.claimed_c, built.claimed_k) == (6, 4, 3)
    g = built.graph
    assert len(bridges(g)) == 6
    assert {u for u, v in bridges(g)} | {v for u, v in bridges(g)} == {0, 4, 8, 12}
    assert integration_level(g) == 3


def test_extended_star_path_quotient():
    built = extended_star(4, 4, path_quotient(4))
    assert built.claimed_k == 4 + 1  # quotient diameter 3 plus 2
    assert integration_level(built.graph) == 5
    assert len(bridges(built.graph)) == 3


def test_extended_star_single_node_communities():
    built = extended_star(4, 1, path_quotient(4))
    # with n=1 the network is the quotient itself
    assert built.claimed_k == 3
    assert integration_level(built.graph) == 3


def test_extended_star_rejects_bad_quotients():
    with pytest.raises(DisconnectedQuotientError):
        extended_star(2, 2, QuotientGraph(2, ()))
    with pytest.raises(InvalidParamsError):
        extended_star(3, 3, complete_quotient(4))


def test_constructions_are_locally_complete():
    for built in (complete_join(3, 4), two_star(4, 3), extended_star(5, 5, star_quotient(5))):
        assert is_locally_complete(built.graph) == (True, [])


def test_single_community_families():
    for built in (complete_join(1, 3), two_star(1, 3)):
        assert built.claimed_b == 0
        assert built.claimed_c == 0
        assert len(bridges(built.graph)) == 0
        assert integration_level(built.graph) == 1


def test_claims_match_measurements_on_small_instances():
    # covers the degenerate shapes too: one community, single-node communities
    for r in range(1, 6):
        quotients = [complete_quotient(r), star_quotient(r), path_quotient(r)]
        if r >= 3:
            quotients.append(cycle_quotient(r))
        for n in range(1, 6):
            for built in [complete_join(r, n), two_star(r, n), *(extended_star(r, n, q) for q in quotients)]:
                g = built.graph
                claimed = (built.claimed_b, built.claimed_c, built.claimed_k)
                assert claimed == (len(bridges(g)), len(central_nodes(g)), integration_level(g)), (built.family, r, n)


def test_tokens_are_zero_padded_in_layout_order(tmp_path):
    g = extended_star(4, 3, star_quotient(4)).graph
    assert g.tokens == tuple(str(u).zfill(2) for u in range(12))
    assert g.community_tokens == ("0", "1", "2", "3")
    assert g.community_of == tuple(u // 3 for u in range(12))
    # the widths at their boundaries: ten names fit one digit, eleven need two
    ten, eleven = tuple(map(str, range(10))), tuple(str(u).zfill(2) for u in range(11))
    g = two_star(10, 1).graph
    assert (g.tokens, g.community_tokens) == (ten, ten)
    g = two_star(11, 1).graph
    assert (g.tokens, g.community_tokens) == (eleven, eleven)
    g = complete_join(1, 11).graph
    assert (g.tokens, g.community_tokens) == (eleven, ("0",))
    g = complete_join(1, 1).graph
    assert (g.tokens, g.community_tokens) == (("0",), ("0",))
    write_graph(two_star(11, 1).graph, tmp_path / "edges.txt", tmp_path / "communities.txt")
    assert (tmp_path / "communities.txt").read_text() == "".join(f"{u} {u}\n" for u in eleven)


def test_figure1_extended_star_levels():
    for level in range(4, 10):
        built = extended_star(8, 2, figure1_quotient(level))
        assert built.claimed_k == level
        assert integration_level(built.graph) == level


def test_invalid_family_parameters():
    with pytest.raises(InvalidParamsError):
        complete_join(0, 3)
    with pytest.raises(InvalidParamsError):
        two_star(3, 0)
