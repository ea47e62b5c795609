"""Randomized invariant checks spanning parser, metrics, thresholds, oracle and the JSON writer."""
import itertools
import json
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kintegration import (
    Bound,
    QuotientGraph,
    bridge_threshold,
    build_graph,
    build_report,
    central_threshold,
    integration_level,
    is_k_integrated,
    localize_complete,
    min_bridges_for_sizes,
    pair_bridge_minimum,
    parse_community_map,
    parse_edge_list,
    segregation_verdict,
)
from kintegration.cli import _json_dump
from kintegration.fileio import format_community_map, format_edge_list

import naive
from helpers import id_edges, islands, random_community_graph


@given(st.data())
@settings(max_examples=200)
def test_threshold_table_shape(data):
    r = data.draw(st.integers(min_value=1, max_value=40))
    n = data.draw(st.integers(min_value=r, max_value=r + 40))
    kmax = r + 5
    bounds = [bridge_threshold(r, n, k) for k in range(1, kmax + 1)]
    centrals = [central_threshold(r, n, k) for k in range(1, kmax + 1)]

    if r == 1:
        assert all(b == Bound(0, 0) for b in bounds)
        assert all(c == 0 for c in centrals)
        return

    assert bounds[0] == Bound(n * n * r * (r - 1) // 2, n * n * r * (r - 1) // 2)
    assert bounds[1] == Bound((r - 1) * n, (r - 1) * n)
    assert bounds[2] == Bound(r * (r - 1) // 2, r * (r - 1) // 2)
    assert centrals[0] == r * n
    assert centrals[1] == (r - 1) * n + 1

    for k in range(3, kmax + 1):
        b = bounds[k - 1]
        assert centrals[k - 1] == r
        assert r - 1 <= b.lower <= b.upper <= r * (r - 1) // 2
        if k >= r + 1:
            assert b == Bound(r - 1, r - 1)

    # requirements can only relax as the allowed distance grows
    for prev, cur in zip(bounds, bounds[1:]):
        assert cur.lower <= prev.lower
        assert cur.upper <= prev.upper
    for prev, cur in zip(centrals, centrals[1:]):
        assert cur <= prev


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
@settings(max_examples=25, deadline=None)
def test_pair_lemma_matches_search(n1, n2):
    verdict = min_bridges_for_sizes(tuple(sorted((n1, n2))), 2)
    assert verdict.certified
    assert verdict.min_bridges == pair_bridge_minimum(n1, n2)


_TOKENS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_.-", min_size=1, max_size=6)


@given(st.data())
@settings(max_examples=80)
def test_format_parse_round_trip(data):
    tokens = data.draw(st.lists(_TOKENS, min_size=2, max_size=10, unique=True))
    community_names = data.draw(st.lists(_TOKENS, min_size=1, max_size=3, unique=True))
    communities = {t: data.draw(st.sampled_from(community_names)) for t in tokens}
    pairs = [(u, v) for i, u in enumerate(tokens) for v in tokens[i + 1 :]]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs), unique=True))

    g = build_graph(edges, communities)
    g2 = build_graph(
        parse_edge_list("".join(format_edge_list(g))),
        parse_community_map("".join(format_community_map(g))),
    )
    assert g2.tokens == g.tokens
    assert g2.community_tokens == g.community_tokens
    assert id_edges(g2) == id_edges(g)
    assert "".join(format_edge_list(g2)) == "".join(format_edge_list(g))
    assert "".join(format_community_map(g2)) == "".join(format_community_map(g))


@given(st.integers(min_value=0, max_value=10_000), st.booleans())
@settings(max_examples=60, deadline=None)
def test_distances_match_reference(seed, connected):
    g = random_community_graph(random.Random(seed), max_nodes=14, connected=connected)
    ks = range(1, g.node_count + 1)
    assert build_report(g, ks).reach_profile == naive.reach_profile(g.node_count, id_edges(g), ks)
    assert integration_level(g) == naive.diameter(g.node_count, id_edges(g))


@given(st.integers(min_value=0, max_value=10_000), st.booleans())
@settings(max_examples=100, deadline=None)
def test_localize_complete_matches_definition(seed, connected):
    # random labels give lopsided communities, often of a single node, and connected=False leaves pieces apart
    g = random_community_graph(random.Random(seed), max_nodes=12, connected=connected)
    expected = set(g.edges) | {pair for members in g.community_members for pair in itertools.combinations(members, 2)}
    neighbours = [set() for _ in range(g.node_count)]
    for u, v in expected:
        neighbours[u].add(v)
        neighbours[v].add(u)
    fixed = localize_complete(g)
    # same tokens and communities; exactly g's edges plus every same-community pair
    assert fixed == g.replace(adjacency=tuple(tuple(sorted(nb)) for nb in neighbours))
    assert fixed.census.bridge_count == g.census.bridge_count
    assert fixed.census.central_count == g.census.central_count
    assert localize_complete(fixed) == fixed


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_quotient_diameter_matches_reference(data):
    r = data.draw(st.integers(min_value=1, max_value=8))
    pairs = [(u, v) for u in range(r) for v in range(u + 1, r)]
    # random quotients, often disconnected; a path plus random chords, always connected;
    # and twin-heavy ones that collapse to few classes
    kind = data.draw(st.sampled_from(["random", "path-plus", "complete", "complete-minus-one"]))
    extra = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    if kind == "random":
        edges = extra
    elif kind == "path-plus":
        edges = sorted({(c, c + 1) for c in range(r - 1)} | set(extra))
    elif kind == "complete" or not pairs:
        edges = pairs
    else:
        missing = data.draw(st.sampled_from(pairs))
        edges = [pair for pair in pairs if pair != missing]
    q = QuotientGraph(r, tuple(edges))
    assert q.diameter == naive.diameter(r, edges)


_SIZE_POOL = [
    (1,),
    (2,),
    (1, 1),
    (1, 2),
    (2, 2),
    (1, 1, 1),
    (1, 1, 2),
    (1, 2, 2),
    (2, 2, 2),
    (1, 2, 3),
    (2, 2, 3),
]


@given(st.sampled_from(_SIZE_POOL), st.integers(min_value=2, max_value=4))
@settings(max_examples=40, deadline=None)
def test_symmetry_reduction_preserves_answers(sizes, k):
    expected_count, expected_witness = naive.min_bridges(sizes, k)
    verdict = min_bridges_for_sizes(sizes, k)
    assert verdict.min_bridges == expected_count
    assert verdict.witness == expected_witness
    assert verdict.certified
    assert verdict.sets_examined <= naive.bridge_set_count(sizes, len(sizes) - 1, expected_count)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_segregation_verdict_is_sound(seed):
    rng = random.Random(seed)
    r = rng.randint(1, 4)
    n = rng.randint(r, 5)
    pool = [(u, v) for u in range(r * n) for v in range(u + 1, r * n) if u // n != v // n]
    bridges = rng.sample(pool, rng.randint(0, min(len(pool), 6))) if pool else []
    g = islands(r, n, bridges)
    k = rng.randint(1, 4)
    verdict = segregation_verdict(g, k)
    if verdict is not None:
        assert not is_k_integrated(g, k).integrated
        assert verdict


# every JSON leaf, strings of any code point (quotes, backslashes, control and non-ASCII characters), nan and ±inf too
_JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: (
        st.lists(inner)
        | st.lists(inner).map(tuple)
        | st.dictionaries(st.text(), inner)
        | st.dictionaries(st.integers(), inner)
        | st.lists(st.integers(), min_size=1)
        | st.lists(st.text(), min_size=1).map(tuple)
        | st.lists(st.booleans() | st.integers(), min_size=1)
    ),
    max_leaves=40,
)


@given(_JSON_VALUES)
@example({"a": [], "b": {}, "c": (), "d": [[], {}], "": None})
@example([True, 1, 0, False, [1, True], ["x", '"\\\x00\u00e9']])
@example({"nan": [float("nan"), float("inf"), -float("inf"), 0.1], "big": [10**30, -1]})
@settings(max_examples=200, deadline=None)
def test_json_dump_matches_json_dumps(value):
    assert _json_dump(value) == json.dumps(value, indent=2, sort_keys=True)
