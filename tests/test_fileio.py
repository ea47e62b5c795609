import logging
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kintegration import (
    KIntegrationError,
    ParseError,
    build_graph,
    load_graph,
    parse_community_map,
    parse_edge_list,
    write_graph,
)
from kintegration import fileio, graph
from kintegration.fileio import format_community_map, format_edge_list


def test_parse_edge_list_skips_comments_and_blanks():
    text = "# header\n\na b\n  \nb c\n# trailing\n"
    assert parse_edge_list(text) == [("a", "b"), ("b", "c")]


def test_parse_edge_list_rejects_wrong_token_count():
    with pytest.raises(ParseError) as err:
        parse_edge_list("a b\na b c\n")
    assert err.value.line_number == 2


def test_parse_community_map_basic():
    assert parse_community_map("# c\nx red\ny blue\n") == {"x": "red", "y": "blue"}


def test_parse_community_map_rejects_duplicate_node():
    with pytest.raises(ParseError) as err:
        parse_community_map("x red\nx blue\n")
    assert err.value.line_number == 2
    assert "duplicate" in str(err.value)


def test_parse_community_map_rejects_wrong_token_count():
    with pytest.raises(ParseError) as err:
        parse_community_map("x\n")
    assert err.value.line_number == 1


def test_load_graph_sample(sample_graph):
    assert sample_graph.node_count == 12
    assert sample_graph.tokens[0] == "01"


def test_canonical_formats_are_sorted():
    g = build_graph([("z", "a"), ("m", "a")], {"z": "2", "a": "1", "m": "2"})
    assert "".join(format_edge_list(g)) == "a m\na z\n"
    assert "".join(format_community_map(g)) == "a 1\nm 2\nz 2\n"


def test_write_then_load_round_trips(tmp_path, sample_graph):
    ep, cp = tmp_path / "e.txt", tmp_path / "c.txt"
    write_graph(sample_graph, ep, cp)
    again = load_graph(ep, cp)
    assert again == sample_graph
    # canonical output is a fixpoint
    write_graph(again, tmp_path / "e2.txt", tmp_path / "c2.txt")
    assert (tmp_path / "e2.txt").read_bytes() == ep.read_bytes()
    assert (tmp_path / "c2.txt").read_bytes() == cp.read_bytes()


def test_files_use_lf_endings(tmp_path, sample_graph):
    ep, cp = tmp_path / "e.txt", tmp_path / "c.txt"
    write_graph(sample_graph, ep, cp)
    assert b"\r" not in ep.read_bytes()
    assert b"\r" not in cp.read_bytes()


def test_dot_marks_bridges_and_clusters(sample_graph):
    dot = "".join(fileio.dot_blocks(sample_graph, name="sample"))
    assert dot.startswith('graph "sample" {')
    assert dot.count("subgraph cluster_") == 3
    assert '"02" -- "12" [color=red, penwidth=2.0];' in dot
    assert '"13" -- "22" [color=red, penwidth=2.0];' in dot
    assert dot.count("penwidth=2.0") == 2
    assert '"01" -- "02";' in dot
    assert 'label="c1";' in dot
    assert dot == _dot_reference(sample_graph, name="sample")


def test_write_text_atomic_writes_each_chunk_in_order(tmp_path):
    path = tmp_path / "out.txt"
    fileio.write_text_atomic(path, (chunk for chunk in ["a\n", "", "b c\n"]))
    assert path.read_bytes() == b"a\nb c\n"


def test_write_text_atomic_keeps_the_old_file_when_a_stream_fails_partway(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old text\n")

    def failing_stream():
        yield "new block\n"
        raise OSError("formatter failed")

    with pytest.raises(OSError, match="formatter failed"):
        fileio.write_text_atomic(path, failing_stream())
    assert path.read_bytes() == b"old text\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_graph_builds_no_edge_tuple(tmp_path, monkeypatch):
    def never(g):
        raise AssertionError("built the edge tuple of a graph")

    # int keys 0..11 give tokens "0", "1", "10", "11", "2", ...: not in id order, so token pairs are sorted
    g = build_graph([(u, (u + 1) % 12) for u in range(12)] + [(2, 10), (0, 7)], {u: u % 3 for u in range(12)})
    assert g.tokens != tuple(sorted(g.tokens))
    expected = _token_pair_reference(g)
    monkeypatch.setattr(graph.CommunityGraph, "edges", property(never))
    write_graph(g, tmp_path / "e.txt", tmp_path / "c.txt")
    assert (tmp_path / "e.txt").read_text() == expected


def test_dot_quotes_awkward_tokens():
    g = build_graph([('he"llo', "wo rld"), ("wo rld", "a\\b")], {'he"llo': "c", "wo rld": "c", "a\\b": "d"})
    dot = "".join(fileio.dot_blocks(g))
    assert '"he\\"llo"' in dot
    assert '"wo rld"' in dot
    assert '"a\\\\b" -- "wo rld" [color=red, penwidth=2.0];' in dot
    assert dot == _dot_reference(g)


def _dot_reference(g, name="network"):
    """DOT text built from the graph's edge tuple, one line per edge, then joined."""
    quote = lambda token: '"' + token.replace("\\", "\\\\").replace('"', '\\"') + '"'
    lines = [f"graph {quote(name)} {{", "  node [shape=circle];"]
    for c, members in enumerate(g.community_members):
        lines.append(f"  subgraph cluster_{c} {{")
        lines.append(f"    label={quote(g.community_tokens[c])};")
        lines.extend(f"    {quote(g.tokens[u])};" for u in sorted(members, key=lambda u: g.tokens[u]))
        lines.append("  }")
    for u, v in g.edges:
        tu, tv = sorted((g.tokens[u], g.tokens[v]))
        style = " [color=red, penwidth=2.0]" if g.community_of[u] != g.community_of[v] else ""
        lines.append(f"  {quote(tu)} -- {quote(tv)}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _token_pair_reference(g):
    """Canonical edge list by definition: token pairs, each ordered, all sorted."""
    pairs = sorted(tuple(sorted((g.tokens[u], g.tokens[v]))) for u, v in g.edges)
    return "".join(f"{a} {b}\n" for a, b in pairs)


@pytest.mark.parametrize(
    "edges,communities,token",
    [
        ([("wo rld", "b")], {"wo rld": "A", "b": "B"}, "wo rld"),
        ([("#a", "b")], {"#a": "A", "b": "B"}, "#a"),
        ([("", "b")], {"": "A", "b": "B"}, ""),
        ([("a", "b")], {"a": "A", "b": "x\ty"}, "x\ty"),
    ],
)
def test_write_graph_refuses_names_the_formats_cannot_hold(tmp_path, edges, communities, token):
    g = build_graph(edges, communities)
    with pytest.raises(KIntegrationError, match=re.escape(repr(token))):
        write_graph(g, tmp_path / "e.txt", tmp_path / "c.txt")
    assert list(tmp_path.iterdir()) == []
    # a community named '#x' sits after its node on the line, so it round-trips
    g = build_graph([("a", "b")], {"a": "#x", "b": "y"})
    write_graph(g, tmp_path / "e.txt", tmp_path / "c.txt")
    assert load_graph(tmp_path / "e.txt", tmp_path / "c.txt") == g


def test_format_edge_list_same_on_sorted_and_unsorted_tokens():
    edges = [(9, 10), (10, 2), (2, 9), (100, 9), (3, 100), (10, 3)]
    communities = {2: "a", 3: "b", 9: "a", 10: "b", 100: "a"}
    by_int = build_graph(edges, communities)
    assert by_int.tokens == ("2", "3", "9", "10", "100")  # "9" > "10": not in id order
    by_str = build_graph(
        [(str(a), str(b)) for a, b in edges], {str(k): c for k, c in communities.items()}
    )
    assert by_str.tokens == tuple(sorted(by_str.tokens))
    expected = "10 2\n10 3\n10 9\n100 3\n100 9\n2 9\n"
    assert "".join(format_edge_list(by_int)) == expected
    assert "".join(format_edge_list(by_str)) == expected
    assert _token_pair_reference(by_int) == _token_pair_reference(by_str) == expected


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_format_edge_list_matches_token_pair_definition(data):
    count = data.draw(st.integers(min_value=1, max_value=14))
    keys = data.draw(st.lists(st.integers(min_value=0, max_value=40), min_size=count, max_size=count, unique=True))
    pairs = [(a, b) for i, a in enumerate(keys) for b in keys[i + 1 :]]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    for as_text in (False, True):
        key = str if as_text else int
        g = build_graph(
            [(key(a), key(b)) for a, b in edges], {key(k): k % 3 for k in keys}
        )
        assert "".join(format_edge_list(g)) == _token_pair_reference(g)
        # dot_blocks walks the same node blocks; int keys put "10" before "9", so each pair must be reordered
        assert "".join(fileio.dot_blocks(g, name='n"et')) == _dot_reference(g, name='n"et')


# Loader equivalence: load_graph (one pass over each file) against the
# line-numbered parsers followed by build_graph, on texts with every kind of
# irregularity the parsers know about.
_NODES = ["a", "b", "c", "d", "9", "10", "#x", "x#"]
_GAPS = [" ", " ", " ", "  ", "\t", "\x0b", "\x0c", "\x85", "\u2028", "\xa0"]
_BREAKS = ["\n"] * 6 + ["\r\n", "\r", "\x0b", "\x0c", "\x85", "\u2028", "\x1c"]


@st.composite
def _line(draw, first, second):
    kind = draw(st.sampled_from(["pair"] * 8 + ["comment", "blank", "one", "three", "padded"]))
    gap = draw(st.sampled_from(_GAPS))
    a, b = draw(first), draw(second)
    if kind == "pair":
        return f"{a}{gap}{b}"
    if kind == "comment":
        return f"# {a} {b}"
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t"]))
    if kind == "one":
        return a
    if kind == "three":
        return f"{a} {b} {draw(first)}"
    lead, trail = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", " ", "\x0c"]))
    return f"{lead}{a} {b}{trail}"


@st.composite
def _text(draw, first, second, max_lines):
    lines = draw(st.lists(_line(first, second), max_size=max_lines))
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(_BREAKS))
    if text and draw(st.booleans()):
        text = text[:-1]  # no final line break
    return text


def _plain_text(rows):
    return "".join(f"{a} {b}\n" for a, b in rows)


@st.composite
def _nearly(draw, text):
    """``text`` itself, or with one character inserted or one line repeated."""
    edit = draw(st.sampled_from(["none", "none", "insert", "repeat"]))
    if edit == "insert":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from(["#", *_GAPS, *_BREAKS])) + text[at:]
    lines = text.splitlines(keepends=True)
    if edit == "repeat" and lines:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    return "".join(lines)


@st.composite
def _file_pair(draw):
    plain = draw(st.integers(0, 2)) > 0
    pool = [node for node in _NODES if node != "#x"] if plain and draw(st.integers(0, 3)) else _NODES
    nodes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))
    known = st.sampled_from(nodes)
    anything = st.one_of(known, st.sampled_from(_NODES + ["zz"]))
    communities = st.sampled_from(["A", "B", "#C", "9"])
    if plain:
        # plain files, where the fused pass should mostly succeed
        pair = st.tuples(known, known)
        if len(nodes) > 1 and draw(st.integers(0, 3)):
            pair = pair.filter(lambda p: p[0] != p[1])
        edge_rows = draw(st.lists(pair, max_size=12))
        community_rows = [(node, draw(communities)) for node in nodes]
        return draw(_nearly(_plain_text(edge_rows))), draw(_nearly(_plain_text(community_rows)))
    return draw(_text(anything, anything, 12)), draw(_text(anything, communities, 8))


def _outcome(load):
    try:
        return load()
    except KIntegrationError as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)


@given(_file_pair())
@settings(max_examples=400, deadline=None)
def test_load_graph_matches_line_numbered_parsers(files):
    edges_text, communities_text = files
    with tempfile.TemporaryDirectory() as tmp:
        ep, cp = Path(tmp) / "e.txt", Path(tmp) / "c.txt"
        ep.write_bytes(edges_text.encode("utf-8"))
        cp.write_bytes(communities_text.encode("utf-8"))
        # the parsers see the text as read from disk (universal newlines)
        read_edges, read_communities = ep.read_text(encoding="utf-8"), cp.read_text(encoding="utf-8")
        expected = _outcome(
            lambda: build_graph(parse_edge_list(read_edges), parse_community_map(read_communities))
        )
        assert _outcome(lambda: load_graph(ep, cp)) == expected


def test_load_graph_reports_edge_error_before_missing_community_file(tmp_path):
    (tmp_path / "e.txt").write_text("a b\nc\n")
    with pytest.raises(ParseError) as err:
        load_graph(tmp_path / "e.txt", tmp_path / "missing.txt")
    assert err.value.line_number == 2
    (tmp_path / "e.txt").write_text("a b\n")
    with pytest.raises(FileNotFoundError):
        load_graph(tmp_path / "e.txt", tmp_path / "missing.txt")


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("marked", [("e.txt",), ("c.txt",), ("e.txt", "c.txt")])
def test_load_graph_drops_a_leading_byte_order_mark(tmp_path, marked):
    files = {"e.txt": b"a b\nb c\n", "c.txt": b"a A\nb A\nc B\n"}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    plain = load_graph(tmp_path / "e.txt", tmp_path / "c.txt")
    for name in marked:
        (tmp_path / name).write_bytes(BOM + files[name])
    g = load_graph(tmp_path / "e.txt", tmp_path / "c.txt")
    assert g == plain
    assert g.tokens == ("a", "b", "c")


@pytest.mark.parametrize(
    "data, line, offset",
    [
        (BOM + b"\xffa b\n", 1, 3),  # an invalid byte right after the BOM
        (BOM + b"a b\nb \xffc\n", 2, 9),
        (b"\xef\xbb", 1, 0),  # the start of a BOM and nothing after it is not empty text
        # numbered by the parsers' line breaks, which str.splitlines draws, not by b"\n" alone
        (b"a b\rb \xffc\r", 2, 6),
        (b"a b\r\nb c\rc \xffa\n", 3, 11),
        (b"a b\x0bb c\x0cc \xffa", 3, 10),
        ("a b\x85b c\u2028c a\n".encode() + b"\xff", 4, 15),
        (b"a b\n\n\rb \xff", 4, 8),
    ],
)
def test_load_graph_reports_decode_errors_from_the_files_first_byte(tmp_path, data, line, offset):
    (tmp_path / "e.txt").write_bytes(data)
    (tmp_path / "c.txt").write_text("a A\nb A\nc B\n")
    with pytest.raises(ParseError) as err:
        load_graph(tmp_path / "e.txt", tmp_path / "c.txt")
    assert err.value.line_number == line
    assert str(err.value).endswith(f"is not UTF-8 text (byte {data[offset]:#04x} at offset {offset})")


def test_load_graph_logs_collapsed_duplicates_on_plain_and_other_lines(tmp_path, caplog):
    (tmp_path / "c.txt").write_text("a A\nb A\nc B\n")
    for edges in ("a b\nb a\nb c\na b\n", "# comment\na b\nb a\nb c\na b\n", "a\tb\nb a\nb c\na  b\n"):
        (tmp_path / "e.txt").write_text(edges)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="kintegration.graph"):
            g = load_graph(tmp_path / "e.txt", tmp_path / "c.txt")
            assert build_graph(parse_edge_list(edges), {"a": "A", "b": "A", "c": "B"}) == g
        assert g.edge_count == 2
        assert [r.getMessage() for r in caplog.records] == ["collapsed 2 duplicate edge listings"] * 2


def test_load_graph_decides_every_line_in_one_pass(tmp_path, monkeypatch):
    def never(*args):
        raise AssertionError("load_graph handed the edge file to a parser")

    # the parsers fail loudly, so the loader has to decide each line itself
    communities = tmp_path / "c.txt"
    communities.write_text("a A\nb A\nc B\nd B\n")
    (tmp_path / "plain.txt").write_text("a b\nb c\nc d\n")
    plain = load_graph(tmp_path / "plain.txt", communities)
    monkeypatch.setattr(fileio, "parse_edge_list", never)
    monkeypatch.setattr(graph, "build_graph", never)
    for text in ("# header\na b\nb c\nc d\n", "a b\nb\tc\nc d\n", "a b\n\nb c\n\nc d\n", "a b\nb c\nc d\nb a\n"):
        (tmp_path / "e.txt").write_text(text)
        assert load_graph(tmp_path / "e.txt", communities) == plain
