"""Text formats: edge lists, community maps, canonical output, DOT export.

Edge-list files are UTF-8 text with one edge per line as two
whitespace-separated node tokens; lines starting with '#' are comments.
A leading byte-order mark is dropped on read, in either file.
Community files hold one "node_token community_token" line per node.
Canonical output sorts nodes by token and edges lexicographically by
token pair, with LF line endings, so serialization round-trips
bit-exactly.

``load_graph`` reads each file once, with line endings normalised to
LF on read, so CRLF files load like LF ones. It parses the community
file with ``parse_community_map`` and then makes one pass over the edge
file's lines. A plain line, two known and distinct node names separated
by one space, is split at that space and its two ids are appended to
the neighbour lists. Any other line gets the rules ``parse_edge_list``
and ``build_graph`` apply, in the same loop. An edge-line syntax error
raises at once; an error in the community file, an empty map and the
first self-loop or unknown node are held until the pass ends, so the
errors and line numbers are those of ``parse_edge_list``,
``parse_community_map`` and ``build_graph`` run one after another.

Every writer yields its text by blocks, and ``write_graph`` and
``generate --dot`` pass them straight to ``write_text_atomic``.
``format_edge_list`` yields each node's edges to its higher neighbours
when the tokens sort in id order (as in every construction), and one
line per sorted token pair otherwise; ``format_community_map`` one line
per node; ``dot_blocks`` one cluster or node's edges, each pair in token
order. No writer builds the graph's edge tuple.
"""

from __future__ import annotations

import bisect
import operator
import os
from typing import Iterable, Iterator

from .errors import EmptyCommunityMapError, KIntegrationError, ParseError, SelfLoopError, UnknownNodeError
from .graph import CommunityGraph, edge_ids, index_nodes, intern_graph, pick


def _edge_pair(line: str, lines: list[str]) -> tuple[str, str] | None:
    """The node pair on ``line``, one of an edge file's ``lines``, or None for a blank or comment line.

    A line without two tokens raises ParseError numbered by its first
    occurrence, which is this one: an identical earlier line raised first.
    """
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    parts = stripped.split()
    if len(parts) != 2:
        raise ParseError(lines.index(line) + 1, f"expected 2 node tokens, got {len(parts)}: {stripped!r}")
    return parts[0], parts[1]


def parse_edge_list(text: str) -> list[tuple[str, str]]:
    lines = text.splitlines()
    return [pair for line in lines if (pair := _edge_pair(line, lines)) is not None]


def parse_community_map(text: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(lineno, f"expected 'node community', got {len(parts)} tokens: {line!r}")
        node, community = parts
        if node in mapping:
            raise ParseError(lineno, f"duplicate community assignment for node {node!r}")
        mapping[node] = community
    return mapping


def _read_text(path: str | os.PathLike) -> str:
    # not utf-8-sig, which reads a file of only a BOM's first byte or two as empty text
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read().removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            data = exc.object
            # numbered by the parsers' line breaks, which str.splitlines draws
            line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
            raise ParseError(
                line, f"{os.fspath(path)} is not UTF-8 text (byte {data[exc.start]:#04x} at offset {exc.start})"
            ) from None


def load_graph(edges_path: str | os.PathLike, communities_path: str | os.PathLike) -> CommunityGraph:
    edges_text = _read_text(edges_path)
    # raised after the edge pass, which may still find an edge-line syntax error
    held: Exception | None = None
    communities, node_keys, index = {}, [], {}
    try:
        communities = parse_community_map(_read_text(communities_path))
        node_keys, index = index_nodes(communities)
    except (OSError, ParseError, EmptyCommunityMapError) as exc:
        held = exc
    neighbors: list[list[int]] = [[] for _ in node_keys]
    # node names hold no whitespace and do not start with '#', so a line
    # other than "name name" fails a lookup below
    lines = edges_text.splitlines()
    for line in lines:
        a, _, b = line.partition(" ")
        try:
            u = index[a]
            v = index[b]
            if u != v:
                neighbors[u].append(v)
                neighbors[v].append(u)
                continue
        except KeyError:
            pass
        pair = _edge_pair(line, lines)
        if pair is None or held is not None:
            continue
        try:
            u, v = edge_ids(*pair, index)
        except (SelfLoopError, UnknownNodeError) as exc:
            held = exc
            continue
        neighbors[u].append(v)
        neighbors[v].append(u)
    if held is not None:
        raise held
    return intern_graph(communities, node_keys, neighbors)


def _token_edges(g: CommunityGraph) -> list[tuple[str, str]]:
    tokens = g.tokens
    out = []
    for u, nbs in enumerate(g.adjacency):
        tu = tokens[u]
        out.extend((tu, tv) if tu < tv else (tv, tu) for tv in pick(tokens, nbs[bisect.bisect_right(nbs, u) :]))
    return sorted(out)


def format_edge_list(g: CommunityGraph) -> Iterator[str]:
    tokens = g.tokens
    if not all(map(operator.lt, tokens, tokens[1:])):
        yield from (f"{a} {b}\n" for a, b in _token_edges(g))
        return
    # token order is id order, so the sorted token pairs are each node's
    # higher neighbours in id order, node by node
    for u, nbs in enumerate(g.adjacency):
        higher = nbs[bisect.bisect_right(nbs, u) :]
        if higher:
            head = tokens[u] + " "
            yield head + ("\n" + head).join(pick(tokens, higher)) + "\n"


def format_community_map(g: CommunityGraph) -> Iterator[str]:
    lines = sorted(zip(g.tokens, pick(g.community_tokens, g.community_of)))
    return (f"{node} {community}\n" for node, community in lines)


def write_text_atomic(path: str | os.PathLike, chunks: Iterable[str]) -> None:
    """Write the chunks as UTF-8 text with LF endings to a temp file beside ``path``, then rename it over ``path``.

    Chunks are written one by one, so a generator's text is never held whole.
    A failure leaves ``path`` as it was and removes the temp file. Nothing
    is fsynced, so the rename is atomic for other processes, not across a
    power loss.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_graph(
    g: CommunityGraph, edges_path: str | os.PathLike, communities_path: str | os.PathLike
) -> None:
    """Write the canonical edge list and community map, each file replaced atomically.

    Refuses, before writing anything, a name the formats cannot hold: one
    that is empty or holds whitespace, or a node name that starts with '#'
    and would read back as a comment.
    """
    for kind, tokens in (("node", g.tokens), ("community", g.community_tokens)):
        for token in tokens:
            if token.split() != [token] or (kind == "node" and token.startswith("#")):
                raise KIntegrationError(f"{kind} name {token!r} cannot be written to a graph file")
    write_text_atomic(edges_path, format_edge_list(g))
    write_text_atomic(communities_path, format_community_map(g))


def _dot_quote(token: str) -> str:
    return '"' + token.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_blocks(g: CommunityGraph, name: str = "network") -> Iterator[str]:
    """DOT rendering with communities as clusters and bridges highlighted, one block at a time."""
    tokens, community_of = g.tokens, g.community_of
    quoted = [_dot_quote(token) for token in tokens]
    yield f"graph {_dot_quote(name)} {{\n  node [shape=circle];\n"
    for c, members in enumerate(g.community_members):
        nodes = "".join(f"    {quoted[u]};\n" for u in sorted(members, key=tokens.__getitem__))
        yield f"  subgraph cluster_{c} {{\n    label={_dot_quote(g.community_tokens[c])};\n{nodes}  }}\n"
    for u, nbs in enumerate(g.adjacency):
        tu, cu = tokens[u], community_of[u]
        yield "".join(
            (f"  {quoted[u]} -- {quoted[v]}" if tu < tokens[v] else f"  {quoted[v]} -- {quoted[u]}")
            + (" [color=red, penwidth=2.0];\n" if community_of[v] != cu else ";\n")
            for v in nbs[bisect.bisect_right(nbs, u) :]
        )
    yield "}\n"
