"""Text formats: edge lists, community maps, canonical output, DOT export.

Edge-list files are UTF-8 text with one edge per line as two
whitespace-separated node tokens; lines starting with '#' are comments.
Community files hold one "node_token community_token" line per node.
Canonical output sorts nodes by token and edges lexicographically by
token pair, with LF line endings, so serialization round-trips
bit-exactly.
"""

from __future__ import annotations

import os
from typing import Iterable

from .errors import ParseError
from .graph import CommunityGraph, build_graph


def parse_edge_list(text: str) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(lineno, f"expected 2 node tokens, got {len(parts)}: {line!r}")
        pairs.append((parts[0], parts[1]))
    return pairs


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
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            data = exc.object
            line = data.count(b"\n", 0, exc.start) + 1
            raise ParseError(
                line, f"{os.fspath(path)} is not UTF-8 text (byte {data[exc.start]:#04x} at offset {exc.start})"
            ) from None


def load_graph(edges_path: str | os.PathLike, communities_path: str | os.PathLike) -> CommunityGraph:
    edges = parse_edge_list(_read_text(edges_path))
    communities = parse_community_map(_read_text(communities_path))
    return build_graph(edges, communities)


def _token_edges(g: CommunityGraph) -> list[tuple[str, str]]:
    out = []
    for u, v in g.edges:
        tu, tv = g.tokens[u], g.tokens[v]
        out.append((tu, tv) if tu <= tv else (tv, tu))
    return sorted(out)


def format_edge_list(g: CommunityGraph) -> str:
    return "".join(f"{a} {b}\n" for a, b in _token_edges(g))


def format_community_map(g: CommunityGraph) -> str:
    lines = sorted(
        (g.tokens[u], g.community_tokens[g.community_of[u]]) for u in range(g.node_count)
    )
    return "".join(f"{node} {community}\n" for node, community in lines)


def write_graph(
    g: CommunityGraph, edges_path: str | os.PathLike, communities_path: str | os.PathLike
) -> None:
    with open(edges_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_edge_list(g))
    with open(communities_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_community_map(g))


def _dot_quote(token: str) -> str:
    return '"' + token.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: CommunityGraph, name: str = "network") -> str:
    """DOT rendering with communities as clusters and bridges highlighted."""
    lines = [f"graph {_dot_quote(name)} {{"]
    lines.append("  node [shape=circle];")
    for c, members in enumerate(g.community_members):
        lines.append(f"  subgraph cluster_{c} {{")
        lines.append(f"    label={_dot_quote(g.community_tokens[c])};")
        for u in sorted(members, key=lambda u: g.tokens[u]):
            lines.append(f"    {_dot_quote(g.tokens[u])};")
        lines.append("  }")
    for u, v in g.edges:
        tu, tv = g.tokens[u], g.tokens[v]
        if tu > tv:
            tu, tv = tv, tu
        if g.is_bridge(u, v):
            lines.append(f"  {_dot_quote(tu)} -- {_dot_quote(tv)} [color=red, penwidth=2.0];")
        else:
            lines.append(f"  {_dot_quote(tu)} -- {_dot_quote(tv)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
