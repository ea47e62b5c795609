"""The benchmark's workloads: seeded inputs, the CLI calls of one op, output checks.

Each workload is chosen so that one layer dominates it and others
barely run, so a change to one layer shows on one workload and the
prediction for the others is no change:

* ``sparse-analyze``: a sparse random graph with almost no twins, so the
  twin quotient is as large as the graph and the distance kernel in
  ``metrics.build_report`` takes almost all of the time and memory.
* ``dense-io``: complete communities bridged along a random spanning
  tree, plus writing a two-star construction of the same size. The twin
  quotient is tiny, so parsing, interning, the repeated edge census and
  ``fileio.write_graph`` take the time.
* ``certify-search``: no files and no distance kernel; exhaustive search
  and its bitmask check take all the time. Randomized rows use the same
  check with no enumeration.

The harness knows every answer from how it built the input, or measures
it itself (one BFS per witness source), and checks every output.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


class CheckFailed(Exception):
    """The program's output is wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Call:
    """One CLI invocation of an op.

    ``group`` names the end-to-end figure the call counts toward
    (``<group>_s``, ``<group>_peak_rss_mb``). ``argv`` may contain
    ``{out}``, replaced by a fresh directory per call. ``check`` gets the
    exit code, the captured standard output and that directory; it raises
    CheckFailed on a wrong answer and returns named figures read from the
    output.
    """

    label: str
    group: str
    argv: tuple[str, ...]
    check: Callable[[int | None, str, Path], dict]


@dataclass
class Workload:
    name: str
    calls: list[Call]
    # input properties the harness computed itself, reported in traced runs
    descriptors: dict = field(default_factory=dict)


def _tokens(rng: random.Random, count: int, width: int) -> list[str]:
    """Distinct random hex tokens, sorted, so list index equals the program's node id."""
    seen: set[str] = set()
    while len(seen) < count:
        seen.add(f"{rng.getrandbits(4 * width):0{width}x}")
    return sorted(seen)


def _bfs(adjacency: list[list[int]], source: int) -> list[int]:
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


class _CommunityInput:
    """A seeded community graph written as shuffled edge and community files."""

    def __init__(self, rng: random.Random, r: int, n: int) -> None:
        self.r, self.n = r, n
        self.node_count = r * n
        self.tokens = _tokens(rng, self.node_count, 8)
        self.index = {tok: u for u, tok in enumerate(self.tokens)}
        self.community_tokens = _tokens(rng, r, 4)
        order = list(range(self.node_count))
        rng.shuffle(order)
        self.community = [0] * self.node_count
        for i, u in enumerate(order):
            self.community[u] = i // n
        self.members = [sorted(order[c * n : (c + 1) * n]) for c in range(r)]

    def write(self, rng: random.Random, directory: Path) -> tuple[Path, Path]:
        tok = self.tokens
        lines = [f"{tok[u]} {tok[v]}\n" if rng.random() < 0.5 else f"{tok[v]} {tok[u]}\n" for u, v in self.edges]
        rng.shuffle(lines)
        edges_path = directory / "edges.txt"
        edges_path.write_text("".join(lines), encoding="utf-8")
        del lines
        rows = [f"{tok[u]} {self.community_tokens[self.community[u]]}\n" for u in range(self.node_count)]
        rng.shuffle(rows)
        communities_path = directory / "communities.txt"
        communities_path.write_text("".join(rows), encoding="utf-8")
        return edges_path, communities_path

    def counts(self) -> dict:
        cross = [(u, v) for u, v in self.edges if self.community[u] != self.community[v]]
        local = len(self.edges) - len(cross)
        return {
            "edge_count": len(self.edges),
            "local_edge_count": local,
            "bridge_count": len(cross),
            "central_node_count": len({x for e in cross for x in e}),
            "missing_local_pair_count": self.r * self.n * (self.n - 1) // 2 - local,
        }

    # subclasses set ``edges`` and provide distances_from(u) and eccentricity(u);
    # k* is known exactly from the construction, or None when only checked for consistency
    edges: list[tuple[int, int]]
    k_star: int | None = None


class SparseGraph(_CommunityInput):
    """Random recursive spanning tree plus random edges, mostly within a community."""

    LOCAL_SHARE = 0.85

    def __init__(self, rng: random.Random, r: int, n: int, degree: int) -> None:
        super().__init__(rng, r, n)
        count = self.node_count
        order = list(range(count))
        rng.shuffle(order)
        edges: set[tuple[int, int]] = set()
        for i in range(1, count):
            u, v = order[i], order[rng.randrange(i)]
            edges.add((min(u, v), max(u, v)))
        target = count * degree // 2
        while len(edges) < target:
            u = rng.randrange(count)
            if rng.random() < self.LOCAL_SHARE:
                v = rng.choice(self.members[self.community[u]])
            else:
                v = rng.randrange(count)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        self.edges = sorted(edges)
        self.adjacency: list[list[int]] = [[] for _ in range(count)]
        for u, v in self.edges:
            self.adjacency[u].append(v)
            self.adjacency[v].append(u)

    def distances_from(self, u: int) -> list[int]:
        return _bfs(self.adjacency, u)

    def eccentricity(self, u: int) -> int:
        return max(self.distances_from(u))

    def twin_classes(self) -> int:
        return len({frozenset(nb) | {u} for u, nb in enumerate(self.adjacency)})


class DenseGraph(_CommunityInput):
    """Complete communities; one seeded central each, bridged along a random spanning tree.

    Distances are known in closed form: 1 inside a community, else one
    hop to the source's central (unless it is the central), the tree
    distance, and one hop to the target (unless it is the central).
    So k* is the tree diameter + 2 (n >= 2).
    """

    def __init__(self, rng: random.Random, r: int, n: int) -> None:
        super().__init__(rng, r, n)
        self.central = [rng.choice(self.members[c]) for c in range(r)]
        order = list(range(r))
        rng.shuffle(order)
        tree = [(order[i], order[rng.randrange(i)]) for i in range(1, r)]
        tree_adjacency: list[list[int]] = [[] for _ in range(r)]
        for a, b in tree:
            tree_adjacency[a].append(b)
            tree_adjacency[b].append(a)
        self.tree_dist = [_bfs(tree_adjacency, c) for c in range(r)]
        self.tree_ecc = [max(row) for row in self.tree_dist]
        self.k_star = max(self.tree_ecc) + 2
        self.bridges = [(self.central[a], self.central[b]) for a, b in tree]
        self.edges = [pair for m in self.members for pair in itertools.combinations(m, 2)] + self.bridges

    def _off(self, u: int) -> int:
        return 0 if u == self.central[self.community[u]] else 1

    def distances_from(self, u: int) -> list[int]:
        a = self.community[u]
        row = self.tree_dist[a]
        off_u = self._off(u)
        central = self.central
        dist = [
            1 if b == a else off_u + row[b] + (v != central[b])
            for v, b in enumerate(self.community)
        ]
        dist[u] = 0
        return dist

    def eccentricity(self, u: int) -> int:
        return self._off(u) + self.tree_ecc[self.community[u]] + 1

    def twin_classes(self) -> int:
        # non-central members of a community are twins; each central differs
        bridged: dict[int, set[int]] = {}
        for u, v in self.bridges:
            bridged.setdefault(u, set()).add(v)
            bridged.setdefault(v, set()).add(u)
        return len({(self.community[u], frozenset(bridged.get(u, ()))) for u in range(self.node_count)})


def check_analyze(graph: _CommunityInput, ks: tuple[int, ...]):
    """Certificate, counts and k* against the input; each witness re-measured by one BFS."""
    expected = graph.counts()

    def check(code: int | None, stdout: str, out_dir: Path) -> dict:
        expect(code == 0, f"analyze exited {code}")
        payload = json.loads(stdout)
        section = payload["graph"]
        for key in ("edge_count", "local_edge_count", "bridge_count", "central_node_count"):
            expect(section[key] == expected[key], f"{key} {section[key]} != {expected[key]}")
        expect(
            payload["data_quality"]["missing_local_pair_count"] == expected["missing_local_pair_count"],
            "missing local pair count is wrong",
        )
        k_star = payload["k_star"]
        expect(isinstance(k_star, int), f"k* {k_star!r} on a connected graph")
        if graph.k_star is not None:
            expect(k_star == graph.k_star, f"k* {k_star} != {graph.k_star}")
        certificate = {
            "b": expected["bridge_count"],
            "c": expected["central_node_count"],
            "k_star": k_star,
            "node_count": graph.node_count,
            "r": graph.r,
        }
        expect(payload["certificate"] == certificate, f"certificate {payload['certificate']} != {certificate}")
        reached = {row["k"]: row["reached"] for row in payload["reach_profile"]}
        expect([row["k"] for row in payload["per_k"]] == list(ks), "per-k rows do not match --k")
        for row in payload["per_k"]:
            k = row["k"]
            expect(row["integrated"] == (k >= k_star), f"k={k} verdict contradicts k*={k_star}")
            if row["integrated"]:
                continue
            witness = row["witness"]
            source, target = graph.index[witness["source"]], graph.index[witness["target"]]
            dist = graph.distances_from(source)
            expect(dist[target] == witness["distance"] > k, f"k={k} witness distance is wrong")
            lowest = next((v for v, d in enumerate(dist) if d > k), None)
            expect(target == lowest, f"k={k} witness target is not the lowest violating node")
            expect(
                all(graph.eccentricity(u) <= k for u in range(source)),
                f"k={k} witness source is not the lowest violating node",
            )
            expect(reached[k][source] == sum(d <= k for d in dist), f"k={k} reach count is wrong")
            expect(k_star >= max(dist), f"k*={k_star} is below a measured eccentricity")
        return {}

    return check


def check_generate(r: int, n: int):
    """Two-star: measured certificate equals the claimed one, and the files match it."""
    b = (r - 1) * n
    claimed = {"b": b, "c": b + 1, "k_star": 2, "node_count": r * n, "r": r}

    def check(code: int | None, stdout: str, out_dir: Path) -> dict:
        expect(code == 0, f"generate exited {code}")
        lines = stdout.splitlines()
        expect(lines[1] == f"claimed  B={b} C={b + 1} k=2", f"claimed line {lines[1]!r}")
        measured = json.loads(lines[-1])
        expect(measured == claimed, f"measured {measured} != claimed {claimed}")
        certificate = (out_dir / "certificate.json").read_text(encoding="utf-8")
        expect(certificate == lines[-1] + "\n", "certificate.json differs from the printed certificate")
        edge_lines = (out_dir / "edges.txt").read_bytes().count(b"\n")
        expect(edge_lines == r * n * (n - 1) // 2 + b, f"edges.txt has {edge_lines} lines")
        node_lines = (out_dir / "communities.txt").read_bytes().count(b"\n")
        expect(node_lines == r * n, f"communities.txt has {node_lines} lines")
        return {}

    return check


def islands_integrated(r: int, n: int, k: int, bridges) -> bool:
    """Harness re-check: r complete communities of n (ids c*n..) plus bridges have diameter <= k."""
    count = r * n
    adjacency = [[v for v in range((u // n) * n, (u // n + 1) * n) if v != u] for u in range(count)]
    for u, v in bridges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return all(0 <= d <= k for u in range(count) for d in _bfs(adjacency, u))


def _table_lower(r: int, n: int, k: int) -> int:
    """Lower end of the paper's bridge threshold for k in {2, 3}."""
    return (r - 1) * n if k == 2 else r * (r - 1) // 2


def check_exhaustive(r: int, n: int, k: int, minimum: int, witness: list[list[int]]):
    """Certified minimum and lex-least witness equal the recorded ones; the witness re-checks."""

    def check(code: int | None, stdout: str, out_dir: Path) -> dict:
        expect(code == 0, f"certify exited {code}")
        (row,) = json.loads(stdout)["rows"]
        expect(row["min_bridges"] == minimum, f"min {row['min_bridges']} != {minimum}")
        expect(row["certified"] is True and row["agrees"] is True, "row is not certified in agreement")
        expect(row["witness"] == witness, f"witness {row['witness']} is not the recorded lex-least one")
        expect(islands_integrated(r, n, k, witness), "witness is not k-integrated")
        return {}

    return check


def check_budget_row(r: int, n: int, k: int):
    """Fixed-budget row: exit 2 with a sound partial verdict, or a certified table minimum."""
    minimum = _table_lower(r, n, k)

    def check(code: int | None, stdout: str, out_dir: Path) -> dict:
        expect(code in (0, 2), f"certify exited {code}")
        (row,) = json.loads(stdout)["rows"]
        ruled_out = row["exhausted_size"]
        expect(isinstance(ruled_out, int) and r - 2 <= ruled_out < minimum, f"sizes <= {ruled_out} ruled out")
        if code == 2:
            expect(row["min_bridges"] is None and row["certified"] is False, "exit 2 with a certified row")
        else:
            expect(row["min_bridges"] == minimum and row["certified"] is True, "certified min is not the table's")
        return {"certify_ruled_out": ruled_out}

    return check


def check_randomized(r: int, n: int, ks: tuple[int, ...], seed: int):
    """Each witness re-checks as k-integrated and is no smaller than the table's lower bound."""

    def check(code: int | None, stdout: str, out_dir: Path) -> dict:
        expect(code == 0, f"certify exited {code}")
        payload = json.loads(stdout)
        expect(payload["seed"] == seed, "seed not passed through")
        expect([row["k"] for row in payload["rows"]] == list(ks), "rows do not match --k")
        for k, row in zip(ks, payload["rows"]):
            witness = row["witness"]
            expect(row["upper_bound"] == len(witness), f"k={k} bound differs from the witness size")
            expect(len(witness) >= _table_lower(r, n, k), f"k={k} witness beats the table's lower bound")
            expect(islands_integrated(r, n, k, witness), f"k={k} witness is not k-integrated")
            expect(row["agrees"] is True, f"k={k} row does not agree")
        return {}

    return check


ANALYZE_KS = (1, 2, 3)


def _analyze_call(graph: _CommunityInput, paths: tuple[Path, Path]) -> Call:
    argv = ("analyze", "--edges", str(paths[0]), "--communities", str(paths[1]), "--k", ",".join(map(str, ANALYZE_KS)))
    return Call("analyze", "analyze", argv, check_analyze(graph, ANALYZE_KS))


def sparse_analyze(seed: int, work_dir: Path, r: int = 8, n: int = 375, degree: int = 8) -> Workload:
    rng = random.Random(seed)
    graph = SparseGraph(rng, r, n, degree)
    paths = graph.write(rng, work_dir)
    return Workload(
        "sparse-analyze",
        [_analyze_call(graph, paths)],
        {"metrics.quotient_classes": graph.twin_classes()},
    )


def dense_io(seed: int, work_dir: Path, r: int = 8, n: int = 400) -> Workload:
    rng = random.Random(seed)
    graph = DenseGraph(rng, r, n)
    paths = graph.write(rng, work_dir)
    generate = ("generate", "--family", "two-star", "-r", str(r), "-n", str(n), "--out", "{out}")
    return Workload(
        "dense-io",
        [_analyze_call(graph, paths), Call("generate", "generate", generate, check_generate(r, n))],
        {"metrics.quotient_classes": graph.twin_classes()},
    )


# recorded once from the exhaustive oracle; the lex-least witness is part of its contract
CERTIFIED = {
    (3, 4, 2): (8, [[0, 4], [0, 5], [0, 6], [0, 7], [0, 8], [0, 9], [0, 10], [0, 11]]),
    (4, 4, 3): (6, [[0, 4], [0, 8], [0, 12], [4, 8], [4, 12], [8, 12]]),
}
BUDGET_ROW = (4, 4, 2)
BUDGET = 300_000
RANDOMIZED = (8, 8, (2, 3))


def certify_search(seed: int, work_dir: Path, trials: int = 20, budget: int = BUDGET) -> Workload:
    calls = []
    for (r, n, k), (minimum, witness) in CERTIFIED.items():
        argv = ("certify", "-r", str(r), "-n", str(n), "--k", str(k))
        calls.append(Call(f"certify-{r}-{n}-{k}", "certify", argv, check_exhaustive(r, n, k, minimum, witness)))
    r, n, k = BUDGET_ROW
    argv = ("certify", "-r", str(r), "-n", str(n), "--k", str(k), "--budget", str(budget))
    calls.append(Call(f"budget-{r}-{n}-{k}", "budget_row", argv, check_budget_row(r, n, k)))
    r, n, ks = RANDOMIZED
    argv = (
        "certify", "-r", str(r), "-n", str(n), "--k", ",".join(map(str, ks)),
        "--mode", "randomized", "--seed", str(seed), "--trials", str(trials),
    )
    calls.append(Call(f"randomized-{r}-{n}", "randomized", argv, check_randomized(r, n, ks, seed)))
    return Workload("certify-search", calls)


WORKLOADS: dict[str, Callable[..., Workload]] = {
    "sparse-analyze": sparse_analyze,
    "dense-io": dense_io,
    "certify-search": certify_search,
}
