"""Digests of what every subcommand prints and writes, for a fixed corpus of requests.

Each request runs in-process through ``cli.main`` in a fresh temporary
directory, with relative paths so no digest depends on where it ran, and
with any size limit it names shrunk for that one call. Its entry holds
the exit code and the sha256 of stdout, stderr and every file it wrote.
``analyze`` reads the sample, a seeded input, a few edge cases, one small
network of each ``generate`` family and quotient kind, and inputs it
refuses; ``analyze`` and ``certify`` are each refused a repeated level
once. The oracle grid's entries hold the minimum, witness, sets
examined and exhausted size of ``oracle.min_bridges_for_sizes`` for every
sorted profile of 2 to 4 communities of 1 to 4 nodes, at each k from 1 to
r + 1 and a budget of ``GRID_BUDGET``, so the budget's exact stopping point
is pinned with them. The randomized grid's entries hold the witness of
``oracle.min_bridges_randomized`` for 2 to 6 communities of 1 to 4 nodes at
each k from 2 to r + 2, seeds 0 and 1 and 3 trials, and for 8 communities
of 8 nodes at k 2 to 4, seeds 0 to 2 and 20 trials.
``tests/test_cli_manifest.py`` compares the corpus against the checked-in
``cli_manifest.json``.

    PYTHONPATH=src python tests/cli_manifest.py          # report entries that differ
    PYTHONPATH=src python tests/cli_manifest.py --write  # rewrite the manifest
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
import tempfile
from pathlib import Path
from unittest import mock

from kintegration import cli, constructions, fileio, graph, metrics, oracle

MANIFEST = Path(__file__).with_name("cli_manifest.json")
DATA_DIR = Path(__file__).with_name("data")

SAMPLE = {
    "edges.txt": (DATA_DIR / "sample_edges.txt").read_text(),
    "communities.txt": (DATA_DIR / "sample_communities.txt").read_text(),
}


def _random_input(seed: int = 7) -> dict[str, str]:
    """Five communities of unequal sizes (one of a single node) on a random spanning tree plus random edges.

    Many local pairs are missing, so ``--localize`` adds edges.
    """
    rng = random.Random(seed)
    sizes = (1, 3, 4, 6, 9)
    community_of = [c for c, size in enumerate(sizes) for _ in range(size)]
    nodes = [f"v{u}" for u in range(len(community_of))]
    order = rng.sample(range(len(nodes)), len(nodes))
    tree = [(order[i], order[rng.randrange(i)]) for i in range(1, len(nodes))]
    pairs = {tuple(sorted(pair)) for pair in tree + [rng.sample(range(len(nodes)), 2) for _ in range(15)]}
    return {
        "edges.txt": "".join(f"{nodes[a]} {nodes[b]}\n" for a, b in sorted(pairs)),
        "communities.txt": "".join(f"{node} C{c}\n" for node, c in zip(nodes, community_of)),
    }


# one complete community of four nodes: every level is integrated and the table is the r = 1 row
ONE_COMMUNITY = {
    "edges.txt": "a b\na c\na d\nb c\nb d\nc d\n",
    "communities.txt": "a A\nb A\nc A\nd A\n",
}

# two complete communities of three nodes and no bridge: k* is none
DISCONNECTED = {
    "edges.txt": "a1 a2\na1 a3\na2 a3\nb1 b2\nb1 b3\nb2 b3\n",
    "communities.txt": "a1 A\na2 A\na3 A\nb1 B\nb2 B\nb3 B\n",
}

# one small network of each generate family and quotient kind, written as generate writes it
GENERATED = [
    ("complete-join", 3, 2),
    ("two-star", 3, 2),
    *[("extended-star", 3, 2, quotient) for quotient in ("complete", "star", "path", "cycle")],
    ("extended-star", 8, 1, "figure1:5"),
]

# inputs that analyze refuses, each with a one-line error
REFUSED_INPUTS = {
    "missing file": {"edges.txt": SAMPLE["edges.txt"]},
    "non-utf-8 bytes": {"edges.txt": b"a b\n\xff c\n", "communities.txt": "a A\nb A\nc A\n"},
    "three-token line": {"edges.txt": "a b\na b c\n", "communities.txt": "a A\nb A\nc A\n"},
    "self-loop": {"edges.txt": "a b\nb b\n", "communities.txt": "a A\nb A\n"},
    "unknown node": {"edges.txt": "a b\nb z\n", "communities.txt": "a A\nb A\n"},
    "empty community map": {"edges.txt": "a b\n", "communities.txt": "# no nodes\n"},
    "duplicate assignment": {"edges.txt": "a b\n", "communities.txt": "a A\nb A\na B\n"},
}

FORMATS = ("json", "csv", "text")
GRID_BUDGET = 50_000
ANALYZE_FILES = ["--edges", "edges.txt", "--communities", "communities.txt"]


def _generate_requests() -> list[list[str]]:
    sized = [
        (["--family", "complete-join"], [(1, 1), (1, 3), (3, 2), (4, 3)]),
        (["--family", "two-star"], [(1, 2), (2, 1), (3, 3), (5, 2)]),
    ]
    for quotient in ("complete", "star", "path"):
        sized.append((["--family", "extended-star", "--quotient", quotient], [(1, 2), (3, 2), (4, 3)]))
    sized.append((["--family", "extended-star", "--quotient", "cycle"], [(3, 1), (3, 2), (5, 3)]))
    for level in range(4, 10):
        sized.append((["--family", "extended-star", "--quotient", f"figure1:{level}"], [(8, 1), (8, 2)]))
    requests = [
        ["generate", *spec, "-r", str(r), "-n", str(n), "--out", "out", *dot]
        for spec, sizes in sized
        for r, n in sizes
        for dot in ([], ["--dot"])
    ]
    refused = [
        ["--family", "two-star", "-r", "8", "-n", "100000"],
        ["--family", "extended-star", "--quotient", "complete", "-r", "5000", "-n", "1"],
        ["--family", "extended-star", "--quotient", "cycle", "-r", "2", "-n", "2"],
        ["--family", "extended-star", "--quotient", "figure1:3", "-r", "8", "-n", "2"],
        ["--family", "extended-star", "--quotient", "figure1:x", "-r", "8", "-n", "2"],
        ["--family", "extended-star", "--quotient", "figure1:4", "-r", "5", "-n", "2"],
        ["--family", "extended-star", "--quotient", "wheel", "-r", "3", "-n", "2"],
        ["--family", "complete-join", "-r", "0", "-n", "2"],
    ]
    return requests + [["generate", *spec, "--out", "out"] for spec in refused]


def _certify_requests() -> list[list[str]]:
    rows = [
        ["-r", "2", "-n", "2", "--k", "1,2,3"],
        ["-r", "3", "-n", "3", "--k", "1,2,3,4"],
        ["-r", "4", "-n", "4", "--k", "4,5"],
        ["-r", "3", "-n", "3", "--k", "2", "--budget", "4"],
        ["-r", "3", "-n", "3", "--k", "2,3", "--mode", "randomized", "--seed", "1"],
    ]
    refused = [["-r", "3", "-n", "2"], ["-r", "2", "-n", "2", "--budget", "0"],
               ["-r", "3", "-n", "3", "--k", "2", "--mode", "randomized", "--seed", "-1"],
               ["-r", "3", "-n", "3", "--k", "2", "--seed", "-1"], ["-r", "3", "-n", "3", "--k", "2", "--trials", "0"],
               ["-r", "3", "-n", "3", "--k", "2", "--mode", "randomized", "--budget", "0"],
               ["-r", "2", "-n", "2", "--k", "2,2"]]
    return [["certify", *row, "--format", fmt] for row in rows for fmt in FORMATS] + [
        ["certify", *row] for row in refused
    ]


def _thresholds_requests() -> list[list[str]]:
    tables = [["-r", "8", "-n", "9"], ["-r", "1", "-n", "5"], ["-r", "4", "-n", "4", "--kmax", "6"]]
    return [["thresholds", *table, "--format", fmt] for table in tables for fmt in FORMATS] + [
        ["thresholds", "-r", "2", "-n", "2", "--kmax", "10001"]
    ]


def _analyze_requests() -> list[list[str]]:
    return [
        ["analyze", *ANALYZE_FILES, "--format", fmt, *localize]
        for fmt in FORMATS
        for localize in ([], ["--localize"])
    ] + [["analyze", *ANALYZE_FILES, "--localize", "--strict-model"]]


def _generated(family: str, r: int, n: int, *quotient: str) -> dict[str, str]:
    """The edge list and community map ``generate`` writes for one construction."""
    g = cli.build_construction(family, r, n, *quotient).graph
    return {"edges.txt": "".join(fileio.format_edge_list(g)),
            "communities.txt": "".join(fileio.format_community_map(g))}


def corpus() -> dict[str, tuple[dict[str, str | bytes], list[str], tuple]]:
    """Each request's key, its input files, its argv and the (module, name, value) limits it shrinks."""
    argvs = _generate_requests() + _certify_requests() + _thresholds_requests()
    entries = {" ".join(argv): ({}, argv, ()) for argv in argvs}
    random_input = _random_input()
    for name, inputs in (("sample", SAMPLE), ("random", random_input)):
        for argv in _analyze_requests():
            entries[f"{name}: {' '.join(argv)}"] = (inputs, argv, ())
    inputs_with_ks = [("sample", SAMPLE, ["--k", "4,5"]), ("one-community", ONE_COMMUNITY, []),
                      ("disconnected", DISCONNECTED, [])]
    inputs_with_ks += [("generated " + " ".join(map(str, row)), _generated(*row), []) for row in GENERATED]
    for name, inputs, ks in inputs_with_ks:
        for fmt in FORMATS:
            argv = ["analyze", *ANALYZE_FILES, *ks, "--format", fmt]
            entries[f"{name}: {' '.join(argv)}"] = (inputs, argv, ())
    for name, inputs in REFUSED_INPUTS.items():
        entries[f"{name}: analyze"] = (inputs, ["analyze", *ANALYZE_FILES], ())
    repeated = ["analyze", *ANALYZE_FILES, "--k", "2,2"]
    entries[f"sample: {' '.join(repeated)}"] = (SAMPLE, repeated, ())
    limited = [
        ("sample", SAMPLE, ["analyze", *ANALYZE_FILES], (metrics, "MAX_CLASSES", 3)),
        # the default three levels of the sample's 12 nodes need 36 reach counts
        ("sample", SAMPLE, ["analyze", *ANALYZE_FILES], (metrics, "MAX_REACH_COUNTS", 35)),
        ("random", random_input, ["analyze", *ANALYZE_FILES, "--localize"], (graph, "MAX_EDGES", 10)),
        (None, {}, ["generate", "--family", "complete-join", "-r", "3", "-n", "2", "--out", "out"],
         (constructions, "MAX_EDGES", 10)),
    ]
    for name, inputs, argv, (module, attr, value) in limited:
        label = f"{name}, " if name else ""
        entries[f"{label}{attr} {value}: {' '.join(argv)}"] = (inputs, argv, ((module, attr, value),))
    return entries


def oracle_grid() -> dict[str, tuple[tuple[int, ...], int]]:
    """Each grid row's key and its (sizes, k)."""
    return {
        f"oracle: sizes {' '.join(map(str, sizes))} k {k}": (sizes, k)
        for r in range(2, 5)
        for sizes in itertools.combinations_with_replacement(range(1, 5), r)
        for k in range(1, r + 2)
    }


def run_oracle(sizes: tuple[int, ...], k: int) -> dict:
    """One grid row's verdict; the witness is written as "u-v" pairs, or None."""
    verdict = oracle.min_bridges_for_sizes(sizes, k, GRID_BUDGET)
    return {
        "min_bridges": verdict.min_bridges,
        "witness": None if verdict.witness is None else " ".join(f"{u}-{v}" for u, v in verdict.witness),
        "sets_examined": verdict.sets_examined,
        "exhausted_size": verdict.exhausted_size,
    }


def randomized_grid() -> dict[str, tuple[int, int, int, int, int]]:
    """Each randomized row's key and its (r, n, k, seed, trials)."""
    rows = [(r, n, k, seed, 3) for r in range(2, 7) for n in range(1, 5) for k in range(2, r + 3) for seed in (0, 1)]
    rows += [(8, 8, k, seed, 20) for k in (2, 3, 4) for seed in (0, 1, 2)]
    return {"randomized: r {} n {} k {} seed {} trials {}".format(*row): row for row in rows}


def run_randomized(r: int, n: int, k: int, seed: int, trials: int) -> dict:
    """One randomized row's witness, written as "u-v" pairs."""
    witness = oracle.min_bridges_randomized(r, n, k, trials=trials, seed=seed)
    return {"witness": " ".join(f"{u}-{v}" for u, v in witness)}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_request(inputs: dict[str, str | bytes], argv: list[str], limits: tuple = ()) -> dict:
    """The exit code and the digests of stdout, stderr and each written file of one CLI call.

    Each (module, name, value) in ``limits`` is set for the call and restored after it.
    """
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as patched:
        os.chdir(tmp)
        try:
            for name, text in inputs.items():
                Path(name).write_bytes(text if isinstance(text, bytes) else text.encode())
            for module, name, value in limits:
                patched.enter_context(mock.patch.object(module, name, value))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            written = {
                path.as_posix(): _sha(path.read_bytes())
                for path in sorted(Path().rglob("*"))
                if path.is_file() and path.as_posix() not in inputs
            }
        finally:
            os.chdir(home)
    return {
        "exit": code,
        "stdout": _sha(out.getvalue().encode()),
        "stderr": _sha(err.getvalue().encode()),
        "files": written,
    }


def digests() -> dict[str, dict]:
    current = {key: run_request(*request) for key, request in corpus().items()}
    current |= {key: run_oracle(sizes, k) for key, (sizes, k) in oracle_grid().items()}
    return current | {key: run_randomized(*row) for key, row in randomized_grid().items()}


def main(argv: list[str]) -> int:
    current = digests()
    if argv == ["--write"]:
        MANIFEST.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(current)} entries to {MANIFEST}")
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 1
    pinned = json.loads(MANIFEST.read_text())
    differ = sorted(key for key in pinned.keys() | current.keys() if pinned.get(key) != current.get(key))
    for key in differ:
        print(f"differs: {key}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
