"""End-to-end acceptance gate: one test per criterion, runtime caps asserted."""
import json
import random
import time

from kintegration import (
    Bound,
    OracleVerdict,
    RowCheck,
    bridge_threshold,
    bridges,
    build_report,
    central_nodes,
    central_threshold,
    check_threshold_row,
    cli,
    complete_join,
    complete_quotient,
    extended_star,
    integration_level,
    is_k_integrated,
    min_bridges_for_sizes,
    pair_bridge_minimum,
    path_quotient,
    segregation_verdict,
    threshold_row,
    two_star,
)
from kintegration.cli import canonical_json, cmd_analyze, cmd_generate

import naive
from helpers import add_edge, id_edges, islands, random_community_graph, remove_edge


def test_criterion_1_threshold_values():
    start = time.perf_counter()
    expected = {
        (8, 1000, 1): (28_000_000, 8_000),
        (8, 1000, 2): (7_000, 7_001),
        (8, 1000, 3): (28, 8),
        (8, 9, 1): (2268, 72),
        (8, 9, 2): (63, 64),
        (8, 9, 3): (28, 8),
        (8, 9, 9): (7, 8),
        (8, 9, 12): (7, 8),
    }
    for (r, n, k), (b, c) in expected.items():
        assert bridge_threshold(r, n, k) == Bound(b, b)
        assert central_threshold(r, n, k) == c
    assert time.perf_counter() - start < 1.0


def test_criterion_2_construction_certificates():
    start = time.perf_counter()
    for r in range(2, 7):
        for n in range(r, 9):
            variants = [
                (complete_join(r, n), 1),
                (two_star(r, n), 2),
                (extended_star(r, n, complete_quotient(r)), 3),
                (extended_star(r, n, path_quotient(r)), r + 1),
            ]
            for construction, k in variants:
                g = construction.graph
                measured = (len(bridges(g)), len(central_nodes(g)), integration_level(g))
                claimed = (construction.claimed_b, construction.claimed_c, construction.claimed_k)
                bound = bridge_threshold(r, n, k)
                assert bound.exact
                table = (bound.lower, central_threshold(r, n, k), k)
                assert measured == table, (construction.family, r, n, measured, table)
                assert claimed == table, (construction.family, r, n, claimed, table)
    assert time.perf_counter() - start < 10.0


def test_criterion_3_small_scale_tightness(monkeypatch, capsys):
    start = time.perf_counter()
    for r, n in [(2, 2), (2, 3), (3, 3)]:
        for k in (1, 2, 3):
            verdict = check_threshold_row(r, n, k).verdict
            assert verdict.certified
            bound = bridge_threshold(r, n, k)
            assert bound.exact
            assert verdict.min_bridges == bound.lower, (r, n, k)
        assert cli.main(["certify", "-r", str(r), "-n", str(n), "--k", "1,2,3"]) == 0
        capsys.readouterr()

    # a certified mismatch must surface as exit code 3
    fake_verdict = OracleVerdict(
        sizes=(2, 2), witness=((0, 2),), sets_examined=5, exhausted_size=0,
    )
    # one bridge falls short of B_2 = 2
    fake_row = RowCheck(threshold_row(2, 2, 2), fake_verdict)
    monkeypatch.setattr(cli.oracle, "check_threshold_row", lambda r, n, k, budget: fake_row)
    assert cli.main(["certify", "-r", "2", "-n", "2", "--k", "2"]) == 3
    capsys.readouterr()
    assert time.perf_counter() - start < 300.0


def test_criterion_4_two_community_minimum():
    start = time.perf_counter()
    for n1, n2 in [(1, 1), (2, 2), (2, 3), (3, 3)]:
        verdict = min_bridges_for_sizes((n1, n2), 2)
        assert verdict.certified
        assert verdict.min_bridges == min(n1, n2)
        assert verdict.min_bridges == pair_bridge_minimum(n1, n2)
    assert time.perf_counter() - start < 60.0


def test_criterion_5_property_suites():
    start = time.perf_counter()

    # (a) integration is monotone in k, and adding an edge never raises k*
    rng = random.Random(51)
    for _ in range(200):
        g = random_community_graph(rng, max_nodes=40, connected=True)
        k_star = integration_level(g)
        assert k_star is not None
        for k in range(1, k_star + 3):
            assert is_k_integrated(g, k).integrated == (k >= k_star)
        non_edges = [
            (u, v)
            for u in range(g.node_count)
            for v in range(u + 1, g.node_count)
            if v not in g.adjacency[u]
        ]
        if non_edges:
            u, v = rng.choice(non_edges)
            assert integration_level(add_edge(g, u, v)) <= k_star

    # (b) the kernel's reach counts agree with the iterative-relaxation reference
    rng = random.Random(52)
    for _ in range(100):
        g = random_community_graph(rng, max_nodes=50, connected=rng.random() < 0.7)
        ks = range(1, g.node_count + 1)
        assert build_report(g, ks).reach_profile == naive.reach_profile(g.node_count, id_edges(g), ks)

    # (c) minimal constructions lose k-integration when any one bridge goes
    for r in range(2, 5):
        for n in range(r, 5):
            variants = [
                (complete_join(r, n), 1),
                (two_star(r, n), 2),
                (extended_star(r, n, complete_quotient(r)), 3),
            ]
            for construction, k in variants:
                g = construction.graph
                for u, v in bridges(g):
                    assert not is_k_integrated(remove_edge(g, u, v), k).integrated, (
                        construction.family, r, n, (u, v),
                    )

    assert time.perf_counter() - start < 120.0


def test_criterion_6_verdict_soundness():
    start = time.perf_counter()
    rng = random.Random(6)
    segregated_seen = integrated_seen = 0
    for _ in range(500):
        r = rng.randint(1, 5)
        n = rng.randint(r, 6)
        pool = [
            (u, v)
            for u in range(r * n)
            for v in range(u + 1, r * n)
            if u // n != v // n
        ]
        picks = rng.sample(pool, rng.randint(0, min(len(pool), 8))) if pool else []
        g = islands(r, n, picks)
        k = rng.randint(1, 5)
        verdict = segregation_verdict(g, k)
        integrated = is_k_integrated(g, k).integrated
        if verdict is not None:
            segregated_seen += 1
            assert not integrated, (r, n, k, picks)
        if integrated:
            integrated_seen += 1
    assert segregated_seen > 0 and integrated_seen > 0
    assert time.perf_counter() - start < 120.0


def test_criterion_7_intermediate_k_probe():
    start = time.perf_counter()
    for r, n in [(4, 4), (5, 5)]:
        verdict = check_threshold_row(r, n, 4).verdict
        assert verdict.certified
        band = bridge_threshold(r, n, 4)
        assert band.lower <= verdict.min_bridges <= band.upper
        # informational only: the exact value is not pinned, the envelope is
        print(
            f"k=4 minimum for r={r}, n={n}: {verdict.min_bridges} "
            f"(band [{band.lower}, {band.upper}], star-quotient upper bound {r - 1}, "
            f"{verdict.sets_examined} sets examined)"
        )
    assert time.perf_counter() - start < 600.0


def test_criterion_8_certificate_round_trip(tmp_path):
    start = time.perf_counter()
    variants = [
        ("complete-join", "complete"),
        ("two-star", "complete"),
        ("extended-star", "complete"),
        ("extended-star", "path"),
    ]
    for family, quotient in variants:
        out_dir = tmp_path / f"{family}-{quotient}"
        payload = cmd_generate(family, 4, 4, quotient_spec=quotient, out_dir=str(out_dir))
        written = (out_dir / "certificate.json").read_bytes()
        assert written == (canonical_json(payload["measured"]) + "\n").encode()

        analyzed = cmd_analyze(out_dir / "edges.txt", out_dir / "communities.txt", (payload["claimed"]["k"],))
        assert (canonical_json(analyzed["certificate"]) + "\n").encode() == written
        assert json.loads(written)["k_star"] == payload["claimed"]["k"]
    assert time.perf_counter() - start < 10.0
