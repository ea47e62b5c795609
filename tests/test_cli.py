import collections
import json
import logging
import os
import re
import subprocess
import sys

import pytest

from kintegration import (
    Bound, InvalidParamsError, OracleVerdict, QuotientGraph, RowCheck, cli, constructions, fileio, graph, metrics,
)
from kintegration.cli import canonical_json, cmd_analyze, main
from kintegration.thresholds import MAX_KMAX

SAMPLE = ["--edges", "tests/data/sample_edges.txt", "--communities", "tests/data/sample_communities.txt"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_matches_golden(capsys, golden_dir):
    code, out, _ = run(capsys, ["analyze", *SAMPLE, "--k", "1,2,3,4,5"])
    assert code == 0
    assert out == (golden_dir / "analyze_sample.json").read_text()


def test_thresholds_matches_golden(capsys, golden_dir):
    code, out, _ = run(capsys, ["thresholds", "-r", "8", "-n", "9", "--kmax", "9"])
    assert code == 0
    assert out == (golden_dir / "thresholds_r8_n9.json").read_text()


def test_certify_matches_golden(capsys, golden_dir):
    # without --k, certify answers the default levels 1, 2 and 3
    for levels in (["--k", "1,2,3"], []):
        code, out, _ = run(capsys, ["certify", "-r", "2", "-n", "2", *levels])
        assert code == 0
        assert out == (golden_dir / "certify_r2_n2.json").read_text()


@pytest.mark.parametrize("fmt, suffix", [("json", "json"), ("csv", "csv"), ("text", "txt")])
def test_certify_randomized_matches_golden(capsys, golden_dir, fmt, suffix):
    argv = ["certify", "-r", "3", "-n", "3", "--k", "2,3", "--mode", "randomized", "--seed", "5", "--trials", "6"]
    code, out, err = run(capsys, [*argv, "--format", fmt])
    assert (code, err) == (0, "")
    assert out == (golden_dir / f"certify_randomized_r3_n3.{suffix}").read_text()


def test_certify_exhausted_budget_matches_golden(capsys, golden_dir):
    # no row is certified, so its witness, witness_centrals and agrees are null
    code, out, err = run(capsys, ["certify", "-r", "3", "-n", "3", "--k", "2,3", "--budget", "4"])
    assert (code, err) == (2, "")
    assert out == (golden_dir / "certify_budget4_r3_n3.json").read_text()


def test_analyze_csv(capsys):
    code, out, _ = run(capsys, ["analyze", *SAMPLE, "--k", "2,5", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == [
        "k,integrated,witness_source,witness_target,witness_distance,reason",
        "2,false,01,11,3,",
        "5,true,,,,",
    ]


def test_thresholds_csv(capsys):
    code, out, _ = run(capsys, ["thresholds", "-r", "8", "-n", "1000", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == [
        "k,bridges_lower,bridges_upper,bridges_exact,centrals",
        "1,28000000,28000000,true,8000",
        "2,7000,7000,true,7001",
        "3,28,28,true,8",
    ]


def test_analyze_text_mentions_witness(capsys):
    code, out, _ = run(capsys, ["analyze", *SAMPLE, "--k", "3", "--format", "text"])
    assert code == 0
    assert "k*: 5" in out
    assert "k=3: not integrated (01 -> 21, distance 5)" in out
    assert "provably segregated" in out


def test_analyze_unreachable_witness(capsys, tmp_path):
    (tmp_path / "e.txt").write_text("a1 a2\nb1 b2\n")
    (tmp_path / "c.txt").write_text("a1 A\na2 A\nb1 B\nb2 B\n")
    code, out, _ = run(
        capsys,
        ["analyze", "--edges", str(tmp_path / "e.txt"), "--communities", str(tmp_path / "c.txt"), "--k", "3"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["k_star"] is None
    assert payload["k_star_reason"] == "graph is disconnected"
    row = payload["per_k"][0]
    assert row["witness"] == {"source": "a1", "target": "b1", "distance": None, "reason": "unreachable"}


def test_analyze_localize_flag(capsys, tmp_path):
    (tmp_path / "e.txt").write_text("a1 a3\na1 b1\nb1 b2\n")
    (tmp_path / "c.txt").write_text("a1 A\na2 A\na3 A\nb1 B\nb2 B\n")
    base = ["analyze", "--edges", str(tmp_path / "e.txt"), "--communities", str(tmp_path / "c.txt"), "--k", "2"]
    code, out, _ = run(capsys, base)
    assert code == 0
    assert json.loads(out)["data_quality"]["locally_complete"] is False
    code, out, _ = run(capsys, base + ["--localize"])
    assert code == 0
    payload = json.loads(out)
    assert payload["data_quality"]["locally_complete"] is True
    assert payload["graph"]["bridge_count"] == 1


def test_analyze_strict_model_rejects_uneven_sizes(capsys, tmp_path):
    (tmp_path / "e.txt").write_text("a1 b1\n")
    (tmp_path / "c.txt").write_text("a1 A\na2 A\nb1 B\n")
    code, out, err = run(
        capsys,
        ["analyze", "--edges", str(tmp_path / "e.txt"), "--communities", str(tmp_path / "c.txt"), "--strict-model"],
    )
    assert code == 1
    assert out == ""
    assert "community sizes differ" in err


def test_analyze_communities_smaller_than_their_count(capsys, tmp_path):
    # three communities of two nodes: equal sizes, but n < r
    (tmp_path / "e.txt").write_text("a1 a2\nb1 b2\nc1 c2\na1 b1\nb1 c1\n")
    (tmp_path / "c.txt").write_text("a1 A\na2 A\nb1 B\nb2 B\nc1 C\nc2 C\n")
    argv = ["analyze", "--edges", str(tmp_path / "e.txt"), "--communities", str(tmp_path / "c.txt")]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["thresholds"] is None
    code, out, err = run(capsys, argv + ["--strict-model"])
    assert (code, out) == (1, "")
    assert err == "error: community size 2 is below the community count 3\n"


def test_analyze_single_community_threshold_note(capsys, tmp_path):
    (tmp_path / "e.txt").write_text("x y\n")
    (tmp_path / "c.txt").write_text("x only\ny only\n")
    code, out, _ = run(
        capsys, ["analyze", "--edges", str(tmp_path / "e.txt"), "--communities", str(tmp_path / "c.txt"), "--k", "1"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"]["b"] == 0
    assert payload["certificate"]["c"] == 0
    assert payload["thresholds"]["note"] == "a single community is 1-integrated with no bridges"
    row = payload["thresholds"]["rows"][0]
    assert row["bridges_required"] == {"lower": 0, "upper": 0, "exact": True}


def test_parse_error_exits_1(capsys, tmp_path):
    (tmp_path / "e.txt").write_text("a b c\n")
    (tmp_path / "c.txt").write_text("a A\nb A\nc A\n")
    code, _, err = run(
        capsys, ["analyze", "--edges", str(tmp_path / "e.txt"), "--communities", str(tmp_path / "c.txt")]
    )
    assert code == 1
    assert "line 1" in err


def test_missing_file_exits_1(capsys, tmp_path):
    code, _, err = run(
        capsys, ["analyze", "--edges", str(tmp_path / "nope.txt"), "--communities", str(tmp_path / "nope.txt")]
    )
    assert code == 1
    assert "error:" in err


def test_non_utf8_input_exits_1(capsys, tmp_path):
    (tmp_path / "e.txt").write_bytes(b"a1 a2\nb1 \xffb2\n")
    (tmp_path / "c.txt").write_text("a1 A\na2 A\nb1 B\nb2 B\n")
    code, out, err = run(
        capsys, ["analyze", "--edges", str(tmp_path / "e.txt"), "--communities", str(tmp_path / "c.txt")]
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: line 2: ")
    assert str(tmp_path / "e.txt") in err
    assert "UTF-8" in err


def test_byte_order_marks_do_not_reach_node_names(capsys, tmp_path):
    edges, communities = b"a1 a2\na2 b1\nb1 b2\n", b"a1 A\na2 A\nb1 B\nb2 B\n"
    args = ["analyze", "--edges", str(tmp_path / "e.txt"), "--communities", str(tmp_path / "c.txt")]
    outputs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        (tmp_path / "e.txt").write_bytes(bom + edges)
        (tmp_path / "c.txt").write_bytes(bom + communities)
        code, out, err = run(capsys, args)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert "\ufeff" not in outputs[1]


def test_usage_errors_exit_1(capsys):
    assert main(["analyze"]) == 1  # missing required flags
    capsys.readouterr()
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
    assert main(["certify", "-r", "2", "-n", "2", "--k", "0"]) == 1
    capsys.readouterr()
    assert main(["certify", "-r", "2", "-n", "2", "--k", "two"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["analyze", *SAMPLE], ["certify", "-r", "2", "-n", "2"]])
def test_a_repeated_level_is_refused_at_parsing(capsys, argv):
    # a repeated level would run its search twice, and analyze would print it twice in per_k and once in reach_profile
    code, out, err = run(capsys, [*argv, "--k", "2,3,2"])
    assert (code, out) == (1, "")
    assert err.startswith(f"usage: kintegration {argv[0]} ")
    assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
    assert err.endswith(f"kintegration {argv[0]}: error: argument --k: integration levels must not repeat, got '2,3,2'\n")


def test_analyze_json_escapes_names_as_json_does(capsys, tmp_path):
    names = ["caf\u00e9", 'say"hi"', "back\\slash", "\u65e5\u672c", "bell\x07\x7f", "\U0001f600"]
    communities = ['C"1', "C\\2", "\u00c7\u00e9"]
    (tmp_path / "e.txt").write_text("".join(f"{a} {b}\n" for a, b in zip(names, names[1:])), encoding="utf-8")
    (tmp_path / "c.txt").write_text(
        "".join(f"{name} {communities[i % 3]}\n" for i, name in enumerate(names)), encoding="utf-8"
    )
    payload = cmd_analyze(tmp_path / "e.txt", tmp_path / "c.txt", (1, 2, 3))
    assert set(payload["graph"]["nodes"]) == set(names)
    text = cli.render_analyze(payload, "json")
    assert text == json.dumps(payload, indent=2, sort_keys=True)
    assert text.isascii()
    code, out, _ = run(capsys, ["analyze", "--edges", str(tmp_path / "e.txt"), "--communities", str(tmp_path / "c.txt")])
    assert (code, out) == (0, text + "\n")


def test_json_dump_joins_lists_of_plain_ints_and_strs_without_json_dumps(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("json.dumps rendered a list of plain ints or strs")

    payload = {"ids": [3, 1, 2], "names": ["caf\u00e9", 'say"hi"'], "rows": [[1, 2], ["b"]]}
    expected = json.dumps(payload, indent=2, sort_keys=True)
    monkeypatch.setattr(cli.json, "dumps", never)
    assert cli._json_dump(payload) == expected


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "analyze" in out and "generate" in out and "certify" in out and "thresholds" in out


def test_certify_logs_one_progress_line_per_size_at_info(capsys, caplog):
    caplog.set_level(logging.INFO, logger="kintegration.oracle")
    code, out, err = run(capsys, ["certify", "-r", "3", "-n", "3", "--k", "2"])
    assert code == 0 and err == ""
    (row,) = json.loads(out)["rows"]
    pattern = (r"size (\d+): (\d+) sets, (\d+) refuted without a check, (\d+) decided from the ball layers, "
               r"(\d+) subtrees refuted whole holding (\d+) sets, (\d+) of them by their completion, "
               r"(\d+) of (\d+) parents grew their own balls, \d+ sets/s, budget (\d+) of 2000000 used")
    passes = [tuple(map(int, re.fullmatch(pattern, r.getMessage()).groups())) for r in caplog.records]
    sizes, sets, refuted, decided, wholes, held, completed, grown, parents, used = zip(*passes)
    assert list(sizes) == list(range(2, row["min_bridges"] + 1))
    assert sum(sets) == row["sets_examined"]
    assert all(s == r + c for s, r, c in zip(sets, refuted, decided))
    assert sum(refuted) > 0
    # a subtree refuted whole has its sets counted, none decided from the layers
    assert all(h <= r for h, r in zip(held, refuted))
    assert sum(wholes) > 0
    # some of those subtrees are refuted by their completion, and only those count here
    assert all(c <= w for c, w in zip(completed, wholes))
    assert sum(completed) > 0
    # a parent grows its own balls only for a leaf the rule it inherits leaves open
    assert all(g <= p for g, p in zip(grown, parents))
    assert sum(grown) < sum(parents)
    # the budget figure is the running total of sets examined
    assert used[-1] == row["sets_examined"]


def test_randomized_certify_logs_one_line_per_row_at_info(capsys, caplog):
    caplog.set_level(logging.INFO, logger="kintegration.oracle")
    code, out, err = run(capsys, ["certify", "-r", "3", "-n", "3", "--k", "2,3", "--mode", "randomized",
                                  "--seed", "1", "--trials", "4"])
    assert code == 0 and err == ""
    rows = json.loads(out)["rows"]
    pattern = (r"randomized r 3 n 3 k (\d+): 4 trials, (\d+) swaps drawn, (\d+) refuted by a leaf rule, "
               r"(\d+) decided from the ball layers, (\d+) leaf rules grown, best (\d+) bridges")
    lines = [tuple(map(int, re.fullmatch(pattern, r.getMessage()).groups())) for r in caplog.records]
    # (k, swaps drawn, refuted, decided, leaf rules grown, best): every swap drawn is refuted by a leaf rule or
    # decided from its ball layers, and the seed fixes how many of each and how many rules the search grows
    assert lines == [(2, 48, 48, 0, 6, 6), (3, 40, 16, 24, 35, 3)]
    assert [line[-1] for line in lines] == [len(row["witness"]) for row in rows]


def test_each_certify_level_reads_its_row_once_and_caps_its_instance_once(capsys, monkeypatch):
    calls = collections.Counter()

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    def never(*args, **kwargs):
        raise AssertionError("a certify level entered min_bridges_for_sizes")

    row_reader = counted("threshold_row", cli.thresholds.threshold_row)
    monkeypatch.setattr(cli.thresholds, "threshold_row", row_reader)
    monkeypatch.setattr(cli.oracle, "threshold_row", row_reader)
    monkeypatch.setattr(cli.oracle, "_check_size", counted("_check_size", cli.oracle._check_size))
    monkeypatch.setattr(cli.oracle, "min_bridges_for_sizes", never)
    for mode, k in (("exhaustive", "2"), ("exhaustive", "1"), ("randomized", "1"), ("randomized", "2")):
        calls.clear()
        assert run(capsys, ["certify", "-r", "3", "-n", "3", "--k", k, "--mode", mode])[0] == 0
        assert calls == {"threshold_row": 1, "_check_size": 1}, (mode, k)


def test_cmd_certify_defaults_are_the_cli_defaults(capsys):
    for mode in ("exhaustive", "randomized"):
        code, out, _ = run(capsys, ["certify", "-r", "3", "-n", "3", "--k", "3", "--mode", mode])
        assert cli.cmd_certify(3, 3, (3,), mode=mode) == (json.loads(out), code)


def test_certify_budget_exhaustion_exits_2(capsys):
    code, out, _ = run(capsys, ["certify", "-r", "3", "-n", "3", "--k", "2", "--budget", "4"])
    assert code == 2
    payload = json.loads(out)
    assert payload["result"] == "exhausted"
    assert payload["rows"][0]["min_bridges"] is None


def test_certify_disagreement_exits_3(capsys, monkeypatch):
    # fabricate an oracle that contradicts the table
    fake_verdict = OracleVerdict(
        sizes=(2, 2), witness=((0, 2),), sets_examined=7, exhausted_size=0,
    )
    # one bridge falls short of B_2 = 2
    fake_row = RowCheck(cli.thresholds.threshold_row(2, 2, 2), fake_verdict)
    monkeypatch.setattr(cli.oracle, "check_threshold_row", lambda r, n, k, budget: fake_row)
    code, out, _ = run(capsys, ["certify", "-r", "2", "-n", "2", "--k", "2"])
    assert code == 3
    payload = json.loads(out)
    assert payload["result"] == "disagree"
    assert payload["rows"][0]["agrees"] is False


def test_certify_randomized_agreement(capsys):
    code, out, _ = run(
        capsys, ["certify", "-r", "3", "-n", "3", "--k", "2,3", "--mode", "randomized", "--seed", "5", "--trials", "6"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "randomized"
    assert [row["upper_bound"] for row in payload["rows"]] == [6, 3]


def test_certify_randomized_disagreement_exits_3(capsys, monkeypatch):
    # pretend the table demands more bridges than a feasible witness uses
    row = cli.thresholds.threshold_row
    monkeypatch.setattr(cli.thresholds, "threshold_row", lambda r, n, k: row(r, n, k)._replace(bridges=Bound(99, 99)))
    code, out, _ = run(capsys, ["certify", "-r", "3", "-n", "3", "--k", "3", "--mode", "randomized"])
    assert code == 3
    assert json.loads(out)["result"] == "disagree"


def test_certify_randomized_too_few_centrals_exits_3(capsys, monkeypatch):
    # a feasible witness with fewer centrals than the table demands disproves the central count
    row = cli.thresholds.threshold_row
    monkeypatch.setattr(cli.thresholds, "threshold_row", lambda r, n, k: row(r, n, k)._replace(centrals=99))
    code, out, _ = run(capsys, ["certify", "-r", "3", "-n", "3", "--k", "3", "--mode", "randomized"])
    assert code == 3
    payload = json.loads(out)
    assert payload["result"] == "disagree"
    assert payload["rows"][0]["agrees"] is False


def test_generate_round_trip(capsys, tmp_path):
    out_dir = tmp_path / "out"
    code, out, _ = run(
        capsys,
        ["generate", "--family", "extended-star", "-r", "4", "-n", "4", "--quotient", "path", "--out", str(out_dir), "--dot"],
    )
    assert code == 0
    printed_cert = out.strip().splitlines()[-1]
    cert_file = (out_dir / "certificate.json").read_text()
    assert printed_cert + "\n" == cert_file
    assert json.loads(printed_cert) == {"b": 3, "c": 4, "k_star": 5, "node_count": 16, "r": 4}
    assert (out_dir / "graph.dot").read_text().count("penwidth=2.0") == 3

    code, out, _ = run(
        capsys,
        [
            "analyze",
            "--edges", str(out_dir / "edges.txt"),
            "--communities", str(out_dir / "communities.txt"),
            "--k", "4,5",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert canonical_json(payload["certificate"]) + "\n" == cert_file


def test_generate_failed_write_leaves_no_certificate(capsys, tmp_path, monkeypatch):
    out_dir = tmp_path / "out"
    argv = ["generate", "--family", "two-star", "-r", "3", "-n", "3", "--out", str(out_dir)]
    code, _, _ = run(capsys, argv)
    assert code == 0
    stale = (out_dir / "certificate.json").read_bytes()
    assert stale

    def failing_format(g):
        raise OSError("disk full")

    monkeypatch.setattr(fileio, "format_edge_list", failing_format)
    code, out, err = run(capsys, ["generate", "--family", "two-star", "-r", "4", "-n", "4", "--out", str(out_dir)])
    assert code == 1
    assert out == ""
    assert err == "error: disk full\n"
    assert not (out_dir / "certificate.json").exists()
    assert sorted(p.name for p in out_dir.iterdir()) == ["communities.txt", "edges.txt"]
    # the earlier files are untouched, not half written
    assert len((out_dir / "edges.txt").read_text().splitlines()) == 3 * 3 + 6

    real_replace = fileio.os.replace
    monkeypatch.undo()

    def failing_replace(src, dst):
        if str(dst).endswith("communities.txt"):
            raise OSError("rename failed")
        real_replace(src, dst)

    monkeypatch.setattr(fileio.os, "replace", failing_replace)
    code, _, err = run(capsys, argv)
    assert code == 1
    assert err == "error: rename failed\n"
    assert not (out_dir / "certificate.json").exists()
    assert sorted(p.name for p in out_dir.iterdir()) == ["communities.txt", "edges.txt"]


def test_generate_stream_failing_partway_leaves_the_old_files(capsys, tmp_path, monkeypatch):
    out_dir = tmp_path / "out"
    assert run(capsys, ["generate", "--family", "two-star", "-r", "3", "-n", "3", "--out", str(out_dir)])[0] == 0
    old_edges = (out_dir / "edges.txt").read_bytes()

    def failing_format(g):
        yield "0 1\n"
        raise OSError("disk full")

    # the temp file already holds a block when the formatter fails
    monkeypatch.setattr(fileio, "format_edge_list", failing_format)
    code, out, err = run(capsys, ["generate", "--family", "two-star", "-r", "4", "-n", "4", "--out", str(out_dir)])
    assert (code, out, err) == (1, "", "error: disk full\n")
    assert sorted(p.name for p in out_dir.iterdir()) == ["communities.txt", "edges.txt"]
    assert (out_dir / "edges.txt").read_bytes() == old_edges


def test_analyze_localize_refuses_to_add_more_than_the_edge_limit(capsys, tmp_path, monkeypatch):
    def never(self):
        raise AssertionError("localized an oversized graph")

    # a1..a3 miss two local pairs; the sample is locally complete with 18 local edges
    (tmp_path / "e.txt").write_text("a1 a3\na1 b1\nb1 b2\n")
    (tmp_path / "c.txt").write_text("a1 A\na2 A\na3 A\nb1 B\nb2 B\n")
    monkeypatch.setattr(graph, "MAX_EDGES", 1)
    with monkeypatch.context() as patch:
        patch.setattr(graph.CommunityGraph, "community_members", property(never))
        argv = ["analyze", "--edges", str(tmp_path / "e.txt"), "--communities", str(tmp_path / "c.txt"), "--localize"]
        assert run(capsys, argv) == (1, "", "error: localizing adds 2 edges, more than the limit of 1\n")
    code, out, _ = run(capsys, ["analyze", *SAMPLE, "--localize"])
    assert code == 0
    assert out == run(capsys, ["analyze", *SAMPLE])[1]


def test_analyze_generate_and_exhaustive_certify_list_no_bridges(capsys, tmp_path, monkeypatch):
    def never(g):
        raise AssertionError("listed the bridges of a graph")

    # the census counts bridges and centrals; only an explicit request lists them
    listers = [graph.bridges, graph.central_nodes]
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "kintegration":
            for attr, value in vars(module).copy().items():
                if any(value is lister for lister in listers):
                    monkeypatch.setattr(module, attr, never)
    out = str(tmp_path / "out")
    assert run(capsys, ["analyze", *SAMPLE, "--k", "1,2,3"])[0] == 0
    assert run(capsys, ["generate", "--family", "complete-join", "-r", "3", "-n", "4", "--out", out])[0] == 0
    assert run(capsys, ["analyze", "--edges", out + "/edges.txt", "--communities", out + "/communities.txt"])[0] == 0
    assert run(capsys, ["certify", "-r", "3", "-n", "3", "--k", "2,3"])[0] == 0


@pytest.mark.parametrize("r,n,mode", [(3, 3, "exhaustive"), (3, 3, "randomized"), (4, 4, "randomized")])
def test_certify_builds_nothing_but_the_search(capsys, monkeypatch, r, n, mode):
    argv = ["certify", "-r", str(r), "-n", str(n), "--k", ",".join(map(str, range(1, r + 3))), "--mode", mode]
    expected = run(capsys, argv)

    def never(*args, **kwargs):
        raise AssertionError("certify built a network or ran the distance kernel")

    # QuotientGraph.diameter looks build_graph up in constructions
    monkeypatch.setattr(constructions, "_assemble", never)
    monkeypatch.setattr(constructions, "build_graph", never)
    monkeypatch.setattr(metrics, "_ball_levels", never)
    assert run(capsys, argv) == expected


def test_generate_dot_builds_no_edge_tuple(capsys, tmp_path, monkeypatch):
    def never(g):
        raise AssertionError("built the edge tuple of a graph")

    # the DOT file is written from the adjacency, node block by node block
    monkeypatch.setattr(graph.CommunityGraph, "edges", property(never))
    out = tmp_path / "out"
    argv = ["generate", "--family", "extended-star", "-r", "4", "-n", "3", "--quotient", "path", "--out", str(out), "--dot"]
    assert run(capsys, argv)[0] == 0
    dot = (out / "graph.dot").read_text()
    assert dot.count(" -- ") == 4 * 3 + 3 and dot.count("penwidth=2.0") == 3


def test_generate_rejects_bad_quotient(capsys, tmp_path):
    assert main(["generate", "--family", "extended-star", "-r", "5", "-n", "5", "--quotient", "figure1:4", "--out", str(tmp_path)]) == 1
    capsys.readouterr()
    assert main(["generate", "--family", "extended-star", "-r", "3", "-n", "3", "--quotient", "nope", "--out", str(tmp_path)]) == 1
    capsys.readouterr()
    assert main(["generate", "--family", "extended-star", "-r", "3", "-n", "3", "--quotient", "figure1:x", "--out", str(tmp_path)]) == 1
    capsys.readouterr()
    argv = ["generate", "--family", "extended-star", "-r", "8", "-n", "2", "--quotient", "figure1:4:5", "--out", str(tmp_path)]
    assert run(capsys, argv) == (1, "", "error: figure1 level must be an integer, got '4:5'\n")


def test_thresholds_kmax_is_bounded(capsys):
    code, out, err = run(capsys, ["thresholds", "-r", "2", "-n", "2", "--kmax", str(MAX_KMAX + 1)])
    assert code == 1
    assert out == ""
    assert err == f"error: kmax must be <= {MAX_KMAX}, got {MAX_KMAX + 1}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", *SAMPLE, "--k", "0"],
        ["generate", "--family", "two-star", "-r", "2", "-n", "0", "--out", "{tmp}"],
        ["certify", "-r", "2", "-n", "2", "--budget", "0"],
        ["certify", "-r", "2", "-n", "2", "--mode", "randomized", "--trials", "0"],
        ["thresholds", "-r", "2", "-n", "2", "--kmax", "0"],
    ],
)
def test_bad_integer_parameter_exits_1_with_one_error_line(capsys, tmp_path, argv):
    code, out, err = run(capsys, [arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]


def test_oversized_requests_are_refused_before_building(capsys, tmp_path, monkeypatch):
    def never(*args):
        raise AssertionError("the oversized instance was built")

    # the per-edge builders fail loudly, so a missing guard cannot allocate the instance
    monkeypatch.setattr(cli.constructions, "_assemble", never)
    monkeypatch.setattr(cli.oracle, "_Instance", never)
    argv = ["generate", "--family", "complete-join", "-r", "8", "-n", "1000", "--out", str(tmp_path)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == "error: r=8, n=1000 needs 31996000 edges, more than the limit of 10000000\n"
    assert list(tmp_path.iterdir()) == []
    for mode in ("exhaustive", "randomized"):
        code, out, err = run(capsys, ["certify", "-r", "8", "-n", "1000", "--k", "2", "--mode", mode])
        assert (code, out) == (1, "")
        assert err == "error: 8 communities of 8000 nodes give 28000000 cross pairs, more than the limit of 100000\n"


def test_certify_refuses_from_r_and_n_before_building_the_sizes(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("the community sizes were built")

    message = "3 communities of 9 nodes give 27 cross pairs, more than the limit of 26"
    monkeypatch.setattr(cli.oracle, "MAX_CROSS_PAIRS", 26)
    # the closed form says what the check on the built sizes says
    with pytest.raises(InvalidParamsError, match=re.escape(message)):
        cli.oracle.min_bridges_for_sizes((3, 3, 3), 2)
    monkeypatch.setattr(cli.oracle, "min_bridges_for_sizes", never)
    monkeypatch.setattr(cli.oracle, "_search", never)
    monkeypatch.setattr(cli.oracle, "_Instance", never)
    for mode in ("exhaustive", "randomized"):
        assert run(capsys, ["certify", "-r", "3", "-n", "3", "--k", "2", "--mode", mode]) == (1, "", f"error: {message}\n")
        # r = 10**8 sizes would take ~800 MB; from r and n alone the refusal is immediate
        code, out, err = run(capsys, ["certify", "-r", "100000000", "-n", "100000000", "--k", "1", "--mode", mode])
        assert (code, out, err.count("\n")) == (1, "", 1)
        assert err.startswith("error: 100000000 communities of 10000000000000000 nodes give ")


@pytest.mark.parametrize(
    "module,limit,size,argv",
    [
        # a1..a3 miss two local pairs
        pytest.param(graph, "MAX_EDGES", 2, ["analyze", "--edges", "{tmp}/e.txt", "--communities", "{tmp}/c.txt", "--localize"],
                     id="localize"),
        # 2 local edges and 2 bridges
        pytest.param(constructions, "MAX_EDGES", 4, ["generate", "--family", "two-star", "-r", "2", "-n", "2", "--out", "{tmp}"],
                     id="generate"),
        pytest.param(cli.oracle, "MAX_CROSS_PAIRS", 27, ["certify", "-r", "3", "-n", "3", "--k", "2"], id="certify"),
        # two communities need exactly 4 times their cross pairs in mask bits, so both caps sit at their limit
        pytest.param(cli.oracle, "MAX_CROSS_PAIRS", 4, ["certify", "-r", "2", "-n", "2", "--k", "2"], id="certify-r2"),
    ],
)
def test_each_size_cap_admits_a_request_exactly_at_its_limit(capsys, tmp_path, monkeypatch, module, limit, size, argv):
    (tmp_path / "e.txt").write_text("a1 a3\na1 b1\nb1 b2\n")
    (tmp_path / "c.txt").write_text("a1 A\na2 A\na3 A\nb1 B\nb2 B\n")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    monkeypatch.setattr(module, limit, size)
    assert run(capsys, argv)[0] == 0
    monkeypatch.setattr(module, limit, size - 1)
    code, out, err = run(capsys, argv)
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert err.startswith("error: ") and err.endswith(f" more than the limit of {size - 1}\n")


def test_unknown_family_and_mode_are_refused_by_the_functions_too(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a search ran")

    # argparse's choices keep the CLI from these; the functions refuse them themselves
    with pytest.raises(InvalidParamsError, match=re.escape("unknown family 'wheel'")):
        cli.build_construction("wheel", 3, 2)
    for name in ("check_threshold_row", "min_bridges_randomized", "min_bridges_for_sizes", "_search"):
        monkeypatch.setattr(cli.oracle, name, never)
    with pytest.raises(InvalidParamsError, match=re.escape("unknown mode 'bogus'")):
        cli.cmd_certify(2, 2, (2,), mode="bogus")


def test_star_path_and_cycle_quotients_over_the_class_limit_are_refused_before_building(capsys, tmp_path, monkeypatch):
    def never(self, *args):
        raise AssertionError("the quotient was built")

    # a star, path or cycle on five vertices has five twin classes
    monkeypatch.setattr(metrics, "MAX_CLASSES", 4)
    monkeypatch.setattr(QuotientGraph, "__init__", never)
    for quotient in ("star", "path", "cycle"):
        argv = ["generate", "--family", "extended-star", "--quotient", quotient, "-r", "5", "-n", "1", "--out", str(tmp_path)]
        assert run(capsys, argv) == (1, "", "error: the graph has 5 twin classes, more than the limit of 4\n")
    assert list(tmp_path.iterdir()) == []


def test_graphs_over_the_class_limit_are_refused_before_the_kernel(capsys, tmp_path, monkeypatch):
    def never(adjacency):
        raise AssertionError("the distance kernel ran")

    # two-star r=4, n=2 has 5 twin classes: the hub, its community mate, and each other community
    monkeypatch.setattr(metrics, "MAX_CLASSES", 4)
    monkeypatch.setattr(metrics, "_ball_levels", never)
    out = tmp_path / "out"
    code, stdout, err = run(capsys, ["generate", "--family", "two-star", "-r", "4", "-n", "2", "--out", str(out)])
    assert (code, stdout) == (1, "")
    assert err == "error: the graph has 5 twin classes, more than the limit of 4\n"
    assert not (out / "certificate.json").exists()
    # the sample's 12 nodes fall into 7 classes
    assert run(capsys, ["analyze", *SAMPLE]) == (1, "", "error: the graph has 7 twin classes, more than the limit of 4\n")


def test_complete_quotients_over_the_edge_limit_are_refused_before_building(capsys, tmp_path, monkeypatch):
    def never(self, *args):
        raise AssertionError("the quotient was built")

    monkeypatch.setattr(QuotientGraph, "__init__", never)
    argv = ["generate", "--family", "extended-star", "-r", "4473", "-n", "1", "--out", str(tmp_path)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == "error: a complete quotient on r=4473 has 10001628 edges, more than the limit of 10000000\n"
    assert list(tmp_path.iterdir()) == []


def test_extended_star_checks_the_size_before_the_quotient_diameter(capsys, tmp_path, monkeypatch):
    def never(g):
        raise AssertionError("the quotient diameter was measured")

    monkeypatch.setattr(metrics, "integration_level", never)
    argv = ["generate", "--family", "extended-star", "-r", "50", "-n", "1000", "--quotient", "star", "--out", str(tmp_path)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == "error: r=50, n=1000 needs 24975049 edges, more than the limit of 10000000\n"


def test_generate_dot_writes_the_joined_blocks(capsys, tmp_path):
    out = tmp_path / "out"
    argv = ["generate", "--family", "extended-star", "-r", "3", "-n", "3", "--quotient", "path", "--out", str(out), "--dot"]
    assert run(capsys, argv)[0] == 0
    g = fileio.load_graph(out / "edges.txt", out / "communities.txt")
    assert (out / "graph.dot").read_bytes() == "".join(fileio.dot_blocks(g)).encode()


def test_thresholds_model_violation_exits_1(capsys):
    code, _, err = run(capsys, ["thresholds", "-r", "5", "-n", "3"])
    assert code == 1
    assert "n >= r" in err


def test_analysis_config_validation(capsys):
    # an empty level list, a level below 1 and an unknown format are refused at parsing
    for extra, message in (
        (["--k", ""], "expected comma-separated integers"),
        (["--k", "0"], "integration levels must be >= 1"),
        (["--format", "yaml"], "invalid choice: 'yaml'"),
    ):
        code, out, err = run(capsys, ["analyze", *SAMPLE, *extra])
        assert code == 1
        assert out == ""
        assert message in err


def test_cmd_analyze_direct(sample_graph, data_dir):
    payload = cmd_analyze(data_dir / "sample_edges.txt", data_dir / "sample_communities.txt", (5,))
    assert payload["per_k"][0]["integrated"] is True
    assert payload["graph"]["node_count"] == 12


def test_analyze_reads_each_threshold_row_and_the_model_shape_once(capsys, monkeypatch):
    calls = {"threshold_row": 0, "model_shape": 0}
    for name in calls:
        real = getattr(cli.thresholds, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(cli.thresholds, name, counted)
    code, out, _ = run(capsys, ["analyze", *SAMPLE, "--k", "1,2,3,4"])
    assert code == 0
    assert len(json.loads(out)["thresholds"]["rows"]) == 4
    assert calls == {"threshold_row": 4, "model_shape": 1}


def test_log_level_env_is_tolerated(capsys, monkeypatch):
    monkeypatch.setenv("KINTEGRATION_LOG_LEVEL", "not-a-level")
    assert main(["thresholds", "-r", "2", "-n", "2", "--format", "text"]) == 0
    capsys.readouterr()


def test_log_level_env_turns_on_the_info_lines_on_stderr_only():
    # a fresh process: in-process, pytest's own log handlers make basicConfig a no-op
    argv = [sys.executable, "-m", "kintegration", "analyze", *SAMPLE]
    env = {name: value for name, value in os.environ.items() if name != "KINTEGRATION_LOG_LEVEL"}
    quiet = subprocess.run(argv, capture_output=True, text=True, env=env)
    loud = subprocess.run(argv, capture_output=True, text=True, env={**env, "KINTEGRATION_LOG_LEVEL": "INFO"})
    assert (quiet.returncode, quiet.stderr) == (0, "")
    assert (loud.returncode, loud.stdout) == (0, quiet.stdout)
    assert any(line.startswith("INFO kintegration.metrics: distance kernel:") for line in loud.stderr.splitlines())


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kintegration", "thresholds", "-r", "2", "-n", "2", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "1,4,4,true,4"
