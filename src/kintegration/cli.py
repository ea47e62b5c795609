"""Command-line front end.

Four subcommands:

* ``analyze``    measure a network loaded from edge/community files
* ``generate``   write a minimal construction to disk with its certificate
* ``certify``    compare brute-force minima against the threshold table
* ``thresholds`` print the bridge/central requirements for a model instance

Exit codes are a stable contract: 0 success (or agreement), 1 usage or
input errors, 2 search budget exhausted, 3 a certified disagreement
between measured minima and the threshold table.  The only environment
variable honored is KINTEGRATION_LOG_LEVEL.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import constructions, fileio, oracle, thresholds
from . import graph as graphmod
from . import metrics
from .errors import InvalidParamsError, KIntegrationError, ModelViolationError, require_int

SCHEMA_VERSION = 1

_encode_str = json.encoder.encode_basestring_ascii

log = logging.getLogger(__name__)


def canonical_json(payload) -> str:
    """Stable JSON form (sorted keys, no whitespace) for byte comparisons."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def certificate_payload(g: graphmod.CommunityGraph, k_star: int | None) -> dict:
    """The quantities a construction is certified by; round-trips through analyze."""
    return {
        "b": g.census.bridge_count,
        "c": g.census.central_count,
        "k_star": k_star,
        "node_count": g.node_count,
        "r": g.community_count,
    }


def _verdict_row(g: graphmod.CommunityGraph, verdict: metrics.KVerdict) -> dict:
    row: dict = {"k": verdict.k, "integrated": verdict.integrated, "witness": None}
    if verdict.witness is not None:
        u, v = verdict.witness
        row["witness"] = {
            "source": g.tokens[u],
            "target": g.tokens[v],
            "distance": verdict.witness_distance,
            "reason": "unreachable" if verdict.witness_distance is None else None,
        }
    return row


def _bound_row(bound: thresholds.Bound) -> dict:
    return {"lower": bound.lower, "upper": bound.upper, "exact": bound.exact}


def _threshold_section(g: graphmod.CommunityGraph, shape: tuple[int, int] | None, ks) -> dict | None:
    if shape is None:
        return None
    r, n = shape
    rows = []
    for k in ks:
        row = thresholds.threshold_row(r, n, k)
        reason = row.shortfall(g.census.bridge_count, g.census.central_count)
        rows.append(
            {
                "k": k,
                "bridges_required": _bound_row(row.bridges),
                "centrals_required": row.centrals,
                "provably_segregated": reason is not None,
                "reason": reason,
            }
        )
    section = {"r": r, "n": n, "rows": rows}
    if r == 1:
        section["note"] = "a single community is 1-integrated with no bridges"
    return section


def _data_quality(g: graphmod.CommunityGraph) -> dict:
    isolated = [token for token, nbs in zip(g.tokens, g.adjacency) if not nbs]
    missing_count = graphmod.missing_local_pair_count(g)
    # the pair scan only runs to name witnesses when the census says some are missing
    missing = graphmod.is_locally_complete(g, max_witnesses=10)[1] if missing_count else []
    notes = []
    if isolated:
        notes.append(f"{len(isolated)} isolated node(s)")
    if missing_count:
        notes.append(f"communities are missing {missing_count} internal edge(s)")
    return {
        "isolated_node_count": len(isolated),
        "isolated_nodes_sample": isolated[:10],
        "locally_complete": not missing_count,
        "missing_local_pair_count": missing_count,
        "missing_local_pairs_sample": [[g.tokens[a], g.tokens[b]] for a, b in missing],
        "notes": notes,
    }


def cmd_analyze(edges_path, communities_path, ks, localize: bool = False, strict_model: bool = False) -> dict:
    g = fileio.load_graph(edges_path, communities_path)
    if localize:
        g = graphmod.localize_complete(g)
    try:
        shape = thresholds.model_shape(g)
    except ModelViolationError:
        if strict_model:
            raise
        shape = None
    report = metrics.build_report(g, ks)
    quality = _data_quality(g)
    if shape is None:
        quality["notes"].append("threshold table omitted: communities do not share one size n >= r")
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze",
        "graph": {
            "node_count": g.node_count,
            "community_count": g.community_count,
            "edge_count": g.edge_count,
            "local_edge_count": g.census.local_edge_count,
            "bridge_count": g.census.bridge_count,
            "central_node_count": g.census.central_count,
            "nodes": list(g.tokens),
            "communities": [
                {"community": g.community_tokens[c], "size": size}
                for c, size in enumerate(g.community_sizes)
            ],
        },
        "k_star": report.k_star,
        "k_star_reason": None if report.k_star is not None else "graph is disconnected",
        "per_k": [_verdict_row(g, v) for v in report.per_k],
        "reach_profile": [
            {"k": k, "reached": list(counts)}
            for k, counts in sorted(report.reach_profile.items())
        ],
        "thresholds": _threshold_section(g, shape, ks),
        "data_quality": quality,
        "certificate": certificate_payload(g, report.k_star),
    }


def _parse_quotient(spec: str, r: int) -> constructions.QuotientGraph:
    if spec == "complete":
        return constructions.complete_quotient(r)
    if spec == "star":
        return constructions.star_quotient(r)
    if spec == "path":
        return constructions.path_quotient(r)
    if spec == "cycle":
        return constructions.cycle_quotient(r)
    if spec.startswith("figure1:"):
        tail = spec.split(":", 1)[1]
        try:
            level = int(tail)
        except ValueError:
            raise InvalidParamsError(f"figure1 level must be an integer, got {tail!r}") from None
        return constructions.figure1_quotient(level, r)
    raise InvalidParamsError(f"unknown quotient {spec!r}")


def build_construction(family: str, r: int, n: int, quotient_spec: str = "complete") -> constructions.Construction:
    if family == "complete-join":
        return constructions.complete_join(r, n)
    if family == "two-star":
        return constructions.two_star(r, n)
    if family == "extended-star":
        return constructions.extended_star(r, n, _parse_quotient(quotient_spec, r))
    raise InvalidParamsError(f"unknown family {family!r}")


def cmd_generate(
    family: str,
    r: int,
    n: int,
    quotient_spec: str = "complete",
    out_dir: str | os.PathLike = ".",
    dot: bool = False,
) -> dict:
    built = build_construction(family, r, n, quotient_spec)
    g = built.graph
    cert = certificate_payload(g, metrics.integration_level(g))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # every file is replaced atomically and the certificate goes last, so if
    # this process fails or is killed, a certificate on disk describes the
    # edge list beside it (nothing is fsynced: a power loss can still break this)
    (out / "certificate.json").unlink(missing_ok=True)
    fileio.write_graph(g, out / "edges.txt", out / "communities.txt")
    if dot:
        fileio.write_text_atomic(out / "graph.dot", fileio.dot_blocks(g))
    fileio.write_text_atomic(out / "certificate.json", [canonical_json(cert) + "\n"])
    files = ["edges.txt", "communities.txt", "certificate.json"]
    if dot:
        files.append("graph.dot")
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "generate",
        "family": built.family,
        "r": r,
        "n": n,
        "quotient": quotient_spec if family == "extended-star" else None,
        "claimed": {"b": built.claimed_b, "c": built.claimed_c, "k": built.claimed_k},
        "measured": cert,
        "out_dir": str(out),
        "files": files,
    }


def cmd_certify(
    r: int,
    n: int,
    ks,
    mode: str = "exhaustive",
    budget: int = oracle.DEFAULT_BUDGET,
    seed: int = 0,
    trials: int = oracle.DEFAULT_TRIALS,
) -> tuple[dict, int]:
    """Returns (payload, exit code): 0 agree, 2 budget exhausted, 3 disagreement."""
    if mode not in {"exhaustive", "randomized"}:
        raise InvalidParamsError(f"unknown mode {mode!r}")
    # both modes echo all three, so both refuse a bad one before any search
    require_int("budget", budget, 1)
    require_int("seed", seed, 0)
    require_int("trials", trials, 1)
    rows = []
    for k in ks:
        # either mode reads the level's row once, and the row refuses a request it does not cover before any search
        if mode == "exhaustive":
            rc = oracle.check_threshold_row(r, n, k, budget=budget)
            table, witness, agrees = rc.row, rc.verdict.witness, rc.agrees
            row = dict(
                min_bridges=rc.verdict.min_bridges,
                certified=rc.verdict.certified,
                sets_examined=rc.verdict.sets_examined,
                exhausted_size=rc.verdict.exhausted_size,
                witness_centrals=None if witness is None else len({node for edge in witness for node in edge}),
            )
        else:
            table = thresholds.threshold_row(r, n, k)
            witness = oracle.min_bridges_randomized(r, n, k, trials=trials, seed=seed)
            agrees = oracle.fits_row(table, witness, exact=False)
            row = {"upper_bound": len(witness)}
        row.update(k=k, bound=_bound_row(table.bridges), centrals_required=table.centrals, agrees=agrees,
                   witness=None if witness is None else [list(e) for e in witness])
        rows.append(row)
    agreements = {row["agrees"] for row in rows}
    code = 3 if False in agreements else 2 if None in agreements else 0
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "certify",
        "r": r,
        "n": n,
        "mode": mode,
        "budget": budget,
        "seed": seed,
        "trials": trials,
        "rows": rows,
        "result": {0: "agree", 2: "exhausted", 3: "disagree"}[code],
    }
    return payload, code


def cmd_thresholds(r: int, n: int, kmax: int) -> dict:
    rows = thresholds.threshold_rows(r, n, kmax)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "thresholds",
        "r": r,
        "n": n,
        "kmax": kmax,
        "rows": [
            {
                "k": row.k,
                "bridges": _bound_row(row.bridges),
                "centrals": row.centrals,
            }
            for row in rows
        ],
    }


def _json_dump(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte; ``pad`` is the newline and indent of ``value``'s line.

    ``indent`` sends ``json`` to its pure-Python encoder, so dicts with str keys and lists are written here, and a
    list of plain ints or of plain strs is one join over C formatters. Any other value is ``json``'s, re-indented.
    """
    inner = pad + "  "
    if type(value) is dict and set(map(type, value)) == {str}:
        items = (f"{_encode_str(key)}: {_json_dump(value[key], inner)}" for key in sorted(value))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if (type(value) is list or type(value) is tuple) and value:
        kinds = set(map(type, value))
        if kinds == {int}:
            items = map(int.__repr__, value)
        elif kinds == {str}:
            items = map(_encode_str, value)
        else:
            items = (_json_dump(item, inner) for item in value)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", pad)


def _csv_dump(header: list[str], rows: list[list]) -> str:
    # imported by their one user, so a JSON or text call never loads them
    import csv
    import io

    sio = io.StringIO()
    writer = csv.writer(sio, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return sio.getvalue().rstrip("\n")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _fmt_requirement(b: dict) -> str:
    return f"{b['lower']} (exact)" if b["exact"] else f"in [{b['lower']}, {b['upper']}]"


def render_analyze(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _json_dump(payload)
    if fmt == "csv":
        rows = []
        for row in payload["per_k"]:
            w = row["witness"] or {}
            rows.append(
                [
                    row["k"],
                    _cell(row["integrated"]),
                    _cell(w.get("source")),
                    _cell(w.get("target")),
                    _cell(w.get("distance")),
                    _cell(w.get("reason")),
                ]
            )
        return _csv_dump(
            ["k", "integrated", "witness_source", "witness_target", "witness_distance", "reason"], rows
        )
    gsec = payload["graph"]
    lines = [
        f"nodes {gsec['node_count']}  communities {gsec['community_count']}  "
        f"edges {gsec['edge_count']} ({gsec['local_edge_count']} local, {gsec['bridge_count']} bridges)",
        f"central nodes {gsec['central_node_count']}",
    ]
    if payload["k_star"] is None:
        lines.append(f"k*: none ({payload['k_star_reason']})")
    else:
        lines.append(f"k*: {payload['k_star']}")
    for row in payload["per_k"]:
        if row["integrated"]:
            lines.append(f"k={row['k']}: integrated")
        else:
            w = row["witness"]
            gap = "unreachable" if w["distance"] is None else f"distance {w['distance']}"
            lines.append(f"k={row['k']}: not integrated ({w['source']} -> {w['target']}, {gap})")
    section = payload["thresholds"]
    if section is None:
        lines.append("thresholds: omitted (communities do not share one size n >= r)")
    else:
        lines.append(f"thresholds for r={section['r']}, n={section['n']}:")
        for row in section["rows"]:
            verdict = (
                "provably segregated: " + row["reason"]
                if row["provably_segregated"]
                else "not determined"
            )
            lines.append(
                f"  k={row['k']}: bridges required {_fmt_requirement(row['bridges_required'])}, "
                f"centrals required {row['centrals_required']} -> {verdict}"
            )
        if "note" in section:
            lines.append(f"  note: {section['note']}")
    quality = payload["data_quality"]
    lines.append("data quality: " + ("; ".join(quality["notes"]) if quality["notes"] else "no issues"))
    return "\n".join(lines)


def render_generate(payload: dict) -> str:
    claimed = payload["claimed"]
    measured = payload["measured"]
    head = f"family {payload['family']} r={payload['r']} n={payload['n']}"
    if payload["quotient"]:
        head += f" quotient={payload['quotient']}"
    lines = [
        head,
        f"claimed  B={claimed['b']} C={claimed['c']} k={claimed['k']}",
        f"measured B={measured['b']} C={measured['c']} k*={measured['k_star']}",
        f"wrote {', '.join(payload['files'])} to {payload['out_dir']}",
        canonical_json(measured),
    ]
    return "\n".join(lines)


def render_certify(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _json_dump(payload)
    if fmt == "csv":
        if payload["mode"] == "exhaustive":
            tail = ["min_bridges", "certified", "sets_examined", "witness_centrals", "agrees"]
        else:
            tail = ["upper_bound", "agrees"]
        rows = [
            [
                row["k"], row["bound"]["lower"], row["bound"]["upper"], _cell(row["bound"]["exact"]),
                row["centrals_required"], *(_cell(row[name]) for name in tail),
            ]
            for row in payload["rows"]
        ]
        return _csv_dump(["k", "bound_lower", "bound_upper", "bound_exact", "centrals_required", *tail], rows)
    lines = [f"r={payload['r']} n={payload['n']} mode={payload['mode']}"]
    for row in payload["rows"]:
        req = _fmt_requirement(row["bound"])
        if payload["mode"] == "exhaustive":
            if row["min_bridges"] is None:
                outcome = f"budget exhausted after {row['sets_examined']} sets (sizes <= {row['exhausted_size']} ruled out)"
            else:
                status = "agrees" if row["agrees"] else "DISAGREES"
                outcome = (
                    f"measured min {row['min_bridges']} with {row['witness_centrals']} centrals "
                    f"({row['sets_examined']} sets) -> {status}"
                )
        else:
            status = "consistent" if row["agrees"] else "DISAGREES"
            outcome = f"feasible with {row['upper_bound']} bridges -> {status}"
        lines.append(f"k={row['k']}: bridges required {req}, centrals required {row['centrals_required']}; {outcome}")
    lines.append(f"result: {payload['result']}")
    return "\n".join(lines)


def render_thresholds(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _json_dump(payload)
    if fmt == "csv":
        rows = [
            [row["k"], row["bridges"]["lower"], row["bridges"]["upper"], _cell(row["bridges"]["exact"]), row["centrals"]]
            for row in payload["rows"]
        ]
        return _csv_dump(["k", "bridges_lower", "bridges_upper", "bridges_exact", "centrals"], rows)
    lines = [f"thresholds for r={payload['r']} communities of n={payload['n']} nodes"]
    for row in payload["rows"]:
        lines.append(
            f"  k={row['k']}: bridges {_fmt_requirement(row['bridges'])}, centrals {row['centrals']}"
        )
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 on usage errors instead of argparse's 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _k_list(text: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    if any(k < 1 for k in ks):
        raise argparse.ArgumentTypeError("integration levels must be >= 1")
    if len(set(ks)) < len(ks):
        raise argparse.ArgumentTypeError(f"integration levels must not repeat, got {text!r}")
    return ks


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kintegration", description="Measure and construct k-integrated community networks.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    pa = sub.add_parser("analyze", help="measure a network from edge/community files")
    pa.add_argument("--edges", required=True, help="edge list file (two tokens per line)")
    pa.add_argument("--communities", required=True, help="node-to-community file")
    pa.add_argument("--k", type=_k_list, default=(1, 2, 3), metavar="LIST", help="comma-separated levels (default 1,2,3)")
    pa.add_argument("--format", choices=["json", "csv", "text"], default="json")
    pa.add_argument("--localize", action="store_true", help="add missing within-community edges before measuring")
    pa.add_argument("--strict-model", action="store_true", help="fail unless all communities share one size n >= r")
    pa.set_defaults(func=_run_analyze)

    pg = sub.add_parser("generate", help="write a minimal construction and its certificate")
    pg.add_argument("--family", required=True, choices=["complete-join", "two-star", "extended-star"])
    pg.add_argument("-r", type=int, required=True, help="number of communities")
    pg.add_argument("-n", type=int, required=True, help="nodes per community")
    pg.add_argument("--quotient", default="complete", help="extended-star layout: complete, star, path, cycle, or figure1:K")
    pg.add_argument("--out", default=".", help="output directory (default: current)")
    pg.add_argument("--dot", action="store_true", help="also write graph.dot")
    pg.set_defaults(func=_run_generate)

    pc = sub.add_parser("certify", help="brute-force minimum bridges and compare with the thresholds")
    pc.add_argument("-r", type=int, required=True, help="number of communities")
    pc.add_argument("-n", type=int, required=True, help="nodes per community")
    pc.add_argument("--k", type=_k_list, default=(1, 2, 3), metavar="LIST", help="comma-separated levels (default 1,2,3)")
    pc.add_argument("--mode", choices=["exhaustive", "randomized"], default="exhaustive")
    pc.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET, help="max candidate sets to examine")
    pc.add_argument("--seed", type=int, default=0, help="randomized mode RNG seed")
    pc.add_argument("--trials", type=int, default=oracle.DEFAULT_TRIALS, help="randomized mode restarts")
    pc.add_argument("--format", choices=["json", "csv", "text"], default="json")
    pc.set_defaults(func=_run_certify)

    pt = sub.add_parser("thresholds", help="print bridge/central requirements for r communities of n nodes")
    pt.add_argument("-r", type=int, required=True, help="number of communities")
    pt.add_argument("-n", type=int, required=True, help="nodes per community")
    pt.add_argument("--kmax", type=int, default=3, help="largest level to tabulate (default 3)")
    pt.add_argument("--format", choices=["json", "csv", "text"], default="json")
    pt.set_defaults(func=_run_thresholds)
    return parser


def _run_analyze(args: argparse.Namespace) -> int:
    payload = cmd_analyze(args.edges, args.communities, args.k, args.localize, args.strict_model)
    print(render_analyze(payload, args.format))
    return 0


def _run_generate(args: argparse.Namespace) -> int:
    payload = cmd_generate(args.family, args.r, args.n, args.quotient, args.out, args.dot)
    print(render_generate(payload))
    return 0


def _run_certify(args: argparse.Namespace) -> int:
    payload, code = cmd_certify(
        args.r, args.n, args.k, mode=args.mode, budget=args.budget, seed=args.seed, trials=args.trials
    )
    print(render_certify(payload, args.format))
    return code


def _run_thresholds(args: argparse.Namespace) -> int:
    print(render_thresholds(cmd_thresholds(args.r, args.n, args.kmax), args.format))
    return 0


def _configure_logging() -> None:
    name = os.environ.get("KINTEGRATION_LOG_LEVEL", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (KIntegrationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
