"""Spans and counters around the calls into each kintegration module.

The tracer wraps the public functions of each module where callers look
them up: every ``kintegration.*`` module attribute that holds the
original function is replaced, so ``graph.build_graph`` and the
``build_graph`` name that ``fileio`` imported are both traced, and calls
a module makes to its own functions through its globals are seen too.
Nothing under ``src/`` changes.

A span is ``(span_id, name, start, end, parent_id, op_id, rss_growth_kb)``.
Spans stay in memory and are written out once, when the traced call
ends. ``aggregate`` turns the spans of one op into per-name totals,
self times (duration minus the child spans) and call counts.
"""

from __future__ import annotations

import functools
import os
import resource
import sys
import time
from collections import Counter, defaultdict

# module -> functions to wrap; the span name is "<module>.<function>"
# except where the value maps a function to a shared span name
TRACED: dict[str, dict[str, str | None]] = {
    "cli": dict.fromkeys(
        (
            "main",
            "cmd_analyze",
            "cmd_generate",
            "cmd_certify",
            "render_analyze",
            "render_generate",
            "render_certify",
            "build_construction",
        )
    ),
    "fileio": dict.fromkeys(("load_graph", "parse_edge_list", "parse_community_map", "write_graph")),
    "graph": dict.fromkeys(
        ("build_graph", "bridges", "central_nodes", "local_edges", "is_locally_complete", "localize_complete")
    ),
    "metrics": dict.fromkeys(("build_report",)),
    "thresholds": dict.fromkeys(("bridge_threshold", "central_threshold", "segregation_verdict")),
    "constructions": dict.fromkeys(("complete_join", "two_star", "extended_star"), "constructions.build"),
    "oracle": dict.fromkeys(("check_threshold_row", "min_bridges_randomized")),
}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _census(counters: Counter, args, result) -> None:
    # bridges() and local_edges() each scan the full edge tuple once
    counters["graph.census.edges_scanned"] += len(args[0].edges)


def _bytes_read(counters: Counter, args, result) -> None:
    counters["fileio.bytes_read"] += os.path.getsize(args[0]) + os.path.getsize(args[1])


def _bytes_written(counters: Counter, args, result) -> None:
    counters["fileio.bytes_written"] += os.path.getsize(args[1]) + os.path.getsize(args[2])


def _construction_edges(counters: Counter, args, result) -> None:
    counters["constructions.edge_count"] += sum(len(nb) for nb in result.graph.adjacency) // 2


def _oracle_row(counters: Counter, args, result) -> None:
    counters["oracle.sets_examined"] += result.verdict.sets_examined


AFTER = {
    "graph.bridges": _census,
    "graph.local_edges": _census,
    "fileio.load_graph": _bytes_read,
    "fileio.write_graph": _bytes_written,
    "constructions.build": _construction_edges,
    "oracle.check_threshold_row": _oracle_row,
}


class Tracer:
    """Records one span per traced call, nested by the call stack."""

    def __init__(self, op_id: str) -> None:
        self.op_id = op_id
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn):
        after = AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            rss0 = _maxrss_kb()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, name, start, end, parent, self.op_id, _maxrss_kb() - rss0))
            if after is not None:
                after(self.counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every kintegration module attribute bound to a traced function."""
        import kintegration  # noqa: F401  (imports every submodule)

        modules = [m for key, m in list(sys.modules.items()) if key == "kintegration" or key.startswith("kintegration.")]
        for module_name, functions in TRACED.items():
            module = sys.modules[f"kintegration.{module_name}"]
            for func, span_name in functions.items():
                original = getattr(module, func)
                wrapper = self.wrap(span_name or f"{module_name}.{func}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)


def aggregate(spans) -> dict[str, float]:
    """Per-name ``.s`` (total), ``.self_s`` and ``.calls``, plus ``<module>.self_s``.

    Self time is a span's duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """
    child_time: dict[tuple, float] = defaultdict(float)
    for span_id, name, start, end, parent, op_id, _ in spans:
        if parent is not None:
            child_time[(op_id, parent)] += end - start
    out: dict[str, float] = defaultdict(float)
    for span_id, name, start, end, parent, op_id, rss_kb in spans:
        self_s = (end - start) - child_time[(op_id, span_id)]
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += self_s
        out[f"{name}.calls"] += 1
        out[f"{name}.rss_growth_mb"] += rss_kb / 1024
        out[f"{name.split('.')[0]}.self_s"] += self_s
    return dict(out)
