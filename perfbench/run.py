"""Seeded end-to-end benchmark of the kintegration CLI, with an optional layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``. Every CLI call runs in a fresh interpreter
(``child.py``), so each call's peak RSS comes from its own rusage. The
harness generates the inputs from the seed, runs ops in a closed loop
(one op after another, one process at a time) for about ``--seconds``
and at least ``MIN_OPS`` ops, and checks every output.

With ``--trace 0`` the last line reports the end-to-end metrics:
``setup_s`` (a fresh interpreter importing the package and building the
CLI parser; median over the run of samples that each average
``SETUP_BATCH`` launches), ``op_s`` (wall time of one op, summed over its
calls; the mean over the run's untraced ops, i.e. the inverse of
throughput) and ``op_peak_rss_mb`` (median over ops of the largest
call's peak RSS). The two times are rescaled to a fixed host speed: the
host's speed drifts by a third over minutes, so ``reference.py``, a
fixed stdlib task, runs in fresh interpreters between ops, and each time
is multiplied by ``REFERENCE_NOMINAL_S`` over its mean duration in the
run. The raw figures are printed too. With ``--trace 1`` ops alternate
between untraced and traced, and the last line reports the per-layer
metrics of the traced ones; the traced minus the untraced op time is
the tracing overhead. Spans are written to ``.perfbench_out/`` in the
checkout. The lines before the last one print the per-call-group
figures (``analyze_s``, ``generate_s``, ``certify_s``, ...) by name, the
failed ratio and a record of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Workload  # noqa: E402

# set-up samples before the first op (after a launch that only warms caches) and after
# each op; one sample is the mean of SETUP_BATCH launches
SETUP_FIRST = 4
SETUP_PER_OP = 1
SETUP_BATCH = 4
# launches of reference.py before the first op and after each op
REFERENCE_FIRST = 4
REFERENCE_PER_OP = 3
# the speed the reported times are rescaled to: one reference.py pass in this many seconds
REFERENCE_NOMINAL_S = 0.1
MIN_OPS = 3
CALL_TIMEOUT_S = 150
# timed inside the fresh interpreter: the interpreter's own start-up and
# site hooks belong to the machine, not to the package
SETUP_CODE = (
    "import time; t = time.perf_counter(); from kintegration import cli; cli.build_parser(); "
    "print(time.perf_counter() - t)"
)


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics declared in BENCHMARK.json.

    Every workload reports every declared metric; a per-layer count of a
    layer that does not run on a workload is 0.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


# the layer figures printed by a traced run, where their layer runs
LAYER_REPORT = (
    "cli.cmd_analyze.self_s",
    "cli.render_analyze.s",
    "cli.cmd_generate.self_s",
    "cli.cmd_certify.self_s",
    "cli.output_bytes",
    "fileio.parse_edge_list.s",
    "fileio.parse_community_map.s",
    "fileio.write_graph.s",
    "fileio.bytes_read",
    "fileio.bytes_written",
    "fileio.read_mb_per_s",
    "graph.build_graph.s",
    "graph.bridges.s",
    "graph.bridges.calls",
    "graph.central_nodes.calls",
    "graph.local_edges.s",
    "graph.local_edges.calls",
    "graph.is_locally_complete.s",
    "graph.census.edges_scanned",
    "metrics.build_report.self_s",
    "metrics.build_report.rss_growth_mb",
    "metrics.quotient_classes",
    "thresholds.segregation_verdict.s",
    "thresholds.segregation_verdict.calls",
    "constructions.build.s",
    "constructions.edge_count",
    "oracle.check_threshold_row.s",
    "oracle.sets_examined",
    "oracle.sets_per_s",
    "oracle.exhausted_size",
    "oracle.min_bridges_randomized.s",
    "trace.op_s",
    "trace.overhead_pct",
)


def unit_of(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes") or ".bytes_" in name:
        return "B"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


@dataclass
class CallResult:
    label: str
    group: str
    elapsed_s: float
    peak_rss_mb: float
    output_bytes: int
    digest: str
    error: str | None = None
    figures: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)


@dataclass
class Op:
    traced: bool
    calls: list[CallResult]

    @property
    def elapsed_s(self) -> float:
        return sum(c.elapsed_s for c in self.calls)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup(env: dict, samples: int, batch: int = SETUP_BATCH) -> list[float]:
    """Import-and-parser time of fresh interpreters: ``samples`` means of ``batch`` launches each."""
    command = [sys.executable, "-c", SETUP_CODE]

    def launch() -> float:
        return float(subprocess.run(command, env=env, check=True, capture_output=True, text=True, timeout=60).stdout)

    return [statistics.fmean(launch() for _ in range(batch)) for _ in range(samples)]


def measure_reference(env: dict, launches: int) -> list[float]:
    """Wall time of ``launches`` fresh interpreters each running the fixed reference task."""
    command = [sys.executable, str(HERE / "reference.py")]
    return [
        float(subprocess.run(command, env=env, check=True, capture_output=True, text=True, timeout=60).stdout)
        for _ in range(launches)
    ]


def _digest(stdout: str, out_dir: Path) -> str:
    """Hash of the canonical output: stdout with the per-call directory masked, then any files written."""
    h = hashlib.sha256(stdout.replace(str(out_dir), "{out}").encode("utf-8"))
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_call(call, call_dir: Path, op_id: str, traced: bool, env: dict) -> CallResult:
    """One CLI call in a fresh child; its peak RSS comes from that child's rusage."""
    call_dir.mkdir(parents=True)
    out_dir = call_dir / "out"
    result_path = call_dir / "result.json"
    argv = [arg.replace("{out}", str(out_dir)) for arg in call.argv]
    command = [sys.executable, str(HERE / "child.py"), str(result_path), op_id, "1" if traced else "0", "--", *argv]
    stderr_path = call_dir / "stderr.txt"
    started = time.perf_counter()
    with open(stderr_path, "wb") as stderr:
        proc = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    # a call that left no record is timed from the outside, start-up included
    wall_s = time.perf_counter() - started
    result = CallResult(call.label, call.group, wall_s, usage.ru_maxrss / 1024, 0, "")
    try:
        if proc.returncode != 0:
            tail = stderr_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
            result.error = f"child exited {proc.returncode}: {' '.join(tail)}"
            return result
        record = json.loads(result_path.read_text(encoding="utf-8"))
        result.elapsed_s = record["elapsed_s"]
        result.output_bytes = len(record["stdout"].encode("utf-8"))
        result.spans = record["spans"]
        result.counters = record["counters"]
        result.digest = _digest(record["stdout"], out_dir)
        if record["crash"]:
            result.error = "crash: " + record["crash"].strip().splitlines()[-1]
            return result
        try:
            result.figures = call.check(record["exit"], record["stdout"], out_dir)
        except CheckFailed as exc:
            result.error = f"wrong output: {exc}"
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            result.error = f"malformed output: {exc!r}"
        return result
    finally:
        shutil.rmtree(call_dir)


def run_ops(
    workload: Workload, seconds: float, trace: bool, env: dict, work_dir: Path, min_ops: int
) -> tuple[list[Op], list[float], list[float]]:
    """Closed loop: ops back to back for ``seconds``, and at least ``min_ops``.

    Returns the ops, the set-up samples and the reference samples.

    An op starts only while more than half a median op remains, so a run
    ends near ``seconds`` on average instead of always overrunning. A
    shared host's speed can swing by up to 2x from one tenth of a second
    to the next, so set-up and the reference task are sampled between ops
    across the whole run, and each set-up sample averages a few launches.
    """
    ops: list[Op] = []
    op_walls: list[float] = []
    start = time.perf_counter()
    measure_setup(env, 1, batch=1)
    setup = measure_setup(env, SETUP_FIRST)
    gauge = measure_reference(env, REFERENCE_FIRST)
    while len(ops) < min_ops or time.perf_counter() + statistics.median(op_walls) / 2 < start + seconds:
        i = len(ops)
        traced = trace and i % 2 == 1
        op_start = time.perf_counter()
        calls = [
            run_call(call, work_dir / f"op{i}-{j}", f"{i}:{call.label}", traced, env)
            for j, call in enumerate(workload.calls)
        ]
        op_walls.append(time.perf_counter() - op_start)
        ops.append(Op(traced, calls))
        setup += measure_setup(env, SETUP_PER_OP)
        gauge += measure_reference(env, REFERENCE_PER_OP)
    first_digest: dict[str, str] = {}
    for op in ops:
        for call in op.calls:
            if call.error is None and call.digest != first_digest.setdefault(call.label, call.digest):
                call.error = "output differs from the first op's output for the same input"
    return ops, setup, gauge


def percentile_summary(values: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median of n={n}"
    if n > 10:
        p = math.floor(100 * (n - 10) / n)
        text += f", p{p}={ordered[math.ceil(p * n / 100) - 1]:.6g}"
    return text


def group_figures(ops: list[Op]) -> dict[str, list[float]]:
    """Per op: ``<group>_s`` summed over the group's calls, ``<group>_peak_rss_mb`` the max."""
    figures: dict[str, list[float]] = {}
    for op in ops:
        groups: dict[str, list[CallResult]] = {}
        for call in op.calls:
            groups.setdefault(call.group, []).append(call)
        for group, calls in groups.items():
            figures.setdefault(f"{group}_s", []).append(sum(c.elapsed_s for c in calls))
            figures.setdefault(f"{group}_peak_rss_mb", []).append(max(c.peak_rss_mb for c in calls))
        for call in op.calls:
            for name, value in call.figures.items():
                figures.setdefault(name, []).append(value)
    return figures


def layer_values(op: Op, descriptors: dict) -> dict[str, float]:
    """Per-layer figures of one traced op, from its spans, counters and output."""
    spans = [span for call in op.calls for span in call.spans]
    values = tracing.aggregate(spans)
    for call in op.calls:
        for name, count in call.counters.items():
            values[name] = values.get(name, 0) + count
        for name, value in call.figures.items():
            values[name] = value
    values["cli.output_bytes"] = sum(c.output_bytes for c in op.calls)
    values.update(descriptors)
    read_s = sum(values.get(k, 0.0) for k in ("fileio.load_graph.self_s", "fileio.parse_edge_list.s", "fileio.parse_community_map.s"))
    if read_s > 0:
        values["fileio.read_mb_per_s"] = values.get("fileio.bytes_read", 0) / 1e6 / read_s
    if values.get("oracle.check_threshold_row.s", 0) > 0:
        values["oracle.sets_per_s"] = values.get("oracle.sets_examined", 0) / values["oracle.check_threshold_row.s"]
    if "certify_ruled_out" in values:
        values["oracle.exhausted_size"] = values.pop("certify_ruled_out")
    values["trace.op_s"] = op.elapsed_s
    return values


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload_name: str, seed: int, seconds: float, trace: bool, out_root: Path, **sizes) -> dict:
    """Set up, measure and check one workload; print its report; return its result object."""
    env = child_env()
    work_dir = out_root / f"work-{os.getpid()}-{workload_name}"
    work_dir.mkdir(parents=True)
    try:
        workload = WORKLOADS[workload_name](seed, work_dir, **sizes)
        ops, setup, gauge = run_ops(workload, seconds, trace, env, work_dir, min_ops=MIN_OPS + 1 if trace else MIN_OPS)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    calls = [call for op in ops for call in op.calls]
    failures = [f"op {i} {call.label}: {call.error}" for i, op in enumerate(ops) for call in op.calls if call.error]
    untraced = [op for op in ops if not op.traced]
    print(f"workload {workload_name} seed {seed} seconds {seconds} trace {int(trace)}: {len(ops)} ops")
    figures = group_figures(untraced)
    figures["setup_s"] = setup
    figures["op_s"] = [op.elapsed_s for op in untraced]
    figures["op_peak_rss_mb"] = [max(c.peak_rss_mb for c in op.calls) for op in untraced]
    for name, values in sorted(figures.items()):
        summary = percentile_summary(values) if unit_of(name) == "s" else f"median of n={len(values)}"
        if name == "op_s":
            summary += f", mean={statistics.fmean(values):.6g} (the reported value)"
        print(f"  {name:<38} {statistics.median(values):>14.6f} {unit_of(name):<5} {summary}")
    failed_ratio = len(failures) / len(calls)
    print(f"  {'failed_ratio':<38} {failed_ratio:>14.6f} {'':<5} {len(failures)} of {len(calls)} calls")
    for line in failures[:10]:
        print(f"  FAILED {line}")

    # op_s is the mean: the host's speed drifts, a run holds only a few long ops, and
    # their median jumps with the spell the middle op fell in; the mean does not
    reduce = {"op_s": statistics.fmean}
    scale = REFERENCE_NOMINAL_S / statistics.fmean(gauge)
    print(f"  {'reference_s':<38} {statistics.fmean(gauge):>14.6f} {'s':<5} mean of n={len(gauge)}, scale={scale:.6g}")
    metrics = {
        name: metric(reduce.get(name, statistics.median)(figures[name]) * (scale if unit == "s" else 1), unit)
        for name, unit in metric_units("end_to_end").items()
    }
    if trace:
        traced = [op for op in ops if op.traced]
        per_op = [layer_values(op, workload.descriptors) for op in traced]

        def median_of(name: str) -> float:
            return statistics.median(values.get(name, 0) for values in per_op)

        untraced_s = statistics.median(op.elapsed_s for op in untraced)
        overhead_pct = 100 * (median_of("trace.op_s") - untraced_s) / untraced_s
        for values in per_op:
            values["trace.overhead_pct"] = overhead_pct
        print(f"  per layer, median of {len(traced)} traced ops:")
        for name in LAYER_REPORT:
            if any(name in values for values in per_op):
                print(f"  {name:<38} {median_of(name):>14.6f} {unit_of(name)}")
        metrics = {name: metric(median_of(name), unit) for name, unit in metric_units("per_layer").items()}
        trace_path = out_root / f"trace-{workload_name}-seed{seed}.json"
        trace_path.write_text(
            json.dumps({"workload": workload_name, "seed": seed, "spans": [s for op in traced for c in op.calls for s in c.spans]}),
            encoding="utf-8",
        )
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
    record = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "src_lines": src_line_count(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "ops": len(ops),
        "digests": {call.label: call.digest for call in ops[0].calls},
    }
    print("  record " + json.dumps(record, sort_keys=True))
    return {"correct": not failures, "attempted": len(calls), "failed": len(failures), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kintegration" / "__init__.py").is_file():
        print(f"error: no kintegration sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_root = ROOT / ".perfbench_out"
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), out_root) for name in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
