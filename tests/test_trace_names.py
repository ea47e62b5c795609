"""The benchmark tracer wraps only functions that exist, and its counters read what the CLI returns."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
DATA_DIR = Path(__file__).resolve().parent / "data"

# runs in a child process: installing the tracer rebinds module attributes for good
TRACED_RUN = """
import importlib.util, json, sys
from kintegration import cli
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer("test")
tracer.install()
data, out = sys.argv[2], sys.argv[3]
calls = [
    ["analyze", "--edges", data + "/sample_edges.txt", "--communities", data + "/sample_communities.txt"],
    ["generate", "--family", "two-star", "-r", "2", "-n", "2", "--out", out],
    ["certify", "-r", "2", "-n", "2", "--k", "2"],
]
codes = [cli.main(argv) for argv in calls]
print(json.dumps({"codes": codes, "counters": tracer.counters}))
"""


def test_every_traced_name_is_a_function_of_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module_name}.{func}"
        for module_name, functions in tracing.TRACED.items()
        for func in functions
        if not callable(getattr(importlib.import_module(f"kintegration.{module_name}"), func, None))
    ]
    assert missing == []


def test_traced_cli_calls_feed_every_hook(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(TRACING), str(DATA_DIR), str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    for name in ("oracle.sets_examined", "fileio.bytes_read", "fileio.bytes_written", "constructions.edge_count"):
        assert result["counters"].get(name, 0) > 0, name
