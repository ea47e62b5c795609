"""Run one kintegration CLI invocation in a fresh interpreter and record it.

    python3 perfbench/child.py RESULT_JSON OP_ID TRACE -- CLI_ARGS...

``kintegration`` must be importable (the harness sets PYTHONPATH to the
checkout's ``src``). The wall time covers ``cli.main`` only, from the
parsed arguments to the rendered output; the interpreter start and the
package import are the harness's ``setup_s``. Standard output is
captured in memory and saved with the exit code, the time, and with
TRACE=1 the spans and counters, to RESULT_JSON. The harness reads peak
RSS from the rusage of this process, so one process runs one call.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback


def main(argv: list[str]) -> int:
    result_path, op_id, trace, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: child.py RESULT_JSON OP_ID TRACE -- CLI_ARGS...")
    from kintegration import cli

    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer(op_id)
        tracer.install()
    captured = io.StringIO()
    crash = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(cli_args)
    except Exception:
        code = None
        crash = traceback.format_exc()
    elapsed = time.perf_counter() - start
    record = {
        "exit": code,
        "elapsed_s": elapsed,
        "stdout": captured.getvalue(),
        "crash": crash,
        "spans": tracer.spans if tracer else [],
        "counters": dict(tracer.counters) if tracer else {},
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
