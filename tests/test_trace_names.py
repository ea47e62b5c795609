"""The benchmark tracer's list of wrapped functions names only functions that exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
