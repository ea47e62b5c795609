"""The package's export table names each public object once, and loads it on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kintegration

SRC = Path(kintegration.__file__).resolve().parent.parent

# runs in a fresh interpreter: what a statement adds to sys.modules, and what the package then resolves
LAZY_PROBE = """
import json, sys
before = set(sys.modules)
exec(sys.argv[1])
added = sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "kintegration")
import kintegration
print(json.dumps({"added": added, "unbound": [name for name in kintegration.__all__ if name not in globals()],
                  "fits_row": kintegration.oracle.fits_row.__qualname__, "max_classes": kintegration.metrics.MAX_CLASSES}))
"""


def _probe(statement: str) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", LAZY_PROBE, statement], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_exported_name_resolves():
    assert [name for name in kintegration.__all__ if not hasattr(kintegration, name)] == []
    assert len(set(kintegration.__all__)) == len(kintegration.__all__)


def test_every_name_in_the_table_is_defined_by_its_module_and_exported_in_order():
    names = [name for names in kintegration._EXPORTS.values() for name in names]
    assert len(names) == len(set(names)) == 48
    for module, module_names in kintegration._EXPORTS.items():
        for name in module_names:
            assert getattr(kintegration, name).__module__ == f"kintegration.{module}", name
    assert kintegration.__all__ == [*sorted(names), "__version__"]


def test_a_bare_import_loads_no_submodule_and_qualified_names_still_resolve():
    seen = _probe("import kintegration")
    assert seen["added"] == ["kintegration"]
    assert (seen["fits_row"], seen["max_classes"]) == ("fits_row", 60000)


def test_importing_one_submodule_loads_only_what_it_imports():
    seen = _probe("import kintegration.metrics")
    assert seen["added"] == ["kintegration", "kintegration.errors", "kintegration.graph", "kintegration.metrics"]


def test_a_star_import_binds_every_exported_name():
    assert _probe("from kintegration import *")["unbound"] == []


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        kintegration.no_such_name
    assert "no_such_name" not in dir(kintegration)
    assert set(kintegration.__all__) | set(kintegration._EXPORTS) <= set(dir(kintegration))


def test_each_access_returns_the_modules_current_binding(monkeypatch):
    replacement = object()
    assert kintegration.build_report is kintegration.metrics.build_report
    monkeypatch.setattr(kintegration.metrics, "build_report", replacement)
    assert kintegration.build_report is replacement
