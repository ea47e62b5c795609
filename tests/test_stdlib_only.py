"""The package runs on the standard library alone."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kintegration"
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"

# runs in a fresh interpreter: the modules the CLI's start-up adds to what the interpreter had loaded
CLI_START = """
import sys
before = set(sys.modules)
from kintegration import cli
cli.build_parser()
print(" ".join(sorted(set(sys.modules) - before)))
"""


def _imported_roots(path: Path) -> set[str]:
    """The top-level name of every module ``path`` imports; a relative import counts as the package."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("kintegration" if node.level else node.module.partition(".")[0])
    return roots


def test_every_import_is_the_package_or_the_standard_library():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) >= 10
    outside = {
        (path.name, root)
        for path in sources
        for root in _imported_roots(path)
        if root != "kintegration" and root not in sys.stdlib_module_names
    }
    assert outside == set()


def test_no_source_imports_dataclasses():
    # it pulls in inspect, ast and dis, and each decorator execs generated methods, on every CLI call
    assert [path.name for path in sorted(PACKAGE.rglob("*.py")) if "dataclasses" in _imported_roots(path)] == []


def test_the_cli_starts_without_dataclasses_or_inspect():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", CLI_START], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "kintegration.cli" in added
    # csv is imported by the one CSV render, which no JSON or text call reaches
    assert added & {"dataclasses", "inspect", "csv", "_csv"} == set()


def test_every_source_parses_at_the_declared_python_floor():
    # pyproject.toml declares requires-python >= 3.10, so grammar newer than 3.10 must not creep in
    floor = re.search(r'requires-python = ">=3\.(\d+)"', PYPROJECT.read_text(encoding="utf-8"))
    assert floor is not None
    for path in sorted(PACKAGE.rglob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, int(floor.group(1))))


@pytest.mark.skipif(sys.version_info < (3, 11), reason="except* needs a 3.11 parser")
def test_the_floor_parse_refuses_newer_grammar():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


def test_the_import_scan_sees_absolute_relative_and_nested_imports(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("import os.path, numpy as np\nfrom . import graph\ndef f():\n    from scipy import sparse\n")
    assert _imported_roots(source) == {"os", "numpy", "kintegration", "scipy"}
