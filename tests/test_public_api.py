"""The package's export list and its imports name the same public objects."""

import ast
from pathlib import Path

import kintegration

INIT = Path(kintegration.__file__)


def test_every_exported_name_resolves():
    assert [name for name in kintegration.__all__ if not hasattr(kintegration, name)] == []
    assert len(set(kintegration.__all__)) == len(kintegration.__all__)


def test_every_public_name_the_package_imports_is_exported():
    imported = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(INIT.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public, "no imports found"
    assert sorted(public - set(kintegration.__all__)) == []
