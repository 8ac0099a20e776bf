"""Static checks on the package source: exports that resolve and no stale
imports.  Both are what a deletion leaves behind, so they are checked here
with the standard library's `ast` rather than an external linter."""
import ast
from pathlib import Path

import pytest

import ohlab

SOURCES = sorted(Path(ohlab.__file__).parent.glob("*.py"))


def test_every_export_resolves():
    assert len(set(ohlab.__all__)) == len(ohlab.__all__)
    missing = [name for name in ohlab.__all__ if not hasattr(ohlab, name)]
    assert missing == []


def imported_names(tree):
    """Name each import binds in the module -> line of the import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree):
    """Names read anywhere in the module, plus the strings of __all__."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    stale = {name: line for name, line in imported_names(tree).items()
             if name not in used}
    assert stale == {}, f"{path.name} imports names it never uses: {stale}"


def test_unused_import_is_detected():
    tree = ast.parse("import os\nfrom math import pi, tau\nprint(pi)\n")
    assert set(imported_names(tree)) - used_names(tree) == {"os", "tau"}
