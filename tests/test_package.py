"""Static checks on the package source: exports that resolve and have a
caller, no stale imports, one sampling loop, one Newton path, one report
path and no exception class that nothing catches.  The first three are what
a deletion leaves behind, the next three what a second copy of a loop, a
solver or an emitter brings back, and the last a bespoke class for what is
a plain ValueError, so they are checked here with the standard library's
`ast` rather than an external linter."""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ohlab

SOURCES = sorted(Path(ohlab.__file__).parent.glob("*.py"))


def test_every_export_resolves():
    assert len(set(ohlab.__all__)) == len(ohlab.__all__)
    missing = [name for name in ohlab.__all__ if not hasattr(ohlab, name)]
    assert missing == []


def loaded_by(statement):
    """The ohlab modules that `statement` leaves in sys.modules of a fresh
    interpreter, whatever this session has imported already."""
    probe = (f"import sys\n{statement}\n"
             "print(' '.join(sorted(m for m in sys.modules\n"
             "                      if m.split('.')[0] == 'ohlab')))\n")
    src = str(Path(ohlab.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def test_import_footprint():
    # a submodule loads when a workflow first reads one of its names
    assert loaded_by("import ohlab") == {"ohlab"}
    assert loaded_by("import ohlab.waves") == {
        "ohlab", "ohlab.errors", "ohlab.fourier", "ohlab.tables",
        "ohlab.waves"}
    for module in ("evolution", "characteristics"):
        modules = loaded_by(f"import ohlab.{module}")
        assert f"ohlab.{module}" in modules
        assert "ohlab.criteria" not in modules
    # scan imports the solver only for a simulated scan
    assert loaded_by("import ohlab.scan") == {
        "ohlab", "ohlab.criteria", "ohlab.fourier", "ohlab.initial",
        "ohlab.scan", "ohlab.tables"}


def test_only_the_package_lists_exports():
    # ohlab._HOMES is the one table of exports; a module's own __all__
    # would be a second copy of its row
    assigning = [p.name for p in SOURCES
                 if any(isinstance(node, ast.Name) and node.id == "__all__"
                        and isinstance(node.ctx, ast.Store)
                        for node in ast.walk(ast.parse(p.read_text())))]
    assert assigning == ["__init__.py"]


def test_exports_are_their_home_modules_objects():
    for name in ohlab.__all__:
        value = getattr(ohlab, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("ohlab.")
        assert vars(home)[name] is value


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ohlab.no_such_name
    assert not hasattr(ohlab, "no_such_name")


def test_dir_lists_the_exports():
    assert set(ohlab.__all__) <= set(dir(ohlab))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from ohlab import *", namespace)
    assert set(ohlab.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(ohlab, name)
               for name in ohlab.__all__)


# exports that no workflow of the package calls, and why each stays
LIBRARY_ONLY = {
    "line_criterion": "the paper's breaking criterion on the infinite line; "
                      "every workflow runs on the circle",
    "LineData": "the decaying data that line_criterion reads",
    "sampled_data": "oracle of acceptance 7: quadrature scalars of any "
                    "callable, checked against the two-mode closed forms",
    "find_t1": "oracle of acceptance 7: the bound time T1 in closed form, "
               "which the criteria search inverts",
    "frequency_scaled": "the paper's high-frequency data u0(k x), whose "
                        "slope grows with k while its norms stay fixed",
}


def references_by_owner(tree):
    """(owner, names read) per top-level statement of a module; the owner is
    the name a def or class statement defines, else None."""
    for node in tree.body:
        owner = getattr(node, "name", None)
        yield owner, {getattr(sub, "id", getattr(sub, "attr", None))
                      for sub in ast.walk(node)
                      if isinstance(sub, (ast.Name, ast.Attribute))}


def test_every_export_has_a_caller():
    # a name counts as called when package code reads it outside its own
    # definition and outside the definitions of library-only names; the
    # re-export in __init__ does not count
    refs = [(owner, names) for p in SOURCES if p.name != "__init__.py"
            for owner, names in references_by_owner(
                ast.parse(p.read_text(), filename=str(p)))]
    called = {name for name in ohlab.__all__
              if any(name in names for owner, names in refs
                     if owner != name and owner not in LIBRARY_ONLY)}
    assert sorted(set(ohlab.__all__) - called) == sorted(LIBRARY_ONLY)


def test_references_skip_own_definition():
    tree = ast.parse("def f():\n    return f()\n"
                     "def g():\n    return m.f(h)\n")
    assert dict(references_by_owner(tree)) == {
        "f": {"f"}, "g": {"m", "f", "h"}}


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


def call_sites(tree, name):
    """Calls of a function `name`, by bare name or as an attribute."""
    return sum(isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None))
               == name for node in ast.walk(tree))


@pytest.mark.parametrize("name", ["march", "slope_verdict"])
def test_one_sampling_loop(name):
    # `simulate` is the one loop that steps, samples and judges; a second
    # caller of either is a second loop
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in SOURCES]
    assert sum(call_sites(tree, name) for tree in trees) == 1


def test_one_cold_start():
    # the expansion start has one caller, and a failed cold solve raises:
    # a second caller is a second cold-start path
    tree = ast.parse((Path(ohlab.__file__).parent / "waves.py").read_text())
    callers = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and call_sites(node, "_expansion_modes")}
    assert callers == {"_cold_solve"}


def test_one_retry_in_waves():
    # a failed Newton solve raises NoConvergence; the one handler that
    # retries is a branch's bisected step, which a long step back toward
    # s = 1 reaches (test_waves, test_long_step_back_is_bisected).  A
    # second handler is a second path to the same wave
    tree = ast.parse((Path(ohlab.__file__).parent / "waves.py").read_text())
    handlers = [node for node in ast.walk(tree)
                if isinstance(node, ast.ExceptHandler)]
    retrying = {node.name for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and any(isinstance(sub, ast.ExceptHandler)
                        for sub in ast.walk(node))}
    assert len(handlers) == 1 and retrying == {"_continue_to"}


def linalg_calls(tree, owner=""):
    """(qualified name of the def that makes it, full attribute chain) of
    each call of a `linalg.solve` or `linalg.inv`; a method such as
    `solver.solve` is not one."""
    calls = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            calls += linalg_calls(node, f"{owner}.{node.name}".lstrip("."))
            continue
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(
                ("linalg.solve", "linalg.inv")):
            calls.append((owner, ast.unparse(node.func)))
        calls += linalg_calls(node, owner)
    return calls


def test_one_newton_path():
    # the Newton step of `waves` is the one dense linear solve; a second
    # one is a second Newton path, such as a chord or an inverse route
    assert [call for p in SOURCES for call in linalg_calls(
        ast.parse(p.read_text(), filename=str(p)))] \
        == [("_NormalizedSolver.solve", "np.linalg.solve")]


def test_linalg_calls_are_found():
    tree = ast.parse("class S:\n def solve(self):\n  np.linalg.solve(a, b)\n"
                     "  solver.solve(a)\n  np.linalg.norm(a)\n"
                     "def f():\n def g():\n  return numpy.linalg.inv(a)\n")
    assert linalg_calls(tree) == [("S.solve", "np.linalg.solve"),
                                  ("f.g", "numpy.linalg.inv")]


def test_call_sites_are_counted():
    tree = ast.parse("march(1)\nev.march(2)\nmarch\nf(march)\n")
    assert call_sites(tree, "march") == 2


def test_one_report_path():
    # every subcommand returns its summary and `cli.dispatch` alone
    # serialises, writes and prints it
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in SOURCES}
    assert sum(call_sites(tree, "dump") + call_sites(tree, "dumps")
               for tree in trees.values()) == 1
    handlers = [node for node in ast.walk(trees["cli.py"])
                if isinstance(node, ast.FunctionDef)
                and node.name.startswith("_cmd_")]
    assert len(handlers) == 5
    assert [h.name for h in handlers if call_sites(h, "print")] == []


def caught_names(tree):
    """Exception names that the module's except clauses name."""
    return {getattr(node, "id", getattr(node, "attr", None))
            for handler in ast.walk(tree)
            if isinstance(handler, ast.ExceptHandler) and handler.type
            for node in ast.walk(handler.type)}


def test_caught_names_are_found():
    tree = ast.parse("try:\n    f()\nexcept (A, m.B):\n    pass\n"
                     "except C as e:\n    pass\nexcept:\n    pass\n")
    assert caught_names(tree) >= {"A", "B", "C"}


def test_every_package_error_is_caught():
    # an OhlabError is a numerical failure that a caller handles; bad input
    # is a ValueError and needs no class of its own
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in SOURCES}
    defined = {node.name for node in trees["errors.py"].body
               if isinstance(node, ast.ClassDef)
               and any(getattr(base, "id", None) == "OhlabError"
                       for base in node.bases)}
    caught = set().union(*map(caught_names, trees.values()))
    assert defined and sorted(defined - caught) == []
