"""Every public name of ``ctrlsim`` has a caller outside the tests.

A public module-level function or class of ``src/ctrlsim`` must be
referenced (as a name or an attribute) somewhere in ``src/``,
``demos/``, ``tools/`` or ``perfbench/``, outside its own definition.
Imports and the tests do not count, so a helper that only the tests
call fails here.
"""

import ast
import types
from pathlib import Path

import ctrlsim

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ctrlsim"
CALLER_DIRS = ("src", "demos", "tools", "perfbench")


def _references():
    """Referenced names, each with the (module file, definition) it sits in:
    the top-level def or class enclosing the reference, if any."""
    refs = set()
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for stmt in ast.parse(path.read_text(), str(path)).body:
                owner = getattr(stmt, "name", None)
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Name):
                        refs.add((node.id, path, owner))
                    elif isinstance(node, ast.Attribute):
                        refs.add((node.attr, path, owner))
    return refs


def _public_definitions():
    """(name, defining file) of every public module-level def and class."""
    defs = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                defs.append((stmt.name, path))
    return defs


def test_every_public_name_has_a_caller_outside_the_tests():
    refs = _references()

    def called(name, home):
        return any(n == name and (path, owner) != (home, name) for n, path, owner in refs)

    uncalled = sorted(
        f"{path.stem}.{name}" for name, path in _public_definitions() if not called(name, path)
    )
    assert not uncalled, f"public names with no caller outside tests/: {uncalled}"


def test_the_package_re_exports_no_name():
    # each name has one import path, its module: the package holds only
    # __version__ and the submodules Python sets on it
    public = {
        name
        for name, value in vars(ctrlsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set()
    assert ctrlsim.__version__ and not hasattr(ctrlsim, "__all__")
