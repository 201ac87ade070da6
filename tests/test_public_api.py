"""Every public name of ``ctrlsim`` has a caller outside the tests.

A public module-level function or class of ``src/ctrlsim``, and every
name in ``ctrlsim.__all__``, must be referenced (as a name or an
attribute) somewhere in ``src/``, ``demos/``, ``tools/`` or
``perfbench/``, outside its own definition.  Imports, ``__all__``
strings and the tests do not count, so a helper that only the tests
call fails here.
"""

import ast
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
    defs = _public_definitions()
    homes = dict(defs)

    def called(name, home):
        return any(n == name and (path, owner) != (home, name) for n, path, owner in refs)

    names = defs + [(name, homes.get(name)) for name in ctrlsim.__all__]
    uncalled = sorted(
        {f"{path.stem if path else 'ctrlsim'}.{name}" for name, path in names if not called(name, path)}
    )
    assert not uncalled, f"public names with no caller outside tests/: {uncalled}"
