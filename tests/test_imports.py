"""Every module of the package uses each name it imports, and imports
no private name from another package module.

Checked with the standard library's ``ast``: a name bound by an import
counts as used when it is read anywhere in the module or listed in its
``__all__`` (re-exports). A ``_``-prefixed name is private to the module
that defines it, so another module must not import it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sparsepatch"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[::-1])
            if name not in used]


def private_imports(source: str) -> list[str]:
    """``_``-prefixed names imported from a module of the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "sparsepatch"):
            found += [f"line {node.lineno}: {alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_checker_flags_unused_and_accepts_used_names():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from math import pi as PI, tau\n"
              "from . import errors\n"
              "__all__ = ['tau']\n"
              "print(sys.argv, errors.X)\n")
    assert unused_imports(source) == ["line 2: os", "line 3: PI"]


def test_checker_flags_private_package_imports():
    source = ("from __future__ import annotations\n"
              "from os import _exit\n"
              "from .psformer import (\n    PsformerConfig,\n    _ev,\n)\n"
              "from . import _hidden, numcore\n"
              "from sparsepatch.numcore import _record\n")
    assert private_imports(source) == ["line 3: _ev", "line 7: _hidden",
                                       "line 8: _record"]


def test_package_has_modules():
    assert {"cli.py", "psformer.py", "costmodel.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_no_private_package_name(path):
    assert private_imports(path.read_text()) == []
