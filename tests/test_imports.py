"""Every module of the package uses each name it imports.

Checked with the standard library's ``ast``: a name bound by an import
counts as used when it is read anywhere in the module or listed in its
``__all__`` (re-exports).
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


def test_checker_flags_unused_and_accepts_used_names():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from math import pi as PI, tau\n"
              "from . import errors\n"
              "__all__ = ['tau']\n"
              "print(sys.argv, errors.X)\n")
    assert unused_imports(source) == ["line 2: os", "line 3: PI"]


def test_package_has_modules():
    assert {"cli.py", "psformer.py", "costmodel.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
