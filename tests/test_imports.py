"""Every module of the package uses each name it imports, imports no
private name from another package module, every public top-level
function or class of the package has a user, and every dataclass field
of the package has a reader.

Checked with the standard library's ``ast``: a name bound by an import
counts as used when it is read anywhere in the module or listed in its
``__all__`` (re-exports). A ``_``-prefixed name is private to the module
that defines it, so another module must not import it. A public
definition counts as used when a name or attribute of that spelling
appears in package or benchmark code outside its own definition; tests
do not count. A dataclass field counts as read when an attribute of its
spelling is loaded in package or benchmark code; a constructor keyword
only writes it, and tests do not count.

The package's defaulted parameters are counted too, and the count is
pinned: a change that adds or removes a default updates
``DEFAULTED_PARAMETERS``, so every new option shows up in review.

Every kind of work the package tallies under ``uncounted`` (a string
literal passed first to a ``note_uncounted`` call) is named in backticks
in README.md, so a report's keys are all documented.

Every function the traced benchmark run wraps (a target that
``perfbench/layers.py``'s ``targets()`` returns) exists in the package,
so a refactor that moves one fails here and not in a ``--trace 1`` run.
"""

import ast
import importlib
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "sparsepatch"
MODULES = sorted(PACKAGE.glob("*.py"))
BENCHMARK = sorted((REPO / "perfbench").glob("*.py"))
README = REPO / "README.md"

# parameters with a default value across the package's functions,
# methods, nested functions and lambdas
DEFAULTED_PARAMETERS = 11

# public definitions kept without a caller in package or benchmark code
UNREFERENCED_OK = {
    "soft_gate_value": "the surrogate that hard_gate's straight-through "
                       "gradient is tested against",
}

# "module.Class.field" dataclass fields kept without an attribute read in
# package or benchmark code, each with its reason
UNREAD_FIELDS_OK = {
    "costmodel.CostReport.inputs": "read whole by dataclasses.asdict in "
                                   "cli.cmd_macs, the macs --json payload",
}


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


def _names(tree) -> set[str]:
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def unreferenced_definitions(package: dict[str, str],
                             others: list[str]) -> list[str]:
    """Public top-level functions and classes of ``package`` (module name
    to source) whose name appears in no other definition or statement of
    the package and in none of the ``others`` sources."""
    defined, used = {}, set()
    for module, source in package.items():
        for top in ast.parse(source).body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                own = top.name
                if not own.startswith("_"):
                    defined[own] = module
            used |= _names(top) - {own}
    for source in others:
        used |= _names(ast.parse(source))
    return sorted(f"{module}: {name}" for name, module in defined.items()
                  if name not in used)


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def unread_fields(package: dict[str, str], others: list[str]) -> list[str]:
    """``module.Class.field`` for each dataclass field of ``package``
    (module name to source) whose name is loaded as an attribute nowhere
    in the package or the ``others`` sources."""
    fields, read = [], set()
    for module, source in package.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                fields += [(f"{module}.{node.name}.{s.target.id}", s.target.id)
                           for s in node.body
                           if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    for source in [*package.values(), *others]:
        read |= {node.attr for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(field for field, name in fields if name not in read)


def defaulted_parameters(source: str) -> list[str]:
    """``function(parameter)`` for each parameter, positional or
    keyword-only, that has a default value."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        named = positional[len(positional) - len(args.defaults):]
        named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        owner = getattr(node, "name", "<lambda>")
        found += [f"{owner}({a.arg})" for a in named]
    return found


def uncounted_kinds(source: str) -> set[str]:
    """String literals passed as the first argument of a call to a
    function or method named ``note_uncounted``."""
    return {node.args[0].value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "note_uncounted"
            and node.args and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)}


def trace_targets(source: str) -> list[tuple[str, str]]:
    """``(owner, attribute)`` for each tuple in the list that a top-level
    ``targets()`` function returns: the owner spelled as in the source (a
    module of the package, or a class in one), the attribute a string."""
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name == "targets":
            returned = next(n for n in ast.walk(top) if isinstance(n, ast.Return)).value
            return [(ast.unparse(t.elts[0]), t.elts[1].value) for t in returned.elts]
    return []


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


def test_checker_flags_unreferenced_definitions():
    package = {
        "a": ("def used():\n    return 1\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "def _private():\n    pass\n"
              "class Dead:\n    def used(self):\n        return Dead\n"
              "class Annotated:\n    pass\n"),
        "b": ("from .a import used\n"
              "def caller(x: 'unused') -> None:\n    return used()\n"
              "def typed(x) -> Annotated:\n    return x\n"),
    }
    bench = ["import b\nb.caller(1)\nb.typed(2)\n"]
    assert unreferenced_definitions(package, bench) == ["a: Dead", "a: recursive"]
    assert unreferenced_definitions(package, []) == [
        "a: Dead", "a: recursive", "b: caller", "b: typed"]


def test_checker_flags_unread_dataclass_fields():
    package = {
        "a": ("import dataclasses\n"
              "from dataclasses import dataclass\n"
              "@dataclass\nclass P:\n    read: int\n    kwarg_only: int\n"
              "    written: int\n"
              "@dataclasses.dataclass(frozen=True)\nclass Q:\n    far: int\n"
              "class Plain:\n    loose: int\n"
              "def make(p):\n    p.written = 1\n"
              "    return P(read=1, kwarg_only=2, written=3)\n"),
        "b": "def use(p):\n    return p.read\n",
    }
    assert unread_fields(package, ["q.far\n"]) == [
        "a.P.kwarg_only", "a.P.written"]
    assert unread_fields(package, []) == [
        "a.P.kwarg_only", "a.P.written", "a.Q.far"]


def test_checker_counts_defaulted_parameters():
    source = ("def f(a, b=1, *args, c, d=2, **kw):\n"
              "    g = lambda x=0, y=1: x\n"
              "    def inner(y, z=None):\n        return z\n"
              "class C:\n    def m(self, k=3):\n        pass\n"
              "def p(a=0, /, b=1):\n    pass\n"
              "def plain(a, *, b):\n    pass\n")
    assert sorted(defaulted_parameters(source)) == [
        "<lambda>(x)", "<lambda>(y)", "f(b)", "f(d)", "inner(z)", "m(k)",
        "p(a)", "p(b)"]


def test_checker_finds_uncounted_kinds():
    source = ("note_uncounted('a', 1)\n"
              "nc.note_uncounted('b', n * 2)\n"
              "counter.note_uncounted(kind, 3)\n"
              "count_macs('c', 1)\n"
              "def note_uncounted(kind, amount):\n    pass\n")
    assert uncounted_kinds(source) == {"a", "b"}


def test_checker_reads_trace_targets():
    source = ("def other():\n    return [(a, 'x', 'a.x')]\n"
              "def targets():\n"
              "    return [(numcore, 'matmul', 'numcore.matmul'),\n"
              "            (numcore.Tape, 'backward', 'numcore.backward', ('n', f))]\n")
    assert trace_targets(source) == [("numcore", "matmul"), ("numcore.Tape", "backward")]


def test_package_has_modules():
    assert {"cli.py", "psformer.py", "costmodel.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_no_private_package_name(path):
    assert private_imports(path.read_text()) == []


def test_every_public_definition_has_a_user():
    found = unreferenced_definitions(
        {path.stem: path.read_text() for path in MODULES},
        [path.read_text() for path in BENCHMARK])
    # an allowlisted name that gains a user leaves the list too
    assert {entry.split(": ")[1] for entry in found} == set(UNREFERENCED_OK), found


def test_every_dataclass_field_has_a_reader():
    found = unread_fields({path.stem: path.read_text() for path in MODULES},
                          [path.read_text() for path in BENCHMARK])
    # an allowlisted field that gains a reader leaves the list too
    assert set(found) == set(UNREAD_FIELDS_OK), found


def test_defaulted_parameter_count_is_pinned():
    found = [f"{path.stem}.{entry}" for path in MODULES
             for entry in defaulted_parameters(path.read_text())]
    assert len(found) == DEFAULTED_PARAMETERS, found


def test_every_trace_target_exists_in_the_package():
    found = trace_targets((REPO / "perfbench" / "layers.py").read_text())
    assert found
    missing = []
    for owner, attribute in found:
        module, *classes = owner.split(".")
        obj = importlib.import_module(f"sparsepatch.{module}")
        for name in classes:
            obj = getattr(obj, name)
        if not hasattr(obj, attribute):
            missing.append(f"{owner}.{attribute}")
    assert missing == []


def test_every_uncounted_kind_is_documented():
    kinds = set().union(*(uncounted_kinds(path.read_text()) for path in MODULES))
    assert "saliency_fallbacks" in kinds
    readme = README.read_text()
    assert sorted(kind for kind in kinds if f"`{kind}`" not in readme) == []
