"""Every differentiable public ``numcore`` op is in the gradient-check table.

Checked with the standard library's ``ast``: a public function of
``numcore`` that calls ``_record`` defines its own backward, so it must
be called inside ``tests/test_numcore.py::_op_cases``, whose entries
``test_op_gradients`` compares against central differences.

The number of recording ops is pinned too: a change that adds or
removes one updates ``RECORDING_OPS``, so a new near-duplicate of an
existing op shows up in review.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NUMCORE = ROOT / "src" / "sparsepatch" / "numcore.py"
TABLE = ROOT / "tests" / "test_numcore.py"

# public numcore functions that call ``_record``
RECORDING_OPS = 21

# ops whose backward is deliberately not the derivative of their forward,
# with the test that checks the backward instead
NOT_DERIVATIVES = {
    # a step forward with a sigmoid surrogate backward
    "hard_gate": "test_hard_gate_matches_soft_surrogate_gradient",
}


def recording_ops(source: str) -> set[str]:
    """Public top-level functions whose body calls ``_record``."""
    return {
        node.name for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "_record" for call in ast.walk(node))}


def table_ops(source: str, table: str = "_op_cases") -> set[str]:
    """Attributes of ``nc`` named inside the function ``table``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == table:
            return {attr.attr for attr in ast.walk(node)
                    if isinstance(attr, ast.Attribute)
                    and isinstance(attr.value, ast.Name) and attr.value.id == "nc"}
    raise AssertionError(f"no function {table} in the test source")


def test_checker_finds_recording_ops_and_table_entries():
    ops = ("def _record(*a): pass\n"
           "def double(x):\n    return _record(x, (x,), None)\n"
           "def plain(x):\n    return double(x)\n"
           "def _hidden(x):\n    return _record(x, (x,), None)\n")
    assert recording_ops(ops) == {"double"}
    table = ("def _op_cases():\n    return [('d', lambda x: nc.double(x), (1, 1), 0)]\n"
             "def other():\n    nc.plain(1)\n")
    assert table_ops(table) == {"double"}


def test_every_recording_op_is_gradient_checked():
    ops = recording_ops(NUMCORE.read_text())
    assert "matmul" in ops and "multihead_attention" in ops
    tests = TABLE.read_text()
    for name, test in NOT_DERIVATIVES.items():
        assert name in ops and f"def {test}(" in tests
    missing = ops - table_ops(tests) - set(NOT_DERIVATIVES)
    assert not missing, f"ops missing from _op_cases: {sorted(missing)}"


def test_recording_op_count_is_pinned():
    ops = recording_ops(NUMCORE.read_text())
    assert len(ops) == RECORDING_OPS, sorted(ops)
