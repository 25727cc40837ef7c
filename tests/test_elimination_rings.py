"""Every elimination ring is built in one place.

`ideals.elimination_ring` is the only code that builds a block order for
an elimination, and the CLI's `order: block k` parser the only one that
builds one for a user's ring. Any other `Block(...)` would be a second,
hand-built elimination ring.
"""

import ast
from pathlib import Path

import reesval

SOURCES = sorted(Path(reesval.__file__).parent.glob("*.py"))
ALLOWED = {("cli", "_build_algebra"), ("ideals", "elimination_ring")}


def _block_callers(tree):
    """Name of the innermost function around each Block(...) call; None at
    module level."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and (
                (isinstance(child.func, ast.Name) and child.func.id == "Block")
                or (isinstance(child.func, ast.Attribute) and child.func.attr == "Block")
            ):
                out.append(where)
            visit(child, where)

    visit(tree, None)
    return out


def test_block_is_built_only_for_elimination_and_the_cli():
    found = {
        (path.stem, where)
        for path in SOURCES
        for where in _block_callers(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == ALLOWED


def test_the_guard_sees_the_calls_it_forbids():
    source = (
        "from .poly import Block\n"
        "order = Block(2)\n"
        "def ring(k):\n"
        "    def inner():\n"
        "        return poly.Block(k)\n"
        "    return PolyRing(names, QQ, Block(k)), inner\n"
        "def other(order=Block):\n"
        "    return order\n"
    )
    assert _block_callers(ast.parse(source)) == [None, "inner", "ring"]
