"""The simplex is written once.

Only linalg names pivot, the fraction-free Bareiss step. Every other module
reaches it through linalg's row reduction, nullspace and simplex, so the
one Bland's-rule loop, linalg.simplex, runs every LP in the package.
"""

import ast
from pathlib import Path

import pytest

import reesval

SOURCES = sorted(Path(reesval.__file__).parent.glob("*.py"))


def _pivot_uses(tree):
    """Lines that import, call or pass around pivot."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "pivot")
        or (isinstance(node, ast.Attribute) and node.attr == "pivot")
        or (isinstance(node, ast.alias) and node.name == "pivot")
    )


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.stem != "linalg"], ids=lambda p: p.stem
)
def test_only_linalg_names_pivot(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _pivot_uses(tree) == []


def test_the_guard_sees_the_uses_it_forbids():
    source = (
        "from .linalg import nullspace, pivot\n"
        "d = pivot(rows, r, col, d)\n"
        "linalg.pivot(rows, r, col, d)\n"
        "step = linalg.pivot\n"
        "_, pivots, d = row_reduce(rows)\n"
    )
    assert _pivot_uses(ast.parse(source)) == [1, 2, 3, 4]
