"""Groebner bases are computed where they are cached.

Only groebner (which defines buchberger) and ideals (Ideal.gb and
elimination) name buchberger. Every other module reads a basis through
Ideal.gb(), the modulus basis through the algebra's zero_ideal, so each
basis is computed once and kept on the ideal it belongs to.
"""

import ast
from pathlib import Path

import pytest

import reesval

SOURCES = sorted(Path(reesval.__file__).parent.glob("*.py"))
OWNERS = ("groebner", "ideals")


def _buchberger_uses(tree):
    """Lines that call or pass around buchberger; importing it is allowed."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "buchberger")
        or (isinstance(node, ast.Attribute) and node.attr == "buchberger")
    )


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.stem not in OWNERS], ids=lambda p: p.stem
)
def test_only_basis_owners_call_buchberger(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _buchberger_uses(tree) == []


def test_the_guard_sees_the_calls_it_forbids():
    source = (
        "from .groebner import buchberger\n"
        "buchberger(gens)\n"
        "groebner.buchberger(gens)\n"
        "gb = groebner.buchberger\n"
        "other(gens)\n"
    )
    assert _buchberger_uses(ast.parse(source)) == [2, 3, 4]
