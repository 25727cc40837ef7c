"""No floating point in the package.

Exactness is the product: coefficients are `int`, `Fraction` or residues
mod p, and the geometry is integer. A float literal, the name `float` or a
true division `/` in `src/` would let a float in; each passes only when
EXEMPT lists its enclosing function with the reason it stays exact.
"""

import ast
from pathlib import Path

import reesval

PACKAGE = Path(reesval.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))

# (module, qualified enclosing function, kind) -> why it stays exact
EXEMPT = {
    ("poly", "RationalField.inv", "true division"): "1 / a is a Fraction, a being one",
}


def _float_sites(modules):
    """(stem, qualified enclosing function or "", kind) for each float literal,
    read of the name `float` and true division in modules ({stem: tree})."""
    found = []

    def visit(node, stem, qual):
        for child in ast.iter_child_nodes(node):
            inner = qual
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{qual}.{child.name}" if qual else child.name
            if isinstance(child, ast.Constant) and isinstance(child.value, (float, complex)):
                found.append((stem, qual, "float literal"))
            elif isinstance(child, ast.Name) and child.id == "float":
                found.append((stem, qual, "float name"))
            elif isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
                found.append((stem, qual, "true division"))
            visit(child, stem, inner)

    for stem, tree in modules.items():
        visit(tree, stem, "")
    return found


def _package():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}


def test_no_floating_point():
    assert [s for s in _float_sites(_package()) if s not in EXEMPT] == []


def test_every_exemption_is_still_needed():
    assert set(EXEMPT) <= set(_float_sites(_package()))


def test_the_guard_sees_floating_point():
    modules = {
        "m": ast.parse(
            "HALF = 0.5\n"
            "def ratio(a, b):\n"
            "    return a / b\n"
            "def exact(a, b):\n"
            "    return a // b, 2 * a, 'a / b'\n"
            "class K:\n"
            "    def scale(self, x):\n"
            "        x /= 2\n"
            "        return float(x) + 1j\n"
        ),
    }
    assert _float_sites(modules) == [
        ("m", "", "float literal"),
        ("m", "ratio", "true division"),
        ("m", "K.scale", "true division"),
        ("m", "K.scale", "float name"),
        ("m", "K.scale", "float literal"),
    ]
