"""No package module imports another's private name.

A name with a leading underscore is its module's own business: a second
module that imports it shares a decision the first may change alone. An
import `from .module import _name` passes only when EXEMPT lists it with
the reason it stays.
"""

import ast
from pathlib import Path

import reesval

PACKAGE = Path(reesval.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))

# (importing module, "module._name") -> why the private import stays
EXEMPT = {
    ("verify", "symbolic._order_along"): "the order along an exceptional prime, unscreened",
    ("monomial", "groebner._minimalize"): "the minimal generators of a monomial ideal",
}


def _private_imports(modules):
    """(importing stem, "module._name") for each private name a package
    module imports from another one, in modules ({stem: tree})."""
    found = []
    for stem, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                found += [
                    (stem, f"{node.module}.{a.name}")
                    for a in node.names
                    if a.name.startswith("_") and not a.name.endswith("__")
                ]
    return found


def _package():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}


def test_no_private_imports_between_modules():
    assert [i for i in _private_imports(_package()) if i not in EXEMPT] == []


def test_every_exemption_is_still_needed():
    assert set(EXEMPT) <= set(_private_imports(_package()))


def test_the_guard_sees_private_imports():
    modules = {
        "a": ast.parse(
            "from .b import public, _private\n"
            "from . import c\n"
            "from .c import __version__\n"
            "import _thread\n"
            "from _collections_abc import Set\n"
            "def f():\n"
            "    from .d import _inner as alias\n"
        ),
        "b": ast.parse("_private = 1\nfrom .a import _helper\n"),
    }
    assert _private_imports(modules) == [
        ("a", "b._private"), ("a", "d._inner"), ("b", "a._helper"),
    ]
