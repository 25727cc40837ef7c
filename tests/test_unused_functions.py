"""No function or method in the package goes uncalled.

A function nothing in the package reaches is code kept alive by its tests
alone. A definition passes when its name is read somewhere in `src/`
outside its own body, when `__init__` imports it, when it is a CLI
`cmd_`/`check_` method (the session dispatches to those by name) or a
dunder, or when EXEMPT lists it with the reason it stays.
"""

import ast
from pathlib import Path

import reesval

PACKAGE = Path(reesval.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))

# qualified name -> why it stays without a caller in src/
EXEMPT = {
    "is_groebner": "the test reference for buchberger",
    "Ideal.quotient": "a test reference, listed under ROADMAP 'tried and dropped'",
    "HilbertSeries.coefficients": "the expansion the Hilbert-series tests compare with counts",
    "PolyRing.monomials_up_to_degree": "a test-data helper",
    "clear_cache": "the benchmark still calls it",
}


def _definitions_and_reads(tree):
    """(qualified names of the functions and methods defined, names read
    with the qualified names of the functions enclosing each read)."""
    defs, reads = [], []

    def visit(node, prefix, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", enclosing)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                defs.append(name)
                visit(child, name + ".", enclosing | {name})
            else:
                if isinstance(child, ast.Name):
                    reads.append((child.id, enclosing))
                elif isinstance(child, ast.Attribute):
                    reads.append((child.attr, enclosing))
                visit(child, prefix, enclosing)

    visit(tree, "", frozenset())
    return defs, reads


def _exported(tree):
    return {
        a.asname or a.name
        for stmt in tree.body
        if isinstance(stmt, ast.ImportFrom)
        for a in stmt.names
    }


def _uncalled(modules):
    """Qualified names defined in modules ({stem: tree}) that no rule keeps."""
    defined, reads = [], []
    for stem, tree in modules.items():
        defs, file_reads = _definitions_and_reads(tree)
        defined.extend((stem, q) for q in defs)
        reads.extend(file_reads)
    exported = _exported(modules["__init__"]) if "__init__" in modules else set()
    found = []
    for stem, qual in defined:
        short = qual.rsplit(".", 1)[-1]
        if (
            (short.startswith("__") and short.endswith("__"))
            or (stem == "cli" and short.startswith(("cmd_", "check_")))
            or short in exported
            or any(n == short and qual not in inside for n, inside in reads)
        ):
            continue
        found.append(qual)
    return found


def _package():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}


def test_no_uncalled_functions():
    assert [q for q in _uncalled(_package()) if q not in EXEMPT] == []


def test_every_exemption_is_still_needed():
    assert set(EXEMPT) <= set(_uncalled(_package()))


def test_the_guard_sees_uncalled_functions():
    modules = {
        "__init__": ast.parse("from .m import public\n"),
        "m": ast.parse(
            "def public():\n"
            "    return helper()\n"
            "def helper():\n"
            "    return 0\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "def dead():\n"
            "    def inner():\n"
            "        return 1\n"
            "    return inner()\n"
            "class K:\n"
            "    def __init__(self):\n"
            "        self.used()\n"
            "    def used(self):\n"
            "        return 0\n"
            "    def unused(self):\n"
            "        return 0\n"
            "def cmd_x():\n"
            "    return 0\n"
        ),
        "cli": ast.parse(
            "class S:\n"
            "    def cmd_y(self):\n"
            "        return 0\n"
            "    def check_z(self):\n"
            "        return 0\n"
        ),
    }
    assert _uncalled(modules) == ["recursive", "dead", "K.unused", "cmd_x"]
