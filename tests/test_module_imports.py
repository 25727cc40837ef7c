"""Every import in the package sits at module top.

An import inside a function hides a dependency from a reader of the
module's head, and one that breaks an import cycle hides the cycle. No
function in `src/reesval` imports.
"""

import ast
from pathlib import Path

import pytest

import reesval

SOURCES = sorted(Path(reesval.__file__).parent.glob("*.py"))


def _function_imports(tree):
    """Lines of import statements inside a function body."""
    return sorted(
        {
            node.lineno
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_import_inside_a_function(path):
    assert _function_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_guard_sees_the_imports_it_forbids():
    source = (
        "import json\n"
        "from .ideals import Ideal\n"
        "def f():\n"
        "    from .ideals import eliminate\n"
        "    def g():\n"
        "        import math\n"
        "    return eliminate\n"
        "class C:\n"
        "    def m(self):\n"
        "        import re\n"
    )
    assert _function_imports(ast.parse(source)) == [4, 6, 10]
