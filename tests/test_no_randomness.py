"""No module in the package imports `random`.

Every `exact` certificate rests on a proof and every report is a function
of its session alone. A random draw anywhere in `src/reesval` would make
one of them depend on a seed again.
"""

import ast
from pathlib import Path

import pytest

import reesval

SOURCES = sorted(Path(reesval.__file__).parent.glob("*.py"))


def _random_imports(tree):
    """Lines of imports of the standard library's `random`, at any depth."""

    def is_random(name):
        return name is not None and name.split(".")[0] == "random"

    def imports_random(node):
        if isinstance(node, ast.Import):
            return any(is_random(a.name) for a in node.names)
        # a relative import (level > 0) names a package module, not the stdlib
        if isinstance(node, ast.ImportFrom) and not node.level:
            return is_random(node.module)
        return False

    return sorted(node.lineno for node in ast.walk(tree) if imports_random(node))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_module_imports_random(path):
    assert _random_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_guard_sees_random_imports():
    source = (
        "import json\n"
        "import random\n"
        "from random import Random\n"
        "import os, random as rnd\n"
        "from .random import helper\n"
        "def f():\n"
        "    import random\n"
        "randomize = 1\n"
    )
    assert _random_imports(ast.parse(source)) == [2, 3, 4, 7]
