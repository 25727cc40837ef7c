"""No unused module-level imports in the package.

An import the module never references is left over from code that is
gone. `__init__.py` imports to re-export, and `__future__` imports are
compiler directives, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

import reesval

SOURCES = sorted(
    p for p in Path(reesval.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _unused_imports(tree):
    bound = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in stmt.names]
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            bound += [a.asname or a.name for a in stmt.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _unused_imports(tree) == []


def test_the_guard_sees_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import collections.abc\n"
        "from math import gcd, lcm\n"
        "from functools import cmp_to_key as key\n"
        "from .errors import Error\n"
        "def f(x: Error):\n"
        "    import re\n"
        "    return gcd(x, 2), collections.abc.Sized\n"
    )
    assert _unused_imports(ast.parse(source)) == ["json", "lcm", "key"]
