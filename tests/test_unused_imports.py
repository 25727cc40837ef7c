"""No unused module-level imports in the package.

An import the module never references is left over from code that is
gone. `__init__.py` imports to re-export, and `__future__` imports are
compiler directives, so both are exempt. A name counts as a use only where
it reads the module scope: inside a function, lambda or comprehension that
binds the same name (a parameter, an assignment or loop target, a
comprehension variable), it reads that local instead.
"""

import ast
from pathlib import Path

import pytest

import reesval

SOURCES = sorted(
    p for p in Path(reesval.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda) + _COMPREHENSIONS


def _imported(stmt):
    if isinstance(stmt, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in stmt.names]
    if isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
        return [a.asname or a.name for a in stmt.names]
    return []


def _local_names(scope):
    """Names a function, lambda or comprehension binds in its own scope."""
    if isinstance(scope, _COMPREHENSIONS):
        todo, names = [g.target for g in scope.generators], set()
    else:
        a = scope.args
        args = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
        names = {arg.arg for arg in args if arg}
        todo = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        names.update(_imported(node))
        if not isinstance(node, _SCOPES + (ast.ClassDef,)):
            todo += ast.iter_child_nodes(node)
    return names


def _module_reads(node, local=frozenset()):
    """Names read under node that resolve to the module scope."""
    if isinstance(node, ast.Name):
        return {node.id} - local if isinstance(node.ctx, ast.Load) else set()
    if isinstance(node, _SCOPES):
        local = local | _local_names(node)
    return set().union(*(_module_reads(n, local) for n in ast.iter_child_nodes(node)))


def _unused_imports(tree):
    bound = [name for stmt in tree.body for name in _imported(stmt)]
    used = _module_reads(tree)
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


@pytest.mark.parametrize(
    "body",
    [
        "def f(field):\n    return field\n",
        "def f():\n    field = 1\n    return field\n",
        "def f(xs):\n    for field in xs:\n        print(field)\n",
        "def f(xs):\n    return [field for field in xs]\n",
        "f = lambda field: field\n",
    ],
    ids=["parameter", "assignment", "loop", "comprehension", "lambda"],
)
def test_the_guard_sees_an_import_shadowed_by_a_local(body):
    source = "from dataclasses import field\n" + body
    assert _unused_imports(ast.parse(source)) == ["field"]


def test_the_guard_counts_reads_outside_the_shadowing_scope():
    source = (
        "from dataclasses import field\n"
        "def f(xs):\n"
        "    return [field for field in xs], field(default=0)\n"
    )
    assert _unused_imports(ast.parse(source)) == []
