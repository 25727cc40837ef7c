"""No module-global mutable state in the package.

A module-level list, dict or set, or a `global`/`nonlocal` rebinding, lets
one call's answer depend on what ran before it in the same process.
"""

import ast
from pathlib import Path

import pytest

import reesval

SOURCES = sorted(Path(reesval.__file__).parent.glob("*.py"))
MUTABLE = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def _module_state(tree):
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            found.append(f"{type(node).__name__.lower()} {', '.join(node.names)}")
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if not isinstance(value, MUTABLE):
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    found.append(f"module-level {name.id}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_module_global_mutable_state(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _module_state(tree) == []


def test_the_guard_sees_the_patterns_it_forbids():
    source = (
        "_CACHE = {}\n"
        "_budget = [1]\n"
        "SEEN: list = []\n"
        "TABLE = {k: 1 for k in 'ab'}\n"
        "LIMIT = 3\n"
        "def f():\n"
        "    global LIMIT\n"
        "    def g():\n"
        "        nonlocal x\n"
    )
    assert _module_state(ast.parse(source)) == [
        "global LIMIT",
        "nonlocal x",
        "module-level _CACHE",
        "module-level _budget",
        "module-level SEEN",
        "module-level TABLE",
    ]
