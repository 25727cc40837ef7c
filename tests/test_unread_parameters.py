"""No function in the package has a parameter it never reads.

A parameter nothing reads is an option that changes nothing: a caller can
set it and get the same result. The receiver of a method (`self`, `cls`)
is exempt, and so is each entry of EXEMPT, with the reason it stays.
"""

import ast
from pathlib import Path

import pytest

import reesval

SOURCES = sorted(Path(reesval.__file__).parent.glob("*.py"))

# (qualified function name, parameter) -> why the parameter stays unread
EXEMPT = {
    ("MonomialOrder.key", "exp"): "abstract method; every order's key reads it",
    ("run", "seed"): "the benchmark's session workload still passes seed=",
}


def _unread_parameters(tree):
    """(qualified name, parameter) for each parameter its function never reads."""
    found = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                args = child.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                params += [a for a in (args.vararg, args.kwarg) if a is not None]
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list
                )
                if in_class and not static:
                    params = params[1:]
                read = {
                    n.id
                    for stmt in child.body
                    for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)
                }
                found.extend((name, p.arg) for p in params if p.arg not in read)
                visit(child, name + ".", False)
            else:
                visit(child, prefix, in_class)

    visit(tree, "", False)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_unread_parameters(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unread = [k for k in _unread_parameters(tree) if k not in EXEMPT]
    assert unread == []


def test_every_exemption_is_still_needed():
    unread = set()
    for path in SOURCES:
        unread.update(_unread_parameters(ast.parse(path.read_text(encoding="utf-8"))))
    assert set(EXEMPT) <= unread


def test_the_guard_sees_unread_parameters():
    source = (
        "def f(a, b=1, *args, c, **kw):\n"
        "    def g(d):\n"
        "        return a + c\n"
        "    return g\n"
        "class K:\n"
        "    def m(self, x, y):\n"
        "        return y\n"
        "    @staticmethod\n"
        "    def s(z):\n"
        "        return 0\n"
        "    @classmethod\n"
        "    def c(cls, w):\n"
        "        return w\n"
    )
    assert _unread_parameters(ast.parse(source)) == [
        ("f", "b"),
        ("f", "args"),
        ("f", "kw"),
        ("f.g", "d"),
        ("K.m", "x"),
        ("K.s", "z"),
    ]
