"""Every theorem-check report is built in one place.

Only verify._report constructs a CheckReport, so every check serializes its
inputs and echoes its ring's asserted words in `relied_on` the same way.
"""

import ast
from pathlib import Path

import pytest

import reesval

SOURCES = sorted(Path(reesval.__file__).parent.glob("*.py"))
BUILDER = "_report"


def _constructions_outside_the_builder(tree):
    """Lines that call CheckReport anywhere but inside a function named _report."""
    inside = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == BUILDER
        for node in ast.walk(fn)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and id(node) not in inside
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "CheckReport")
            or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "CheckReport"
            )
        )
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_only_the_report_builder_constructs_a_report(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _constructions_outside_the_builder(tree) == []


def test_the_guard_sees_the_constructions_it_forbids():
    source = (
        "def _report(name):\n"
        "    return CheckReport(name)\n"
        "def check_x():\n"
        "    return CheckReport('x')\n"
        "report = verify.CheckReport('y')\n"
        "other('z')\n"
    )
    assert _constructions_outside_the_builder(ast.parse(source)) == [4, 5]
