"""Every function call the README quotes matches the function's signature.

A backticked `name(params)` in README.md, where name is a function defined
in a reesval module (bare, or as `module.name`), must list parameter names
of that function in their order, and every parameter it leaves out must
have a default. Classes, methods and names outside reesval are not checked.
A bare `*` or `/` in a quote marks where keyword-only or positional-only
parameters begin and is skipped, as is a quoted default (`seed=0`).
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import reesval

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {
    info.name: importlib.import_module(f"reesval.{info.name}")
    for info in pkgutil.iter_modules(reesval.__path__)
}


def _function(name):
    """The reesval function a quoted name refers to, or None."""
    module, _, short = name.rpartition(".")
    for mod in [MODULES.get(module)] if module else MODULES.values():
        f = getattr(mod, short, None)
        if inspect.isfunction(f) and f.__module__ == mod.__name__:
            return f
    return None


def _split_params(text):
    """Top-level comma-separated pieces of text, brackets and quotes kept whole."""
    pieces, depth, quote, start = [], 0, None, 0
    for i, ch in enumerate(text):
        if quote:
            quote = None if ch == quote else quote
        elif ch in "'\"":
            quote = ch
        elif ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            pieces.append(text[start:i])
            start = i + 1
    pieces.append(text[start:])
    return [p.strip() for p in pieces if p.strip()]


def _quoted_calls():
    calls = []
    for span in re.findall(r"`([^`]+)`", README.read_text(encoding="utf-8")):
        quote = " ".join(span.split())
        m = re.fullmatch(r"([A-Za-z_][\w.]*)\((.*)\)", quote)
        if m and _function(m.group(1)) is not None:
            calls.append((quote, _function(m.group(1)), m.group(2)))
    return calls


def _mismatch(func, params):
    """Why the quoted parameter list disagrees with func's signature, or None."""
    quoted = [
        p.split("=")[0].strip().lstrip("*")
        for p in _split_params(params)
        if p not in ("*", "/")
    ]
    sig = inspect.signature(func).parameters
    names = list(sig)
    pos = 0
    for q in quoted:
        if q not in names[pos:]:
            return f"{q!r} is not a parameter after position {pos} of {names}"
        pos = names.index(q, pos) + 1
    optional = (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
    missing = [
        n
        for n, p in sig.items()
        if n not in quoted and p.default is p.empty and p.kind not in optional
    ]
    return f"leaves out {missing}, which have no default" if missing else None


CALLS = _quoted_calls()


def test_readme_quotes_some_calls():
    assert len(CALLS) >= 10


@pytest.mark.parametrize("quote, func, params", CALLS, ids=[c[0] for c in CALLS])
def test_readme_call_matches_signature(quote, func, params):
    assert _mismatch(func, params) is None, f"{quote}: {_mismatch(func, params)}"


def test_mismatches_are_caught():
    def check(p, q, nmax, /, *, A, e=1, seed=0, **flags):
        pass

    assert _mismatch(check, "p, q, nmax, *, A") is None
    assert _mismatch(check, "p, q, nmax, A, seed=0, **flags") is None
    assert _mismatch(check, "p, q, constants, nmax")  # not a parameter
    assert _mismatch(check, "p, nmax, q, A")  # out of order
    assert _mismatch(check, "p, q, nmax")  # A has no default
    assert _function("verify.check_main_theorem_A") is reesval.check_main_theorem_A
    assert _function("Ideal") is None and _function("random.Random") is None
