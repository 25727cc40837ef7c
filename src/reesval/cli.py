"""Command-line front end: session files in, JSON reports out.

Session files follow the grammar stated above `parse_session`.
Reports are deterministic: nothing is random, and timing fields are only
emitted under --timings, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import inspect
import json
import re
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass

from . import groebner
from .errors import ReesvalError, PreconditionError
from .ideals import AffineAlgebra, Ideal
from .monomial import (
    find_min_briancon_skoda,
    integral_closure_power,
    monomial_multiplicity,
    newton_polyhedron,
)
from .multiplicity import (
    local_multiplicity_via_gr,
    multiplicity_graded,
    read_length_table,
)
from .poly import Block, GrevLex, Lex, PolyRing, PrimeField, QQ
from .rings import extended_rees_presentation
from .symbolic import DEFAULT_NMAX, ord_at, symbolic_power
from .verify import (
    check_improved_chevalley,
    check_local_zariski_nagata,
    check_main_theorem_A,
    check_order_ideal_theorem_graded,
    check_uniform_izumi_multiplicity,
)

REPORT_VERSION = "2"


@dataclass
class SessionFile:
    ring: dict
    ideals: list  # (name, [poly strings]) in definition order
    commands: list  # token lists


# Session text, '#' starting a comment that runs to the end of its line:
#   ring  = 'ring' '{' (key ':' value)? (';' (key ':' value)?)* '}', may span lines
#   ideal = 'ideal' name '=' poly (',' poly)*,  cmd = 'cmd:' word+, one per line
# Each key appears at most once; its value, each whitespace run read as one
# space, must match its pattern whole. Defaults: field QQ, no mod, order
# grevlex, nothing asserted; vars has none. The names in vars, polynomials in
# mod (split at commas) and words in assert are judged when the ring is built.
_RING_GRAMMAR = (
    ("vars", r".*"),
    ("field", r"QQ|Fp \d+"),
    ("mod", r".*"),
    ("order", r"lex|grevlex|block \d+"),
    ("assert", r".*"),
)


def parse_session(text):
    text = re.sub(r"#[^\n]*", "", text)
    m = re.search(r"ring\s*\{([^}]*)\}", text, re.S)
    if not m:
        raise PreconditionError("session needs exactly one ring block")
    if re.search(r"ring\s*\{", text[m.end() :]):
        raise PreconditionError("more than one ring block")
    patterns, found = dict(_RING_GRAMMAR), {}
    for piece in filter(None, (p.strip() for p in m.group(1).split(";"))):
        key, colon, value = piece.partition(":")
        key, value = key.strip(), " ".join(value.split())
        if not colon:
            raise PreconditionError(f"bad ring field {piece!r}")
        if key not in patterns:
            raise PreconditionError(f"unknown ring field {key!r}")
        if key in found:
            raise PreconditionError(f"repeated ring key {key!r}")
        if not re.fullmatch(patterns[key], value):
            raise PreconditionError(f"unknown {key} {value!r}")
        found[key] = value
    ring = {
        "vars": tuple(found.get("vars", "").split()),
        "field": found.get("field", "QQ"),
        "mod": [p.strip() for p in found.get("mod", "").split(",") if p.strip()],
        "order": found.get("order", "grevlex"),
        "assert": found.get("assert", "").split(),
    }
    if not ring["vars"]:
        raise PreconditionError("ring block needs vars")
    # the block gives way to its newlines, so every line keeps its file number
    rest = text[: m.start()] + "\n" * m.group(0).count("\n") + text[m.end() :]
    ideals, commands, defined = [], [], set()
    for lineno, line in enumerate(rest.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("ideal"):
            m2 = re.fullmatch(r"ideal\s+([A-Za-z_]\w*)\s*=\s*(.+)", line)
            if not m2:
                raise PreconditionError(f"line {lineno}: bad ideal definition")
            name = m2.group(1)
            if name in defined:
                raise PreconditionError(f"line {lineno}: duplicate ideal {name!r}")
            defined.add(name)
            ideals.append((name, [p.strip() for p in m2.group(2).split(",")]))
        elif line.startswith("cmd:"):
            toks = line[4:].split()
            if not toks:
                raise PreconditionError(f"line {lineno}: empty command")
            commands.append(toks)
        else:
            raise PreconditionError(f"line {lineno}: unrecognized line {line!r}")
    return SessionFile(ring=ring, ideals=ideals, commands=commands)


def _build_algebra(ring_spec):
    order = ring_spec["order"]
    if order.startswith("block "):
        k, n = int(order.removeprefix("block ")), len(ring_spec["vars"])
        if not 0 < k < n:
            raise PreconditionError(f"order block {k} needs 1 <= k < {n} variables")
        order = Block(k)
    else:
        order = Lex() if order == "lex" else GrevLex()
    field = ring_spec["field"]
    try:  # PrimeField rejects a non-prime p, PolyRing a repeated or unreadable name
        fld = QQ if field == "QQ" else PrimeField(int(field.removeprefix("Fp ")))
        ring = PolyRing(ring_spec["vars"], fld, order)
    except ValueError as exc:
        raise PreconditionError(f"bad ring: {exc}") from None
    modulus = tuple(ring.parse(p) for p in ring_spec["mod"])
    return AffineAlgebra(ring, modulus, asserted=tuple(ring_spec["assert"]))


def _int(text):
    try:
        return int(text)
    except ValueError:
        raise PreconditionError(f"expected an integer, got {text!r}") from None


def _coordinate(ring, text):
    c = ring.parse(text)
    if c.total_degree() > 0:
        raise PreconditionError(f"not an element of {ring.field}: {text!r}")
    return c


def _split(tokens):
    """Split positional arguments from --flag value pairs; a flag given
    twice is an error, not a silent overwrite."""
    pos, flags = [], {}
    i = 0
    while i < len(tokens):
        if tokens[i].startswith("--"):
            if i + 1 >= len(tokens):
                raise PreconditionError(f"flag {tokens[i]} needs a value")
            if tokens[i][2:] in flags:
                raise PreconditionError(f"bad arguments: repeated flag {tokens[i]}")
            flags[tokens[i][2:]] = tokens[i + 1]
            i += 2
        else:
            pos.append(tokens[i])
            i += 1
    return pos, flags


def _method(obj, prefix, name):
    """obj's method prefix + name, "-" read as "_"; a name with "_" has none."""
    return "_" not in name and getattr(obj, prefix + name.replace("-", "_"), None)


def _call(method, pos, flags):
    """method(*pos, **flags) if its signature takes exactly those: a missing,
    extra or misspelled argument is a command error, never silently ignored."""
    try:
        inspect.signature(method).bind(*pos, **flags)
    except TypeError as exc:
        raise PreconditionError(f"bad arguments: {exc}") from None
    return method(*pos, **flags)


class _Session:
    def __init__(self, session):
        self.algebra = _build_algebra(session.ring)
        self.ideals = {}
        for name, polys in session.ideals:
            ring = self.algebra.ring
            try:
                gens = tuple(ring.parse(p) for p in polys)
            except PreconditionError as exc:
                raise PreconditionError(f"ideal {name}: {exc}") from None
            self.ideals[name] = Ideal(self.algebra, gens)

    def ideal(self, name):
        if name not in self.ideals:
            raise PreconditionError(f"undefined ideal {name!r}")
        return self.ideals[name]

    def poly(self, text):
        return self.algebra.ring.parse(text)

    # -- commands ---------------------------------------------------------
    # Positional arguments bind to positional-only parameters and flags to
    # keyword-only ones (see _call); every value arrives as text.

    def cmd_gb(self, ideal, /):
        return {"basis": [str(g) for g in self.ideal(ideal).gb()]}

    def cmd_power(self, ideal, n, /):
        J = self.ideal(ideal).power(_int(n))
        return {"generators": [str(g) for g in J.gb()]}

    def cmd_saturate(self, ideal, f, /):
        J, steps = self.ideal(ideal).saturate(self.poly(f))
        return {"generators": [str(g) for g in J.gb()], "steps": steps}

    def cmd_symbolic_power(self, ideal, n, /, *, separator="auto"):
        if separator != "auto":
            separator = self.poly(separator)
        J, cert = symbolic_power(self.ideal(ideal), _int(n), separator=separator)
        return {"generators": [str(g) for g in J.gb()], "certificate": cert}

    def cmd_ord(self, ideal, f, /, *, nmax=DEFAULT_NMAX):
        n, confirmed = ord_at(self.ideal(ideal), self.poly(f), nmax=_int(nmax))
        return {"ord": n, "confirmed": confirmed}

    def cmd_multiplicity(self, *, f=None):
        f = self.poly(f) if f is not None else None
        return {"e": local_multiplicity_via_gr(self.algebra, f)}

    def cmd_graded_multiplicity(self):
        return {"e": multiplicity_graded(self.algebra)}

    def cmd_length_table(self, ideal, N, /, *, f=None):
        f = self.poly(f) if f is not None else None
        table, dim, e, stabilized = read_length_table(
            self.algebra, self.ideal(ideal), f=f, N=_int(N)
        )
        return {"table": [[n, l] for n, l in table], "dim": dim, "e": e, "stabilized": stabilized}

    def cmd_newton(self, ideal, /):
        np_ = newton_polyhedron(self.ideal(ideal))
        return {
            "generators": [list(e) for e in np_.generators],
            "facets": [
                {"normal": list(f.normal), "offset": f.offset, "bounded": f.bounded}
                for f in np_.facets
            ],
        }

    def cmd_closure(self, ideal, n, /):
        J = integral_closure_power(self.ideal(ideal), _int(n))
        return {"generators": [str(g) for g in J.gens]}

    def cmd_monomial_multiplicity(self, ideal, /):
        return {"e": monomial_multiplicity(self.ideal(ideal))}

    def cmd_briancon_skoda(self, ideal, bmax, /):
        B = find_min_briancon_skoda(self.ideal(ideal), _int(bmax))
        return {"B": B if B is not None else f"not found <= {bmax}"}

    def cmd_rees(self, ideal, /):
        pres = extended_rees_presentation(self.algebra, self.ideal(ideal))
        return {
            "variables": list(pres.algebra.ring.names),
            "relations": [str(g) for g in pres.algebra.modulus],
            "weights": list(pres.weights),
        }

    def cmd_translate_origin(self, point, /):
        coords = [c.strip() for c in point.split(",")]
        ring = self.algebra.ring
        if len(coords) != ring.nvars:
            raise PreconditionError("one coordinate per variable")
        images = {
            n: ring.gen(n) + _coordinate(ring, c) for n, c in zip(ring.names, coords)
        }
        new_mod = tuple(
            m.substitute(ring, images) for m in self.algebra.modulus
        )
        self.algebra = AffineAlgebra(ring, new_mod, asserted=self.algebra.asserted)
        self.ideals = {
            name: Ideal(
                self.algebra, tuple(g.substitute(ring, images) for g in J.gens)
            )
            for name, J in self.ideals.items()
        }
        return {"modulus": [str(m) for m in new_mod]}

    def cmd_check(self, kind, /, **flags):
        method = _method(self, "check_", kind)
        if not method:
            raise PreconditionError(f"unknown check {kind!r}")
        return _call(method, (), flags)

    def check_zariski_nagata(self, *, p, q, nmax=3):
        return check_local_zariski_nagata(self.ideal(p), self.ideal(q), _int(nmax))

    def check_main_a(self, *, p, q, nmax=2):
        return check_main_theorem_A(self.ideal(p), self.ideal(q), _int(nmax))

    def check_izumi_mult(self, *, q, fs):
        return check_uniform_izumi_multiplicity(
            self.ideal(q), [self.poly(f) for f in fs.split(";")]
        )

    def check_chevalley(self, *, p, q, nmax=2, A=0, B=0, C=1, E=1, e=1):
        return check_improved_chevalley(
            self.ideal(p), self.ideal(q), _int(nmax),
            A=_int(A), B=_int(B), C=_int(C), E=_int(E), e=_int(e),
        )

    def check_order_ideal_graded(self, *, F):
        return check_order_ideal_theorem_graded(self.algebra, self.poly(F))


def run(session, seed=0, budget=None, fail_fast=False, timings=False):
    """Execute a parsed session; returns (report dict, ok flag).

    budget is the number of reduction steps each command may spend, over
    all its Groebner computations together; without one, each top-level
    Groebner computation gets groebner.DEFAULT_BUDGET. A ring or ideal that
    does not build raises PreconditionError before any command runs; the
    error of a single command is recorded in its report entry. seed is
    read by nothing; it stays for callers that still pass it.
    """
    state = _Session(session)
    results = []
    ok = True
    for toks in session.commands:
        name, args = toks[0], toks[1:]
        entry = {"name": name, "args": args}
        start = time.monotonic()
        try:
            method = _method(state, "cmd_", name)
            if not method:
                raise PreconditionError(f"unknown command {name!r}")
            pos, flags = _split(args)
            with groebner.budget(budget) if budget is not None else nullcontext():
                result = _call(method, pos, flags)
            if name == "check":
                entry["verdict"] = result.verdict
                ok = ok and result.passed
                result = result.to_dict()
            entry["result"] = result
        except ReesvalError as exc:
            entry["error"] = str(exc)
            ok = False
            if fail_fast:
                results.append(entry)
                break
        finally:
            if timings:
                entry["timing_ms"] = round(1000 * (time.monotonic() - start), 3)
        results.append(entry)
    report = {
        "version": REPORT_VERSION,
        "ring": session.ring,
        "commands": results,
    }
    return report, ok


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="reesval",
        description="run a commutative-algebra session file and report results",
    )
    parser.add_argument("session", help="path to a session file")
    parser.add_argument("--budget", type=int, default=None,
                        help="reduction steps each command may spend")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the JSON report here")
    parser.add_argument("--fail-fast", action="store_true")
    parser.add_argument("--timings", action="store_true",
                        help="include timing fields (breaks byte-reproducibility)")
    args = parser.parse_args(argv)

    try:
        if args.budget is not None and args.budget < 1:
            raise PreconditionError(f"--budget must be at least 1, got {args.budget}")
        with open(args.session, encoding="utf-8") as fh:
            text = fh.read()
        report, ok = run(
            parse_session(text), budget=args.budget,
            fail_fast=args.fail_fast, timings=args.timings,
        )
    except (OSError, UnicodeDecodeError, ReesvalError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    blob = json.dumps(report, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(blob + "\n")
    print(blob)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
