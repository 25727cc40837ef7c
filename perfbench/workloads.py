"""The benchmark's workloads: seeded inputs, the calls timed, and their checks.

A workload turns a seed into input texts. Each pass rebuilds every ring,
ideal and algebra from those texts and calls reesval's public entry points
once per item; `Ideal.gb()`, `AffineAlgebra.modulus_gb()` and
`symbolic._CACHE` would otherwise carry answers from one pass to the next.
Only the call is timed. The check that follows it compares the answer with
a reference that does not come from the code path under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import product
from typing import Callable

from refcheck import (
    parse_terms,
    poly_add,
    poly_mul,
    poly_str,
    standard_monomial_count,
    vanishes_on_monomial_curve,
)

# The primariness screens in symbolic_power draw their probes from the seed
# given to cli.run, and the probes decide how much work a screen does: over
# seeds 0..11, text 2 of the session took from 1.5 s to 11 s. The session
# therefore always runs under the repository's reference seed (the one the
# determinism acceptance test uses), and the benchmark seed varies the
# names, the izumi polynomials and nothing that changes the work by that much.
SESSION_RUN_SEED = 7

PAPER_TEXT = """\
ring {{ vars: {a} {b} {c}; field: QQ; mod: {a}*{b} + {c}^3; order: grevlex;
       assert: normal domain }}
ideal m = {a}, {b}, {c}
ideal p = {a}, {c}
cmd: gb m
cmd: multiplicity
cmd: multiplicity --f {a}
cmd: ord m {a}*{b} --nmax 6
cmd: rees m
cmd: length-table m 6 --f {a}
cmd: symbolic-power p 2
cmd: check main-a --p p --q m --nmax 3
cmd: check izumi-mult --q m --fs {fs}
cmd: check chevalley --p p --q m --nmax 3 --C 3 --E 2 --e 2 --A 1 --B 1
"""

# P is the prime of the monomial curve (t^3, t^4, t^5).
CURVE_TEXT = """\
ring {{ vars: {a} {b} {c}; field: QQ; order: grevlex }}
ideal P = {b}^2 - {a}*{c}, {a}^2*{b} - {c}^2, {a}^3 - {b}*{c}
cmd: symbolic-power P 2 --separator {a}
cmd: symbolic-power P 3 --separator {a}
"""
CURVE_WEIGHTS = (3, 4, 5)

# Elements of the maximal ideal of k[a,b,c]/(ab + c^3) with small order;
# each satisfies e(R/f) <= 3 * ord_m(f) with ord_m(f) <= 2. Alone, each
# costs 1.7-2.7 s of text 1, so the seed orders all of them rather than
# picking some; symbolic powers of m are cached across the list, so the
# order leaves the work unchanged.
IZUMI_POOL = ("{a}", "{b}", "{c}", "{c}^2", "{a}+{c}", "{a}*{b}")

GF_PRIME = 32003

# Lead terms of each reduced basis cut out a zero-dimensional quotient.
# The expected sizes are known facts about these systems: cyclic-5 has
# 70 solutions and a 20-element grevlex basis, katsura-5 has 2^5 = 32
# solutions and a 22-element basis.
GB_EXPECTED = {"cyclic5": (20, 70), "katsura5": (22, 32)}

STAIRCASE = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1))
STAIRCASE_E = 8
SAMPLER_N = 6  # shortest table that can show three equal third differences
GRID_MULTIPLES = (1, 2)  # membership is tested in n * NP(I) for these n
# One seeded ideal (x^a, y^b, x^i*y^j) per pure-power pair (a, b): the pair
# sets most of the cost (0.06 s for (2, 2) to 0.1-0.3 s for (4, 4)) and the
# seed picks the mixed generator, so every pass does about the same work.
PURE_POWERS = [(a, b) for a in (2, 3, 4) for b in (2, 3, 4)]


@dataclass
class Item:
    """One unit of work: `call` is timed, `check` returns an error or None."""

    name: str
    call: Callable
    check: Callable


class Workload:
    name = ""

    def make_inputs(self, seed):
        raise NotImplementedError

    def parse(self, rv, inputs):
        """Parse every input text; part of set-up."""
        raise NotImplementedError

    def items(self, inputs):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# session: cli.run on two session texts


def _names(rng, base):
    return dict(zip("abc", rng.sample(base, len(base))))


def _check_session_report(report, ok, expect):
    if not ok:
        bad = [c for c in report["commands"] if "error" in c or c.get("verdict") == "fail"]
        return f"run() reported failure: {bad[:1]}"
    for c in report["commands"]:
        cert = c.get("result", {}).get("certificate")
        if cert is not None and cert["status"] != "exact":
            return f"{c['name']} {c['args']}: certificate status {cert['status']}"
        if c["name"] == "check" and c["verdict"] != "pass":
            return f"check {c['args'][0]}: verdict {c['verdict']}"
    return expect(report["commands"])


def _expect_paper(names):
    a, b, c = names["a"], names["b"], names["c"]
    var_names = (a, b, c)
    # e(R) = 2 and e(R/a) = 3 for the A2 singularity ab + c^3 = 0; in R,
    # ab = -c^3 lies in m^3 and not in m^4, so ord_m(ab) = 3; p^(2) = (a, c^2)
    # since b is a unit at p and a = -c^3/b there.
    want = [
        ("gb", {"basis": sorted([a, b, c])}),
        ("multiplicity", {"e": 2}),
        ("multiplicity", {"e": 3}),
        ("ord", {"ord": 3, "confirmed": True}),
    ]
    rees_relation = {(1, 1, 0, 0): 1, (0, 0, 3, 1): 1}
    sym_p2 = [{(1, 0, 0): 1}, {(0, 0, 2): 1}]

    def expect(cmds):
        for (name, result), cmd in zip(want, cmds):
            got = cmd["result"]
            if name == "gb":
                got = {"basis": sorted(got["basis"])}
            if got != result:
                return f"{name} {cmd['args']}: got {got}, want {result}"
        rees = cmds[4]["result"]
        rels = [parse_terms(r, rees["variables"]) for r in rees["relations"]]
        if rees["variables"] != ["y1", "y2", "y3", "u"] or rels != [rees_relation]:
            return f"rees: got {rees}"
        table = cmds[5]["result"]
        if table["e"] != 3 or not table["stabilized"]:
            return f"length-table: got e={table['e']} stabilized={table['stabilized']}"
        gens = [parse_terms(g, var_names) for g in cmds[6]["result"]["generators"]]
        if sorted(gens, key=sorted) != sorted(sym_p2, key=sorted):
            return f"symbolic-power p 2: got {cmds[6]['result']['generators']}"
        return None

    return expect


def _expect_curve(names):
    var_names = (names["a"], names["b"], names["c"])

    def expect(cmds):
        for cmd, n in zip(cmds, (2, 3)):
            gens = [parse_terms(g, var_names) for g in cmd["result"]["generators"]]
            for g, text in zip(gens, cmd["result"]["generators"]):
                if not vanishes_on_monomial_curve(g, CURVE_WEIGHTS, n):
                    return f"P^({n}) generator {text} does not vanish to order {n}"
            if n == 2 and not any(sum(e) < 4 for g in gens for e in g):
                # every generator of P has all its terms in degree >= 2, so
                # every element of P^2 has all its terms in degree >= 4
                return "P^(2) has no element outside P^2"
        return None

    return expect


class Session(Workload):
    """`cli.run` on the paper session and the t^3, t^4, t^5 curve session."""

    name = "session"

    def make_inputs(self, seed):
        rng = random.Random(seed)
        paper = _names(rng, ["x1", "x2", "x3"])
        fs = ";".join(f.format(**paper) for f in rng.sample(IZUMI_POOL, len(IZUMI_POOL)))
        curve = _names(rng, ["x", "y", "z"])
        return [
            ("paper", PAPER_TEXT.format(fs=fs, **paper), _expect_paper(paper)),
            ("curve", CURVE_TEXT.format(**curve), _expect_curve(curve)),
        ]

    def parse(self, rv, inputs):
        return [rv.cli.parse_session(text) for _, text, _ in inputs]

    def items(self, inputs):
        return [self._item(name, text, expect) for name, text, expect in inputs]

    @staticmethod
    def _item(name, text, expect):
        first = []

        def call(rv):
            # each CLI invocation starts with an empty symbolic-power cache
            rv.symbolic.clear_cache()
            return rv.cli.run(rv.cli.parse_session(text), seed=SESSION_RUN_SEED)

        def check(out):
            report, ok = out
            blob = json.dumps(report, indent=2, sort_keys=True)
            if not first:
                first.append(blob)
            elif blob != first[0]:
                return "report differs from the first pass's report"
            return _check_session_report(report, ok, expect)

        return Item(name, call, check)


# ---------------------------------------------------------------------------
# gb_qq, gb_fp: buchberger on cyclic-5 and katsura-5


def cyclic(n):
    """Cyclic-n as dict polynomials in n variables."""
    polys = []
    for d in range(1, n):
        f = {}
        for i in range(n):
            e = [0] * n
            for k in range(d):
                e[(i + k) % n] += 1
            f = poly_add(f, {tuple(e): 1})
        polys.append(f)
    polys.append({(1,) * n: 1, (0,) * n: -1})
    return polys


def katsura(n):
    """Katsura-n as dict polynomials in the n + 1 variables u0..un."""

    def u(i):
        i = abs(i)
        if i > n:
            return {}
        e = [0] * (n + 1)
        e[i] = 1
        return {tuple(e): 1}

    polys = []
    for m in range(n):
        f = {}
        for l in range(-n, n + 1):
            f = poly_add(f, poly_mul(u(l), u(m - l)))
        polys.append(poly_add(f, {k: -c for k, c in u(m).items()}))
    f = {(0,) * (n + 1): -1}
    for l in range(-n, n + 1):
        f = poly_add(f, u(l))
    polys.append(f)
    return polys


SYSTEMS = {"cyclic5": (cyclic, 5, 5), "katsura5": (katsura, 5, 6)}


class GroebnerSystems(Workload):
    """`groebner.buchberger` on cyclic-5 and katsura-5 in grevlex."""

    def __init__(self, name, prime):
        self.name = name
        self.prime = prime

    def make_inputs(self, seed):
        rng = random.Random(seed)
        out = []
        for system, (make, n, nvars) in SYSTEMS.items():
            names = [f"x{i}" for i in range(nvars)]
            rng.shuffle(names)
            out.append((system, tuple(names), [poly_str(f, names) for f in make(n)]))
        return out

    def _build(self, rv, names, texts):
        field = rv.poly.QQ if self.prime is None else rv.poly.PrimeField(self.prime)
        ring = rv.poly.PolyRing(names, field, rv.poly.GrevLex())
        return [ring.parse(t) for t in texts]

    def parse(self, rv, inputs):
        return [self._build(rv, names, texts) for _, names, texts in inputs]

    def items(self, inputs):
        return [self._item(*spec) for spec in inputs]

    def _item(self, system, names, texts):
        size, solutions = GB_EXPECTED[system]

        def call(rv):
            return rv.groebner.buchberger(self._build(rv, names, texts))

        def check(G):
            leads = [g.lead_exp for g in G]
            count = standard_monomial_count(leads)
            if len(G) != size or count != solutions:
                return f"{len(G)} elements, {count} standard monomials"
            return None

        return Item(system, call, check)


# ---------------------------------------------------------------------------
# monomial: two routes to e(I) and to integral-closure membership


class Monomial(Workload):
    """m-primary monomial ideals: sampler vs volume, facets vs Caratheodory."""

    name = "monomial"

    def make_inputs(self, seed):
        rng = random.Random(seed)
        items = [("staircase", ("x", "y", "z"), STAIRCASE)]
        for a, b in PURE_POWERS:
            mixed = (rng.randrange(1, a), rng.randrange(1, b))
            items.append((f"plane{a}{b}", ("x", "y"), ((a, 0), (0, b), mixed)))
        return items

    @staticmethod
    def _build(rv, names, exps):
        ring = rv.poly.PolyRing(names, rv.poly.QQ, rv.poly.GrevLex())
        algebra = rv.rings.AffineAlgebra(ring)
        gens = tuple(ring.parse(poly_str({e: 1}, names)) for e in exps)
        return algebra, rv.ideals.Ideal(algebra, gens)

    def parse(self, rv, inputs):
        return [self._build(rv, names, exps) for _, names, exps in inputs]

    def items(self, inputs):
        return [self._item(*spec) for spec in inputs]

    def _item(self, name, names, exps):
        nvars = len(names)
        hi = [max(e[i] for e in exps) for i in range(nvars)]
        grid = [
            (p, n)
            for n in GRID_MULTIPLES
            for p in product(*(range(n * h + 1) for h in hi))
        ]

        def call(rv):
            algebra, I = self._build(rv, names, exps)
            table = rv.multiplicity.length_sampler(algebra, I, N=SAMPLER_N)
            sampled = rv.multiplicity.multiplicity_from_table(table, nvars)
            volume = rv.monomial.monomial_multiplicity(I)
            newton = rv.monomial.newton_polyhedron(I)
            oracle = rv.monomial.membership_oracle_caratheodory
            members = [
                (newton.contains(p, n), oracle(list(exps), nvars, p, n)) for p, n in grid
            ]
            return sampled, volume, members

        def check(out):
            (e_sampled, stabilized), e_volume, members = out
            if not stabilized or e_sampled != e_volume:
                return f"e {e_sampled} (stabilized {stabilized}) vs {e_volume}"
            if exps == STAIRCASE and e_volume != STAIRCASE_E:
                return f"e = {e_volume}, want {STAIRCASE_E}"
            bad = [g for g, (x, y) in zip(grid, members) if x != y]
            if bad:
                return f"facet and Caratheodory membership differ at {bad[:3]}"
            return None

        return Item(name, call, check)


WORKLOADS = {
    w.name: w
    for w in (
        Session(),
        GroebnerSystems("gb_qq", None),
        GroebnerSystems("gb_fp", GF_PRIME),
        Monomial(),
    )
}
