"""Acceptance gate: one test per criterion, one printed verdict line each.

Every expected value here is either trivial (definitional) or was derived
by an independent route (length sampler vs graded route, facet criterion
vs the Caratheodory oracle, hand-checked staircases).
"""

import json
import random
from itertools import product

import pytest

from reesval import (
    AffineAlgebra,
    GrevLex,
    Lex,
    PolyRing,
    QQ,
    buchberger,
    check_improved_chevalley,
    check_main_theorem_A,
    check_uniform_izumi_multiplicity,
    extended_rees_presentation,
    find_min_artin_rees,
    find_min_briancon_skoda,
    length_sampler,
    lift_to_rees,
    local_multiplicity_via_gr,
    membership_oracle_caratheodory,
    monomial_multiplicity,
    multiplicity_from_table,
    multiplicity_graded,
    newton_polyhedron,
    normal_form,
    rees_valuations_monomial,
    symbolic_order_along,
    symbolic_power,
    verify_exceptional_certificate,
)
from reesval.cli import parse_session, run
from reesval.ideals import Ideal, kernel_of_map
from reesval.multiplicity import krull_dim
from reesval.verify import graded_multiplicity_of_closure

from conftest import _exps_ideal


def _verdict(number, label, ok):
    print(f"ACCEPTANCE {number:02d} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {label}"


@pytest.fixture(scope="module")
def paper():
    ring = PolyRing(("x1", "x2", "x3"), QQ, GrevLex())
    x1, x2, x3 = ring.gens()
    R = AffineAlgebra(ring, (x1 * x2 + x3**3,), asserted=("normal", "domain"))
    m = Ideal(R, (x1, x2, x3))
    p = Ideal(R, (x1, x3))
    pres = extended_rees_presentation(R, m)
    alg = pres.algebra
    u, y1, y2 = alg.ring.gen("u"), alg.ring.gen("y1"), alg.ring.gen("y2")
    return {
        "R": R,
        "m": m,
        "p": p,
        "pres": pres,
        "Q1": Ideal(alg, (u, y1)),
        "Q2": Ideal(alg, (u, y2)),
    }


def test_acceptance_01_groebner_engine():
    R = PolyRing(("x", "y", "z"), QQ, Lex())
    x, y, z = R.gens()
    G = buchberger([x**2 - y, x**3 - z])
    exact = set(G) == {x**2 - y, x * y - z, x * z - y**2, y**3 - z**2}

    rng = random.Random(1234)
    ring = PolyRing(("x", "y", "z"), QQ, GrevLex())
    path_independent = True
    for _ in range(50):
        gens = []
        for _ in range(2):
            d = {
                tuple(rng.randrange(3) for _ in range(3)): rng.randint(-3, 3)
                for _ in range(3)
            }
            g = ring.poly_from_dict(
                {e: QQ.coerce(c) for e, c in d.items() if c}
            )
            if not g.is_zero():
                gens.append(g)
        if not gens:
            continue
        basis = buchberger(gens)
        f = ring.poly_from_dict(
            {
                tuple(rng.randrange(4) for _ in range(3)): QQ.coerce(rng.randint(1, 4))
                for _ in range(5)
            }
        )
        remainders = {
            normal_form(f, basis, selector=sel).terms
            for sel in (lambda c: c[0], lambda c: c[-1], lambda c: rng.choice(c))
        }
        if len(remainders) != 1:
            path_independent = False
            break
    _verdict(1, "Groebner engine", exact and path_independent)


def test_acceptance_02_valuation_criterion_vs_caratheodory():
    rng = random.Random(777)
    disagreements = 0
    checked = 0
    for _ in range(20):
        nvars = rng.choice([2, 3])
        gens = [
            tuple(rng.randrange(5) for _ in range(nvars))
            for _ in range(rng.randint(2, 4))
        ]
        gens = [g for g in gens if sum(g) > 0] or [(1,) * nvars]
        np_ = newton_polyhedron(_exps_ideal(gens, nvars))
        for e in product(range(13), repeat=nvars):
            if sum(e) > 12:
                continue
            for n in (1, 2, 3):
                checked += 1
                if np_.contains(e, n) != membership_oracle_caratheodory(
                    gens, nvars, e, n
                ):
                    disagreements += 1
    _verdict(
        2,
        f"facet criterion == Caratheodory oracle on {checked} memberships",
        disagreements == 0 and checked > 10000,
    )


def test_acceptance_03_paper_worked_example(paper):
    pres = paper["pres"]
    ring = pres.algebra.ring
    ok = ring.names == ("y1", "y2", "y3", "u")
    y1, y2, y3, u = ring.gens()
    ok = ok and pres.algebra.modulus == (y1 * y2 + u * y3**3,)
    ok = ok and verify_exceptional_certificate(
        pres, (paper["Q1"], paper["Q2"]), (1, 1)
    )
    ok = ok and local_multiplicity_via_gr(paper["R"]) == 2
    eS = graded_multiplicity_of_closure(paper["R"])
    ok = ok and eS == 3
    _verdict(3, "paper worked example", ok)


def test_acceptance_04_order_ideal_theorem(paper):
    R, m = paper["R"], paper["m"]
    x1 = R.ring.gen("x1")
    via_gr = local_multiplicity_via_gr(R, x1)
    table = length_sampler(R, m, f=x1, N=5)
    dim = krull_dim(Ideal(R, (x1,)))
    via_table, stabilized = multiplicity_from_table(table, dim)
    # second differences of the table must have stabilized by n = 5
    second_diffs = [t[1] for t in table]
    for _ in range(2):
        second_diffs = [b - a for a, b in zip(second_diffs, second_diffs[1:])]
    nu1 = symbolic_order_along(paper["Q1"], lift_to_rees(paper["pres"], x1))
    nu2 = symbolic_order_along(paper["Q2"], lift_to_rees(paper["pres"], x1))
    d = [
        multiplicity_graded(
            AffineAlgebra(
                paper["pres"].algebra.ring,
                paper["pres"].algebra.modulus + Q.gens,
            )
        )
        for Q in (paper["Q1"], paper["Q2"])
    ]
    ok = (
        via_gr == 3
        and via_table == 3
        and stabilized
        and second_diffs[-1] == second_diffs[-2] == 0
        and (nu1, nu2) == (2, 1)
        and d == [1, 1]
        and nu1 * d[0] + nu2 * d[1] == 3
    )
    _verdict(4, "order ideal theorem instance", ok)


def test_acceptance_05_izumi_tightness(paper):
    R, m, pres = paper["R"], paper["m"], paper["pres"]
    ring = R.ring
    x1, x2, x3 = ring.gens()
    eS = graded_multiplicity_of_closure(R)
    g = lift_to_rees(pres, x1)
    nu1 = symbolic_order_along(paper["Q1"], g)
    nu2 = symbolic_order_along(paper["Q2"], g)
    tight = nu1 == 2 and nu1 == (eS - 1) * nu2
    report = check_uniform_izumi_multiplicity(
        m, [x1, x2, x3, x3**2, x1 + x3, x1 * x2]
    )
    _verdict(5, "Izumi tightness and Theorem B inequality", tight and report.passed)


def test_acceptance_06_main_theorem_a_sweep(paper):
    R, m, p = paper["R"], paper["m"], paper["p"]
    report = check_main_theorem_A(p, m, 3)
    ok = report.passed and report.details["e(S)"] == 3
    # explicit GB containments of the stated chain, n = 1..3
    for n in (1, 2, 3):
        big = symbolic_power(p, 3 * n + 1)[0]
        chain = symbolic_power(p, 6 * n)[0]
        mn = symbolic_power(m, n)[0]
        ok = ok and mn.contains_ideal(big) and big.contains_ideal(chain)
    _verdict(6, "Main Theorem A sweep", ok)


def test_acceptance_07_symbolic_powers():
    pring = PolyRing(("x", "y", "z"), QQ, GrevLex())
    palg = AffineAlgebra(pring)
    x, y, z = pring.gens()
    P = Ideal(palg, (x, y))
    ok = all(
        symbolic_power(P, n)[0].equals(P.power(n)) for n in range(1, 5)
    )
    tring = PolyRing(("t",), QQ, GrevLex())
    t = tring.gen("t")
    curve = kernel_of_map(("x", "y", "z"), AffineAlgebra(tring), [t**3, t**4, t**5])
    alg = curve.algebra
    p2, cert = symbolic_power(curve, 2, separator=alg.ring.gen("x"))
    sq = curve.power(2)
    strict = p2.contains_ideal(sq) and not sq.contains_ideal(p2)
    _verdict(
        7,
        f"symbolic powers (curve verdict: containment strict = {strict})",
        ok and cert["status"] == "exact" and strict,
    )


def test_acceptance_08_multiplicity_cross_checks():
    ring = PolyRing(("x", "y"), QQ, GrevLex())
    alg = AffineAlgebra(ring)
    x, y = ring.gens()
    cases = [
        ((x**2, y**3), 6),
        ((x**2, x * y, y**2), 4),
        ((x, y), 1),
    ]
    ok = True
    for gens, expected in cases:
        I = Ideal(alg, gens)
        volume = monomial_multiplicity(I)
        table = length_sampler(alg, I, N=6)
        sampled, stabilized = multiplicity_from_table(table, 2)
        ok = ok and volume == sampled == expected and stabilized
    # Corollary identity on (x^2, y^3): single valuation, d = 1
    I = Ideal(alg, (x**2, y**3))
    vals = rees_valuations_monomial(I)
    e_I = monomial_multiplicity(I)
    ok = ok and len(vals) == 1 and e_I == sum(v.value_on_ideal * 1 for v in vals)
    _verdict(8, "multiplicity cross-checks", ok)


def test_acceptance_09_bound_finders(paper):
    ring = PolyRing(("x", "y"), QQ, GrevLex())
    alg = AffineAlgebra(ring)
    x, y = ring.gens()
    B = find_min_briancon_skoda(Ideal(alg, (x**2, y**3)), 6)
    ok = B == 1
    fixtures = [
        (x, Ideal(alg, (x**2, y))),
        (y, Ideal(alg, (x, y**2))),
        (x + y, Ideal(alg, (x, y))),
    ]
    for c, I in fixtures:
        A = find_min_artin_rees(c, I, 4)
        ok = ok and A is not None and A <= 4
    report = check_improved_chevalley(
        paper["p"], paper["m"], 3, A=1, B=1, C=3, E=2, e=2
    )
    ok = (
        ok
        and report.passed
        and report.details["C_emp"] is not None
        and report.details["formula_constant"] >= report.details["C_emp"]
    )
    _verdict(9, "bound finders", ok)


FIXTURE_SUITE = """
ring { vars: x1 x2 x3; field: QQ; mod: x1*x2 + x3^3; order: grevlex;
       assert: normal domain }
ideal m = x1, x2, x3
ideal p = x1, x3
cmd: gb m
cmd: multiplicity
cmd: multiplicity --f x1
cmd: ord m x1*x2 --nmax 6
cmd: rees m
cmd: length-table m 6 --f x1
cmd: symbolic-power p 2
cmd: check main-a --p p --q m --nmax 2
cmd: check izumi-mult --q m --fs x1;x3^2
cmd: check chevalley --p p --q m --nmax 2 --C 3 --E 2 --e 2 --A 1 --B 1
"""


def test_acceptance_10_determinism():
    blobs = []
    for _ in range(2):
        report, ok = run(parse_session(FIXTURE_SUITE))
        assert ok
        blobs.append(json.dumps(report, indent=2, sort_keys=True))
    _verdict(10, "byte-identical reports", blobs[0] == blobs[1])
