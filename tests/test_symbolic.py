import json
import random

import pytest

from reesval import (
    AffineAlgebra,
    GrevLex,
    PolyRing,
    QQ,
    extended_rees_presentation,
    lift_to_rees,
    ord_at,
    symbolic_order_along,
    symbolic_power,
)
from reesval import groebner, symbolic
from reesval.cli import main, parse_session, run
from reesval.errors import BudgetExceededError, PreconditionError
from reesval.ideals import Ideal, kernel_of_map


def curve_345():
    tring = PolyRing(("t",), QQ, GrevLex())
    t = tring.gen("t")
    P = kernel_of_map(("x", "y", "z"), AffineAlgebra(tring), [t**3, t**4, t**5])
    return P.algebra, P


def test_variable_prime_symbolic_equals_ordinary(poly_xyz):
    x, y, z = poly_xyz.ring.gens()
    P = Ideal(poly_xyz, (x, y))
    for n in range(1, 5):
        power, cert = symbolic_power(P, n)
        assert cert["status"] == "exact"
        assert power.equals(P.power(n))


def test_symbolic_power_n1_is_the_prime(paper_ring):
    x1, x3 = paper_ring.ring.gen("x1"), paper_ring.ring.gen("x3")
    P = Ideal(paper_ring, (x1, x3))
    power, cert = symbolic_power(P, 1)
    assert power.equals(P) and cert["status"] == "exact"


def test_curve_prime_strict_containment():
    alg, P = curve_345()
    x = alg.ring.gen("x")
    p2, cert = symbolic_power(P, 2, separator=x)
    assert cert["status"] == "exact"
    sq = P.power(2)
    assert p2.contains_ideal(sq)
    assert not sq.contains_ideal(p2)  # strictly bigger


def test_separator_none_is_refused():
    # saturating by nothing would certify the unsaturated P^2, which is not
    # P^(2) for the curve prime (test above)
    _, P = curve_345()
    with pytest.raises(PreconditionError, match="separator"):
        symbolic_power(P, 2, separator=None)


def test_separator_text_is_refused():
    # the CLI parses a separator's text; the library takes a polynomial
    _, P = curve_345()
    with pytest.raises(PreconditionError, match="separator"):
        symbolic_power(P, 2, separator="x")


def test_symbolic_power_lives_in_the_primes_algebra(paper_ring):
    x1, x3 = paper_ring.ring.gen("x1"), paper_ring.ring.gen("x3")
    P = Ideal(paper_ring, (x1, x3))
    for n in range(4):
        assert symbolic_power(P, n)[0].algebra is paper_ring


CURVE_UNIT_SEPARATOR = """\
ring { vars: x y z; field: QQ; order: grevlex; assert: normal domain }
ideal P = y^2 - x*z, x^2*y - z^2, x^3 - y*z
cmd: symbolic-power P 2 --separator x+1
"""


@pytest.mark.parametrize("seed", [0, 7])
def test_screen_catches_separator_unit_at_embedded_point(seed):
    # x+1 is a unit at the origin, where the curve is singular, so it is not
    # in rad(J_{R/P}) and saturating by it leaves the embedded (x, y, z)-
    # primary component of P^2 in place; the separator proof refuses it
    # whatever seed the caller passes, since run reads none
    report, ok = run(parse_session(CURVE_UNIT_SEPARATOR), seed=seed)
    assert ok
    assert report["commands"][0]["result"]["certificate"] == {
        "separator": "x + 1",
        "saturation_steps": 0,
        "radical_ok": True,
        "proven": False,
        "status": "upper bound candidate",
    }


# The surface is singular at (0, 0, 0) and at (0, 1, 0); P^2 has an embedded
# component at (0, 1, 0), where y is a unit. Since x*(y^2 - y) = z^3 and
# y^2 - y is not in P, x lies in P^(3) and P^(2) = (x, z^2).
SINGULAR_OFF_THE_ORIGIN = """\
ring { vars: x y z; field: QQ; mod: x*y^2 - x*y - z^3; order: grevlex;
       assert: normal domain }
ideal P = x, z
cmd: symbolic-power P 2
cmd: ord P x --nmax 4
cmd: symbolic-power P 2 --separator y
"""


def test_separator_is_proven_off_the_origin(tmp_path, capsys):
    path = tmp_path / "singular.session"
    path.write_text(SINGULAR_OFF_THE_ORIGIN)
    assert main([str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    power, order, by_y = (c["result"] for c in report["commands"])
    assert power["generators"] == ["x", "z^2"]
    assert power["certificate"]["status"] == "exact"
    assert order == {"ord": 3, "confirmed": True}
    # y is not in rad(J_R): it leaves the component at (0, 1, 0) in place
    assert by_y["generators"] == ["z^2", "x*z", "x*y - x", "x^2"]
    assert by_y["certificate"]["proven"] is False
    assert by_y["certificate"]["status"] == "upper bound candidate"


def test_auto_separator_needs_recognizable_shape():
    # "auto" refuses a prime it cannot prove a separator for
    cases = [
        # the Whitney umbrella: J_R = (x, y^2, y*z) + M lies in P = (x, y)
        (
            "vars: x y z; mod: x^2 - y^2*z; assert: domain",
            "no proven separator: P lies in the singular locus of R",
        ),
        # the Jacobian criterion reads the singular locus of a domain only
        (
            "vars: x y z; mod: x*z - y*z",
            "no proven separator: R is not asserted a domain",
        ),
    ]
    for ring, error in cases:
        session = f"ring {{ {ring} }}\nideal P = x, y\ncmd: symbolic-power P 2\n"
        report, ok = run(parse_session(session))
        assert not ok and report["commands"][0]["error"] == error


def test_two_proven_separators_give_one_answer():
    alg, P = curve_345()
    x, y, _ = alg.ring.gens()
    for n in (2, 3):
        by_x, cert_x = symbolic_power(P, n, separator=x)
        by_y, cert_y = symbolic_power(P, n, separator=y)
        assert cert_x["proven"] and cert_y["proven"]
        assert by_x.gb() == by_y.gb()


def test_certificate_has_one_shape(paper_ring):
    x1, x3 = paper_ring.ring.gen("x1"), paper_ring.ring.gen("x3")
    P = Ideal(paper_ring, (x1, x3))
    for n in range(4):
        assert set(symbolic_power(P, n)[1]) == {
            "separator", "saturation_steps", "radical_ok", "proven", "status"
        }


def test_screen_saturation_depth_matches_colon(paper_ring):
    # g is a nonzerodivisor modulo I exactly when I : g = I, and exactly
    # when I : g^infinity has depth 0
    alg, P = curve_345()
    x = alg.ring.gen("x")
    x1, x3 = paper_ring.ring.gen("x1"), paper_ring.ring.gen("x3")
    p = Ideal(paper_ring, (x1, x3))
    cases = [
        (P.power(2).saturate(x)[0], ("x", "z", "x + 1", "y + 2*z^2")),
        (P.power(3).saturate(x)[0], ("x", "z", "x + 1", "y + 2*z^2")),
        (P.power(2), ("x", "z", "x + 1", "y + 2*z^2")),
        (p.power(2), ("x2", "x2 + 1", "x2 + 3*x1*x3")),
    ]
    verdicts = set()
    for I, probes in cases:
        for text in probes:
            g = I.algebra.ring.parse(text)
            passes = I.saturate(g)[1] == 0
            assert passes == I.quotient(g).equals(I)
            verdicts.add(passes)
    assert verdicts == {True, False}


def _not_prime(alg):
    # (x*y) asserted prime: x is proven by the Jacobian ideals, but
    # P^2 : x^infinity = (y^2), which the radical check finds outside rad(P)
    x, y, _ = alg.ring.gens()
    return Ideal(alg, (x * y,))


def test_checks_refuse_a_downgraded_symbolic_power(poly_xyz):
    with pytest.raises(PreconditionError, match="downgraded"):
        symbolic.exact_power(_not_prime(poly_xyz), 2)


def test_ord_at_refuses_a_downgraded_symbolic_power(poly_xyz):
    # f lies in P^(2) of the curve prime, and the proven separator reads it
    alg, P = curve_345()
    f = alg.ring.parse("x^5 + x*y^3 - 3*x^2*y*z + z^3")
    assert ord_at(P, f, nmax=3) == (2, True)
    # reading a downgraded power as exact would report ord 1
    x, y, _ = poly_xyz.ring.gens()
    with pytest.raises(PreconditionError, match="downgraded"):
        ord_at(_not_prime(poly_xyz), x * y, nmax=3)


def test_symbolic_powers_are_cached_on_the_prime_handle(paper_ring):
    x1, x3 = paper_ring.ring.gen("x1"), paper_ring.ring.gen("x3")
    P = Ideal(paper_ring, (x1, x3))
    first, _ = symbolic_power(P, 2)
    assert symbolic_power(P, 2)[0] is first
    assert symbolic_power(Ideal(paper_ring, P.gens), 2)[0] is not first


def test_cached_lower_powers_give_the_direct_saturation(paper_ring):
    # scrambled requests on one handle, each against a new handle that has
    # nothing cached below n and so saturates P^n itself
    x1, x3 = paper_ring.ring.gen("x1"), paper_ring.ring.gen("x3")
    alg, curve = curve_345()
    x, y, _ = alg.ring.gens()
    requests = [(Ideal(paper_ring, (x1, x3)), "auto", n) for n in (4, 6, 7, 12, 10, 18)]
    requests += [(curve, s, n) for n in (5, 2, 8, 3) for s in (x, y)]
    for P, separator, n in requests:
        got, cert = symbolic_power(P, n, separator=separator)
        want, want_cert = symbolic_power(Ideal(P.algebra, P.gens), n, separator=separator)
        assert got.gb() == want.gb(), (str(separator), n)
        assert got.gens == want.gens and cert == want_cert, (str(separator), n)


def test_curve_sweep_work_counts():
    # tripwire: S-pairs reduced and reduction steps behind P^(2)..P^(8) of
    # the curve prime by x on one handle, certificates included
    alg, P = curve_345()
    x = alg.ring.gen("x")
    with groebner.budget(groebner.DEFAULT_BUDGET) as work:
        for n in range(2, 9):
            symbolic_power(P, n, separator=x)
    assert (work.pairs, work.steps) == (563, 3830)


def test_containment_chain(paper_ring):
    x1, x3 = paper_ring.ring.gen("x1"), paper_ring.ring.gen("x3")
    P = Ideal(paper_ring, (x1, x3))
    powers = [symbolic_power(P, n)[0] for n in range(1, 5)]
    for n in range(1, 5):
        assert powers[n - 1].contains_ideal(P.power(n))
    for n in range(1, 4):
        assert powers[n - 1].contains_ideal(powers[n])


def test_symbolic_product_containment(paper_ring):
    x1, x3 = paper_ring.ring.gen("x1"), paper_ring.ring.gen("x3")
    P = Ideal(paper_ring, (x1, x3))
    cache = {n: symbolic_power(P, n)[0] for n in range(1, 5)}
    for a in range(1, 3):
        for b in range(1, 5 - a):
            assert cache[a + b].contains_ideal(cache[a].product(cache[b]))


def test_separator_must_avoid_prime(poly_xyz):
    x, y, _ = poly_xyz.ring.gens()
    P = Ideal(poly_xyz, (x, y))
    with pytest.raises(PreconditionError):
        symbolic_power(P, 2, separator=x)


def test_auto_separator_is_proven_in_every_dimension(poly_xyz):
    x, y, z = poly_xyz.ring.gens()
    # dim R/P = 2: y, the first variable outside P, is proven
    P = Ideal(poly_xyz, (x,))
    power, cert = symbolic_power(P, 2)
    assert cert["separator"] == "y" and cert["status"] == "exact"
    assert power.equals(P.power(2))


def test_ord_at_paper_values(paper_ring, paper_m):
    x1, x2, x3 = paper_ring.ring.gens()
    assert ord_at(paper_m, x1) == (1, True)
    assert ord_at(paper_m, x1 * x2) == (3, True)
    assert ord_at(paper_m, x3**2) == (2, True)
    with pytest.raises(PreconditionError):
        ord_at(paper_m, paper_ring.ring.zero)


def test_ord_nmax_flag(paper_ring, paper_m):
    x1 = paper_ring.ring.gen("x1")
    n, confirmed = ord_at(paper_m, x1**3, nmax=2)
    assert n == 2 and not confirmed
    # an empty sweep would report an unconfirmed order 0
    for nmax in (0, -3):
        with pytest.raises(PreconditionError, match=f"nmax must be at least 1, got {nmax}"):
            ord_at(paper_m, x1, nmax=nmax)


def test_ord_superadditive_random(paper_ring, paper_m):
    rng = random.Random(5)
    ring = paper_ring.ring
    exps = [e for e in ring.monomials_up_to_degree(2) if sum(e) > 0]
    pairs = 0
    while pairs < 30:
        f = ring.zero
        g = ring.zero
        for e in rng.sample(exps, 2):
            f = f + ring.monomial(e, rng.randint(1, 3))
        for e in rng.sample(exps, 2):
            g = g + ring.monomial(e, rng.randint(1, 3))
        if paper_ring.reduce(f).is_zero() or paper_ring.reduce(g).is_zero():
            continue
        pairs += 1
        of, _ = ord_at(paper_m, f, nmax=8)
        og, _ = ord_at(paper_m, g, nmax=8)
        ofg, _ = ord_at(paper_m, f * g, nmax=8)
        assert ofg >= of + og


def test_symbolic_order_along_paper_values(paper_ring, paper_m):
    pres = extended_rees_presentation(paper_ring, paper_m)
    alg = pres.algebra
    u, y1, y2 = alg.ring.gen("u"), alg.ring.gen("y1"), alg.ring.gen("y2")
    Q1 = Ideal(alg, (u, y1))
    Q2 = Ideal(alg, (u, y2))
    x1 = paper_ring.ring.gen("x1")
    g = lift_to_rees(pres, x1)
    assert symbolic_order_along(Q1, g) == 2
    assert symbolic_order_along(Q2, g) == 1
    assert symbolic_order_along(Q1, u) == 1
    assert symbolic_order_along(Q2, u) == 1


def test_symbolic_order_along_refuses_an_unconfirmed_order(poly_xy):
    # x^30 is still in (x)^(12), where the sweep stops
    x, _ = poly_xy.ring.gens()
    with pytest.raises(BudgetExceededError, match="exceeds 12"):
        symbolic_order_along(Ideal(poly_xy, (x,)), x**30)


def test_symbolic_order_along_height_screen(paper_ring, paper_m):
    pres = extended_rees_presentation(paper_ring, paper_m)
    alg = pres.algebra
    u, y1, y2 = alg.ring.gen("u"), alg.ring.gen("y1"), alg.ring.gen("y2")
    not_height_one = Ideal(alg, (u, y1, y2))
    with pytest.raises(PreconditionError):
        symbolic_order_along(not_height_one, u)


def test_explicit_separator_is_unproven_without_a_domain_assertion():
    # the Jacobian criterion needs the modulus prime, so a ring with a
    # modulus and no `assert: domain` proves no separator
    ring = PolyRing(("x", "y", "z"), QQ, GrevLex())
    x, y, z = ring.gens()
    P = Ideal(AffineAlgebra(ring, (x * y - z**2,)), (x, z))
    power, cert = symbolic_power(P, 2, separator=y)
    assert power.gens == (x, z**2)
    assert cert == {
        "separator": "y",
        "saturation_steps": 1,
        "radical_ok": True,
        "proven": False,
        "status": "upper bound candidate",
    }
