import random
from functools import reduce
from itertools import combinations_with_replacement, product
from operator import mul

import pytest

from reesval import (
    AffineAlgebra, Block, GrevLex, Lex, PolyRing, PrimeField, QQ, groebner, symbolic,
)
from reesval.cli import parse_session, run
from reesval.errors import BudgetExceededError, PreconditionError
from reesval.ideals import (
    ASSERTIONS,
    Ideal,
    eliminate,
    elimination_ring,
    kernel_of_map,
)
from reesval.poly import Polynomial


def test_containment_and_equality(poly_xy):
    x, y = poly_xy.ring.gens()
    I = Ideal(poly_xy, (x**2 - y,))
    assert I.contains_poly((x**2 - y) * (x + y))
    assert not I.contains_poly(x)
    J = Ideal(poly_xy, (y - x**2, x**3 - x * y))
    assert I.equals(J)


def test_power(poly_xy):
    x, y = poly_xy.ring.gens()
    m = Ideal(poly_xy, (x, y))
    m2 = m.power(2)
    assert m2.contains_poly(x * y) and m2.contains_poly(x**2)
    assert not m2.contains_poly(x)
    assert m.power(0).contains_poly(poly_xy.ring.one)
    with pytest.raises(PreconditionError):
        m.power(-1)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=str)
def test_power_layers_match_the_products_folded_directly(field):
    # cross-check: each layer is built from the one below and cached on the
    # handle; the independent route folds every n-fold product on its own,
    # in combinations_with_replacement order, with n asked in a shuffled order
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    R = PolyRing(("x", "y"), field, GrevLex())
    if field == QQ:
        coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    else:
        coeffs = st.integers(min_value=0, max_value=field.p - 1)
    exps = st.tuples(*[st.integers(min_value=0, max_value=2)] * 2)
    polys = st.dictionaries(exps, coeffs, max_size=3).map(
        lambda terms: R.poly_from_dict({e: field.coerce(c) for e, c in terms.items()})
    )

    def agrees(gens, seed):
        I = Ideal(AffineAlgebra(R), gens)
        for n in random.Random(seed).sample(range(5), 5):
            folded = combinations_with_replacement(gens, n)
            power = I.power(n)
            assert power.gens == tuple(reduce(mul, c, R.one) for c in folded), (gens, n)
            assert power is I.power(n) and power.algebra is I.algebra

    x, y = R.gens()
    agrees((), 0)
    agrees((R.zero, x, x, y - 1), 1)  # a zero generator and a repeated one
    settings = hypothesis.settings(derandomize=True, database=None, deadline=None)
    settings(hypothesis.given(st.lists(polys, max_size=4), st.integers(0, 99))(agrees))()


def test_intersection(poly_xy):
    x, y = poly_xy.ring.gens()
    I = Ideal(poly_xy, (x,))
    J = Ideal(poly_xy, (y,))
    K = I.intersect(J)
    assert K.equals(Ideal(poly_xy, (x * y,)))


def test_quotient_and_exactness(poly_xy):
    x, y = poly_xy.ring.gens()
    I = Ideal(poly_xy, (x * y, y**2))
    Q = I.quotient(y)
    assert Q.equals(Ideal(poly_xy, (x, y)))
    with pytest.raises(PreconditionError):
        I.quotient(poly_xy.ring.zero)


def test_quotient_in_quotient_ring(paper_ring):
    # in R = k[x]/(x1x2+x3^3): x1*x2 = -x3^3, so (x3^3) : x1 contains x2
    x1, x2, x3 = paper_ring.ring.gens()
    I = Ideal(paper_ring, (x3**3,))
    Q = I.quotient(x1)
    assert Q.contains_poly(x2)


def test_saturation(poly_xy):
    x, y = poly_xy.ring.gens()
    I = Ideal(poly_xy, (x**2 * y, x * y**2))
    sat, steps = I.saturate(x)
    assert sat.equals(Ideal(poly_xy, (y,)))
    assert steps == 2
    # saturating by a unit-free element already outside all components
    J = Ideal(poly_xy, (x,))
    sat2, steps2 = J.saturate(y)
    assert sat2.equals(J) and steps2 == 0


def test_saturation_in_quotient_ring(paper_ring):
    # in R = k[x]/(x1x2+x3^3): (x3^3, x1x3) = x1*(x2, x3), so x1 saturates it away
    x1, x2, x3 = paper_ring.ring.gens()
    sat, steps = Ideal(paper_ring, (x3**3, x1 * x3)).saturate(x1)
    assert sat.equals(Ideal(paper_ring, (x2, x3)))
    assert steps == 1


def _saturate_by_colons(I, f):
    """Independent route: colon by f until the chain I, I:f, I:f^2, ... stops."""
    current, depth = I, 0
    while True:
        nxt = current.quotient(f)
        if current.contains_ideal(nxt):
            return current, depth
        current, depth = nxt, depth + 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_saturation_matches_iterated_colons(poly_xyz, n):
    # P is the prime of the monomial curve (t^3, t^4, t^5)
    x, y, z = poly_xyz.ring.gens()
    P = Ideal(poly_xyz, (y**2 - x * z, x**2 * y - z**2, x**3 - y * z))
    Pn = P.power(n)
    sat, steps = Pn.saturate(x)
    ref, ref_steps = _saturate_by_colons(Pn, x)
    assert sat.equals(ref)
    assert steps == ref_steps


PAPER_SESSION = """\
ring { vars: x1 x2 x3; field: QQ; mod: x1*x2 + x3^3; order: grevlex; assert: normal domain }
ideal m = x1, x2, x3
ideal p = x1, x3
"""


@pytest.mark.parametrize("n", [4, 6])
def test_symbolic_power_reports_the_same_depth_whoever_cached_it(paper_ring, n):
    # check main-a at nmax 1 caches p^(4) and p^(6) (e(S) = 3) without
    # measuring their depths; symbolic-power then measures it on request
    def results(cmds):
        report, ok = run(parse_session(PAPER_SESSION + cmds))
        assert ok
        return [c["result"] for c in report["commands"]]

    cmd = f"cmd: symbolic-power p {n}\n"
    after = results("cmd: check main-a --p p --q m --nmax 1\n" + cmd)[1]
    (fresh,) = results(cmd)
    assert after == fresh
    x1, x2, x3 = paper_ring.ring.gens()
    separator = paper_ring.ring.parse(fresh["certificate"]["separator"])
    depth = _saturate_by_colons(Ideal(paper_ring, (x1, x3)).power(n), separator)[1]
    assert fresh["certificate"]["saturation_steps"] == depth > 0


def test_saturation_carries_its_reduced_basis_under_grevlex(paper_ring, poly_xyz):
    # cross-check: the basis a grevlex saturation presets on its handle is
    # the one buchberger builds from the handle's generators
    x1, x2, x3 = paper_ring.ring.gens()
    x, y, z = poly_xyz.ring.gens()
    P = Ideal(poly_xyz, (y**2 - x * z, x**2 * y - z**2, x**3 - y * z))
    cases = [
        (Ideal(paper_ring, (x3**3, x1 * x3)), x1),
        (Ideal(paper_ring, (x1, x3)).power(2), x2),
        (P.power(2), x),
        (P.power(3), x),
    ]
    for I, f in cases:
        sat, depth = I.saturate(f)
        assert depth > 0 and sat._gb == groebner.buchberger(sat.ambient_gens())
    # under lex the elimination reads the basis in another order, so the
    # saturation's handle builds its own
    lex = AffineAlgebra(PolyRing(("x", "y"), QQ, Lex()))
    a, b = lex.ring.gens()
    sat, depth = Ideal(lex, (a**2 * b, a * b**2)).saturate(a)
    assert depth == 2 and sat._gb is None
    assert sat.gb() == (b,)


def _saturate_by_elimination(I, f):
    """Independent route: the Rabinowitsch elimination (I + modulus,
    1 - t*f) intersected with k[x], its generators read in I's ring."""
    ring = I.algebra.ring
    tring = elimination_ring(ring.fresh_names("_t"), ring)
    t = tring.gens()[0]
    gens = [g.to_ring(tring) for g in I.ambient_gens()]
    return eliminate(gens + [tring.one - t * f.to_ring(tring)], ring)


def _record_saturations(monkeypatch):
    """Wrap Ideal.saturation so that each call's (I, f, result) lands in the
    list returned."""
    saturations, real = [], Ideal.saturation

    def recording(self, f):
        saturations.append((self, f, real(self, f)))
        return saturations[-1][2]

    monkeypatch.setattr(Ideal, "saturation", recording)
    return saturations


# the two session texts `perfbench/run.py --workload session --seed 3` runs
SEED_3_SESSION = (
    "ring { vars: x1 x3 x2; field: QQ; mod: x1*x3 + x2^3; order: grevlex;\n"
    "       assert: normal domain }\n"
    "ideal m = x1, x3, x2\n"
    "ideal p = x1, x2\n"
    "cmd: gb m\n"
    "cmd: multiplicity\n"
    "cmd: multiplicity --f x1\n"
    "cmd: ord m x1*x3 --nmax 6\n"
    "cmd: rees m\n"
    "cmd: length-table m 6 --f x1\n"
    "cmd: symbolic-power p 2\n"
    "cmd: check main-a --p p --q m --nmax 3\n"
    "cmd: check izumi-mult --q m --fs x1+x2;x2^2;x1;x2;x1*x3;x3\n"
    "cmd: check chevalley --p p --q m --nmax 3 --C 3 --E 2 --e 2 --A 1 --B 1\n",
    "ring { vars: y x z; field: QQ; order: grevlex }\n"
    "ideal P = x^2 - y*z, y^2*x - z^2, y^3 - x*z\n"
    "cmd: symbolic-power P 2 --separator y\n"
    "cmd: symbolic-power P 3 --separator y\n",
)

NODE_SESSION = (
    "ring { vars: x y z w; field: QQ; mod: x*y - z*w; order: grevlex; assert: normal domain }\n"
    "ideal m = x, y, z, w\n"
    "ideal p = x, z\n"
    "ideal q = x, y, z\n"
    "cmd: symbolic-power p 3\n"
    "cmd: symbolic-power q 3\n"
    "cmd: rees m\n"
    "cmd: check main-a --p q --q m --nmax 2\n"
)


@pytest.mark.parametrize(
    "texts, count", [(SEED_3_SESSION, 23), ((NODE_SESSION,), 7)], ids=["session", "node"]
)
def test_every_fixture_saturation_divides_a_basis(texts, count, monkeypatch):
    # cross-check: every saturation of the texts, run in one budget scope, is
    # by a variable of an ideal that positive weights grade: the paper ring's
    # primes under (2, 1, 1), its Rees lift, the projective closures, the
    # curve under (3, 4, 5) and the node. Each one reads its basis off a
    # divided basis and returns the elimination's generators
    saturations = _record_saturations(monkeypatch)
    with groebner.budget(groebner.DEFAULT_BUDGET) as work:
        assert all(run(parse_session(text))[1] for text in texts)
    assert len(saturations) == work.divided == count
    for I, f, sat in saturations:
        assert sat.gens == _saturate_by_elimination(I, f), (I, f)


def test_a_saturation_the_route_refuses_counts_no_divided_basis(paper_ring, monkeypatch):
    # no w >= 1 grades x^2 - x; a saturation by a polynomial that is not a
    # variable, as radical membership of x2 + x3 asks, is an elimination too
    x, y = PolyRing(("x", "y"), QQ, GrevLex()).gens()
    I = Ideal(AffineAlgebra(x.ring), (x**2 - x, x * y))
    x1, x2, x3 = paper_ring.ring.gens()
    J = Ideal(paper_ring, (x1, x3**2))
    saturations = _record_saturations(monkeypatch)
    with groebner.budget(groebner.DEFAULT_BUDGET) as work:
        assert I.saturation(x).gens == (y, x - 1)
        assert not J.radical_contains(x2 + x3)
    assert len(saturations) == 2 and work.divided == 0
    for I, f, sat in saturations:
        assert sat.gens == _saturate_by_elimination(I, f)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=str)
def test_divided_basis_matches_the_elimination(field):
    # cross-check on ideals graded by weights w in 1..4, in 2 to 4 variables,
    # with and without a modulus, in every order, saturated by any variable:
    # the same generators in the same order, carried as the basis under grevlex
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeffs = st.integers(-3, 3).filter(bool) if field == QQ else st.integers(1, field.p - 1)

    @st.composite
    def cases(draw):
        n = draw(st.integers(2, 4))
        w = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        order = draw(st.sampled_from([GrevLex(), Lex(), Block(1)]))
        ring = PolyRing(("a", "b", "c", "d")[:n], field, order)

        def homogeneous():
            degree = draw(st.integers(1, 6))
            exps = [
                e for e in product(*(range(degree // a + 1) for a in w))
                if sum(map(mul, w, e)) == degree
            ]
            hypothesis.assume(exps)
            terms = draw(st.dictionaries(st.sampled_from(exps), coeffs, min_size=1, max_size=3))
            return ring.poly_from_dict({e: field.coerce(c) for e, c in terms.items()})

        gens = [homogeneous() for _ in range(draw(st.integers(1, 3)))]
        modulus = [homogeneous()] if draw(st.booleans()) else []
        return AffineAlgebra(ring, modulus), gens, ring.gens()[draw(st.integers(0, n - 1))]

    grew = []

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @hypothesis.given(cases())
    def agrees(case):
        A, gens, x = case
        hypothesis.assume(not A.reduce(x).is_zero())
        I = Ideal(A, gens)
        with groebner.budget(groebner.DEFAULT_BUDGET) as work:
            sat = I.saturation(x)
        assert work.divided == 1
        assert sat.gens == _saturate_by_elimination(I, x), (A, I, x)
        assert (sat._gb == sat.gens) if A.ring.order == GrevLex() else sat._gb is None
        grew.append(not I.contains_ideal(sat))

    agrees()
    assert sum(grew) >= 10 and not all(grew)


def _record_calls(monkeypatch, owner, name):
    """Wrap owner.name so that each call's arguments land in the list returned."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_saturation_is_one_groebner_computation(poly_xy, monkeypatch):
    # the elimination is one basis; a divided basis is two, the one divided
    # and its grevlex re-basis. No w >= 1 grades x^2 - x, so (x^2 - x, xy)
    # by x takes the elimination
    x, y = poly_xy.ring.gens()
    for gens, route in (((x**2 * y, x * y**2), 2), ((x**2 - x, x * y), 1)):
        I = Ideal(poly_xy, gens)
        I.gb()
        calls = _record_calls(monkeypatch, groebner, "buchberger")
        with groebner.budget(groebner.DEFAULT_BUDGET) as work:
            I.saturate(x)
        assert len(calls) == work.calls == route
        assert work.divided == (route == 2)


def test_curve_power_saturation_work_count(poly_xyz):
    # tripwire, layer 4: P^8 : x^infinity of the curve prime, no power of it
    # cached, is a basis under the (3, 4, 5)-degree reverse lex order divided
    # by x, then its grevlex re-basis; as an elimination it was 1 call, 438
    # S-pairs and 3853 steps
    x, y, z = poly_xyz.ring.gens()
    P = Ideal(poly_xyz, (y**2 - x * z, x**2 * y - z**2, x**3 - y * z))
    P8 = P.power(8)
    with groebner.budget(groebner.DEFAULT_BUDGET) as work:
        P8.saturation(x)
    assert (work.calls, work.pairs, work.steps, work.divided) == (2, 84, 763, 1)


def test_saturation_depth_loop_draws_on_one_budget(poly_xyz, monkeypatch):
    # P^(2) is not P^3's saturation P^(3), so no power of x carries all of it
    # into P^3 and the depth loop never ends. Its membership tests share one
    # scope, which runs out
    x, y, z = poly_xyz.ring.gens()
    P = Ideal(poly_xyz, (y**2 - x * z, x**2 * y - z**2, x**3 - y * z))
    short = symbolic.symbolic_power(P, 2, separator=x)[0]
    monkeypatch.setattr(groebner, "DEFAULT_BUDGET", 20_000)
    real, tests = Ideal.contains_poly, []

    def tripwire(self, f):
        tests.append(f)
        if len(tests) > 2_000:
            raise AssertionError("the depth loop outran its budget")
        return real(self, f)

    monkeypatch.setattr(Ideal, "contains_poly", tripwire)
    with pytest.raises(BudgetExceededError, match="^reduction-step budget exhausted$"):
        P.power(3).saturation_depth(x, short)


def test_power_work_count(poly_xy, monkeypatch):
    # tripwire: Polynomial.__mul__ calls behind I^1..I^6 of (x^2, y^3, xy) on
    # one handle, each product one multiplication of a product one layer down
    x, y = poly_xy.ring.gens()
    I = Ideal(poly_xy, (x**2, y**3, x * y))
    calls = _record_calls(monkeypatch, Polynomial, "__mul__")
    for n in range(1, 7):
        I.power(n)
    assert len(calls) == 83


def test_symbolic_power_work_count(monkeypatch):
    # tripwire: Groebner computations behind two symbolic powers of the
    # t^3,t^4,t^5 curve prime, certificates (radical check, proof) included
    session = parse_session(
        "ring { vars: x y z; field: QQ; order: grevlex; assert: normal domain }\n"
        "ideal P = y^2 - x*z, x^2*y - z^2, x^3 - y*z\n"
        "cmd: symbolic-power P 2 --separator x\n"
        "cmd: symbolic-power P 3 --separator x\n"
    )
    calls = _record_calls(monkeypatch, groebner, "buchberger")
    with groebner.budget(groebner.DEFAULT_BUDGET) as work:
        report, ok = run(session)
    assert ok
    assert len(calls) == work.calls == 12


def test_two_separators_share_the_jacobian_ideal(monkeypatch):
    # tripwire: J_{R/P} and the bases of P^2 and P^3 are built once per
    # prime handle, however many separators are proven against it
    gens = ("y^2 - x*z", "x^2*y - z^2", "x^3 - y*z")
    session = parse_session(
        "ring { vars: x y z; field: QQ; order: grevlex; assert: normal domain }\n"
        f"ideal P = {', '.join(gens)}\n"
        + "".join(f"cmd: symbolic-power P {n} --separator {s}\n" for s in "xy" for n in (2, 3))
    )
    alg = AffineAlgebra(PolyRing(("x", "y", "z"), QQ, GrevLex()))
    P = Ideal(alg, tuple(map(alg.ring.parse, gens)))
    jacobian = frozenset(symbolic._jacobian_ideal(alg, P.gens, 1).ambient_gens())
    calls = _record_calls(monkeypatch, groebner, "buchberger")
    with groebner.budget(groebner.DEFAULT_BUDGET) as work:
        report, ok = run(session)
    assert ok
    inputs = [frozenset(gens) for gens, in calls]
    assert len(jacobian) == 12 and inputs.count(jacobian) == 1
    assert [inputs.count(frozenset(P.power(n).gens)) for n in (2, 3)] == [1, 1]
    assert len(calls) == work.calls == 18


def test_elimination(poly_xyz):
    x, y, z = poly_xyz.ring.gens()
    I = Ideal(poly_xyz, (x - y**2, z - y**3))
    E = I.eliminate({"y"})
    ering = E.algebra.ring
    a, c = ering.gen("x"), ering.gen("z")
    assert E.equals(Ideal(E.algebra, (a**3 - c**2,)))


def test_radical_membership(poly_xy, paper_ring, monkeypatch):
    x, y = poly_xy.ring.gens()
    I = Ideal(poly_xy, (x**2,))
    assert I.radical_contains(x)
    assert not I.radical_contains(y)
    assert I.radical_contains(x**5 * y)
    # in R = k[x]/(x1x2+x3^3): rad(x1, x3^2) = (x1, x3)
    x1, x2, x3 = paper_ring.ring.gens()
    J = Ideal(paper_ring, (x1, x3**2))
    eliminations = _record_calls(monkeypatch, Ideal, "saturation")
    assert J.radical_contains(x1 * x2)
    assert not eliminations  # a member of J is answered by its normal form
    assert J.radical_contains(x3) and not J.contains_poly(x3)
    assert not J.radical_contains(x2)
    assert len(eliminations) == 2


def test_kernel_of_map_twisted_cubic():
    tring = PolyRing(("t",), QQ, GrevLex())
    talg = AffineAlgebra(tring)
    t = tring.gen("t")
    K = kernel_of_map(("x", "y", "z"), talg, [t, t**2, t**3])
    ring = K.algebra.ring
    x, y, z = ring.gens()
    assert K.contains_poly(y - x**2)
    assert K.contains_poly(z - x**3)
    assert not K.contains_poly(x)


def test_unit_ideal_detection(poly_xy):
    x, y = poly_xy.ring.gens()
    I = Ideal(poly_xy, (x, x + 1))
    one = (poly_xy.ring.one,)
    assert I.gb() == one
    assert Ideal(poly_xy, (x**2, x * y - 1 + y)).gb() != one
    assert poly_xy.zero_ideal.gb() != one
    # the zero ring, as a session's `mod: 1` gives it
    ring = poly_xy.ring
    zero_ring = AffineAlgebra(ring, (ring.parse("1"),))
    assert zero_ring.zero_ideal.gb() == one
    assert Ideal(zero_ring, ()).gb() == one


def test_bases_are_tuples(poly_xy):
    x, y = poly_xy.ring.gens()
    assert isinstance(Ideal(poly_xy, (x**2 - y,)).gb(), tuple)
    assert Ideal(poly_xy, ()).gb() == ()
    assert Ideal(poly_xy, (poly_xy.ring.zero,)).gb() == ()
    # relations that are all zero eliminate to the zero ideal
    ering = elimination_ring(("t",), poly_xy.ring)
    assert eliminate([ering.zero, ering.zero], poly_xy.ring) == ()


def test_algebras_equal_by_their_ideal():
    ring = PolyRing(("x", "y", "z"), QQ, GrevLex())
    x, y, z = ring.gens()
    A = AffineAlgebra(ring, (x * y + z**3,))
    B = AffineAlgebra(ring, (2 * x * y + 2 * z**3, x * (x * y + z**3)))
    assert A == B and hash(A) == hash(B)
    I = Ideal(A, (x,)).intersect(Ideal(B, (z,)))
    assert I.contains_poly(x * z) and not I.contains_poly(x)
    # another modulus or another ring is another algebra
    assert A != AffineAlgebra(ring, (x * y - z**3,))
    lex = PolyRing(("x", "y", "z"), QQ, Lex())
    assert A != AffineAlgebra(lex, (lex.parse("x*y + z^3"),))
    # one algebra is equal to itself before any basis is computed
    C = AffineAlgebra(ring, (x * y + z**3,))
    Ideal(C, (x,)) + Ideal(C, (y,))
    assert C.zero_ideal._gb is None


def test_algebra_accepts_only_the_words_the_package_reads():
    R = PolyRing(("x", "y"), QQ, GrevLex())
    assert AffineAlgebra(R, (), asserted=ASSERTIONS).asserted == set(ASSERTIONS)
    with pytest.raises(PreconditionError, match=r"^unknown assert 'domian'$"):
        AffineAlgebra(R, (), asserted=("normal", "domian"))


def test_cross_algebra_operations_rejected(poly_xy, poly_xyz):
    I = Ideal(poly_xy, (poly_xy.ring.gen("x"),))
    J = Ideal(poly_xyz, (poly_xyz.ring.gen("x"),))
    with pytest.raises(PreconditionError):
        I.intersect(J)
