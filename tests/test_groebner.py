import random
from fractions import Fraction
from itertools import permutations
from math import gcd
from operator import add, sub

import pytest

from reesval import (
    Block,
    GrevLex,
    Lex,
    PolyRing,
    PrimeField,
    QQ,
    buchberger,
    groebner,
    normal_form,
)
from reesval.errors import BudgetExceededError, PreconditionError
from reesval.groebner import is_groebner, s_polynomial


def test_twisted_cubic_lex_basis():
    R = PolyRing(("x", "y", "z"), QQ, Lex())
    x, y, z = R.gens()
    G = buchberger([x**2 - y, x**3 - z])
    expected = {x**2 - y, x * y - z, x * z - y**2, y**3 - z**2}
    assert set(G) == expected
    # the input is not a basis: its S-polynomial z - x*y leaves a remainder
    assert not is_groebner([x**2 - y, x**3 - z]) and is_groebner(G)


def test_basis_is_groebner_and_ideal_membership():
    R = PolyRing(("x", "y"), QQ, GrevLex())
    x, y = R.gens()
    G = buchberger([x**2 + y, x * y - 1])
    assert is_groebner(G)
    f = (x**2 + y) * (x + y**3) + (x * y - 1) * y**2
    assert normal_form(f, G).is_zero()


def _random_poly(rng, ring, nterms=4, maxdeg=3):
    d = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(maxdeg + 1) for _ in range(ring.nvars))
        d[e] = Fraction(rng.randint(-4, 4))
    return ring.poly_from_dict(d)


@pytest.mark.parametrize(
    "order, maxdeg",
    # the orders cover flat and nested keys; under lex and block, taking
    # pairs by lcm degree lets the coefficients of random degree-2 inputs
    # grow to thousands of digits, so those generators are multilinear
    [(GrevLex(), 3), (Lex(), 1), (Block(1), 1)],
    ids=["grevlex", "lex", "block"],
)
def test_normal_form_path_independence_randomized(order, maxdeg):
    # against a reduced basis the remainder must not depend on which
    # divisor is picked at each step
    rng = random.Random(2024)
    R = PolyRing(("x", "y", "z"), QQ, order)
    for trial in range(50):
        gens = [_random_poly(rng, R, maxdeg=maxdeg) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        G = buchberger(gens)
        f = _random_poly(rng, R, nterms=6)
        r_first = normal_form(f, G, selector=lambda c: c[0])
        r_last = normal_form(f, G, selector=lambda c: c[-1])
        r_rand = normal_form(f, G, selector=lambda c: rng.choice(c))
        assert r_first == r_last == r_rand


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=str)
def test_normal_form_path_independence_property(field):
    # the remainder against a reduced basis whose elements have tails does not
    # depend on which applicable reducer is taken at each step
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    R = PolyRing(("x", "y", "z"), field, GrevLex())
    exps = st.tuples(*[st.integers(min_value=0, max_value=2)] * 3)
    coeffs = st.integers(min_value=-4, max_value=4)
    polys = st.dictionaries(exps, coeffs, min_size=1, max_size=4).map(
        lambda terms: R.poly_from_dict({e: field.coerce(c) for e, c in terms.items()})
    )

    @hypothesis.settings(derandomize=True, database=None, deadline=None)
    @hypothesis.given(
        st.lists(polys, min_size=1, max_size=3), polys, st.randoms(use_true_random=False)
    )
    def path_independent(gens, f, rnd):
        gens = [g for g in gens if not g.is_zero()]
        hypothesis.assume(gens)
        G = buchberger(gens)
        hypothesis.assume(any(len(g.terms) > 1 for g in G))
        first = normal_form(f, G)
        assert normal_form(f, G, selector=lambda c: c[-1]) == first
        assert normal_form(f, G, selector=rnd.choice) == first

    path_independent()


def test_reduced_basis_is_canonical():
    R = PolyRing(("x", "y"), QQ, GrevLex())
    x, y = R.gens()
    a = buchberger([x**2 - y**2, x * y + y**2])
    redundant = (x + y**2) * (x**2 - y**2) + y * (x * y + y**2)
    b = buchberger([x * y + y**2, x**2 - y**2, redundant])
    assert a == b
    for g in a:
        assert g.lead_coeff == 1


def test_basis_is_a_tuple_and_empty_for_the_zero_ideal():
    R = PolyRing(("x", "y"), QQ, GrevLex())
    x, y = R.gens()
    assert buchberger([]) == ()
    assert buchberger([R.zero]) == ()
    # the general loop and the monomial fast path
    assert isinstance(buchberger([x**2 + y, x * y - 1]), tuple)
    assert isinstance(buchberger([x * y, 2 * y**2]), tuple)
    assert normal_form(x + 1, buchberger([R.zero])) == x + 1


def test_s_polynomial_cancels_leads():
    R = PolyRing(("x", "y"), QQ, GrevLex())
    x, y = R.gens()
    f, g = x**2 * y + 1, x * y**2 + x
    s = s_polynomial(f, g)
    assert R.order.key(s.lead_exp) < R.order.key((2, 2))


def _random_monic(rng, ring, maxdeg):
    # over QQ every coefficient is c/d with d > 1, so the cleared
    # denominators L of the monic members are not all 1
    d = {}
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randrange(maxdeg + 1) for _ in range(ring.nvars))
        den = rng.randint(2, 9)
        num = rng.choice([n for n in range(-9, 10) if gcd(n, den) == 1])
        d[e] = ring.field.coerce(Fraction(num, den))
    return ring.poly_from_dict(d).monic()


@pytest.mark.parametrize(
    "order, maxdeg",
    # under lex and block, taking pairs by lcm degree lets the coefficients
    # of some random pairs with exponents up to 3 swell past a minute's work,
    # so there the exponents stop at 2
    [(GrevLex(), 3), (Lex(), 2), (Block(1), 2)],
    ids=["grevlex", "lex", "block"],
)
@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=str)
def test_s_pair_matches_s_polynomial(field, order, maxdeg):
    # buchberger builds each S-pair as numerators over den from the packed
    # tails; s_polynomial, the route is_groebner takes, checks it
    rng = random.Random(14)
    R = PolyRing(("x", "y", "z"), field, order)
    packing = groebner._packing(R)
    pairs = [[_random_monic(rng, R, maxdeg) for _ in range(2)] for _ in range(40)]
    dens = set()
    for f, g in pairs:
        den, work = groebner._s_pair(f, g)
        dens.add(den)
        rebuilt = R.poly_from_dict(
            {packing.unpack(X & packing.emask): field.fraction(c, den) for X, c in work.items()}
        )
        assert rebuilt == s_polynomial(f, g)
    # den > 1 is exercised over QQ, and over Fp every L is 1
    assert (max(dens) > 1) == (field == QQ)
    for gens in pairs:
        assert is_groebner(buchberger(gens))


def _tuple_divides(a, b):
    """x^a divides x^b, read off the exponent tuples."""
    return all(x <= y for x, y in zip(a, b))


@pytest.mark.parametrize("order", [Lex(), GrevLex(), Block(1), Block(2)], ids=repr)
@pytest.mark.parametrize("nvars", range(1, 7))
def test_packing_matches_tuple_exponents(order, nvars):
    # the kernel's packed X = K*2^SH + E against the tuple exponents and
    # order keys it stands for, over exponents up to the limit; grevlex and
    # block keys have negative entries, and the difference of two X, as in
    # the order and divisibility tests, has K of either sign
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    R = PolyRing(tuple(f"x{i}" for i in range(nvars)), QQ, order)
    packing = groebner._packing(R)
    guard, emask = packing.guard, packing.emask
    exponent = st.one_of(st.integers(0, 3), st.integers(0, groebner._LIMIT))
    exps = st.tuples(*[exponent] * nvars)

    def sign(a, b):
        return (a > b) - (a < b)

    def agrees(a, b):
        xa, xb = packing.pack(a), packing.pack(b)
        assert packing.unpack(xa & emask) == a
        assert sign(xa, xb) == sign(order.key(a), order.key(b))
        divides = ((xb | guard) - xa) & guard == guard
        assert divides == _tuple_divides(a, b)
        if divides:
            # the shift that moves a onto b
            assert xb - xa == packing.pack(tuple(map(sub, b, a)))
        # a product packs as the sum, and one past the limit sets a guard bit
        product = tuple(map(add, a, b))
        if max(product, default=0) <= groebner._LIMIT:
            assert xa + xb == packing.pack(product)
        else:
            assert (xa + xb) & guard
        assert packing.lcm(xa, xb) == packing.pack(tuple(map(max, a, b))) & emask
        assert packing.degree(xa & emask) == sum(a)

    # the corners: every exponent at the limit, and one below it
    top = (groebner._LIMIT,) * nvars
    agrees(top, (0,) * nvars)
    agrees((0,) * nvars, top)
    agrees(top[1:] + (groebner._LIMIT - 1,), top)
    settings = hypothesis.settings(derandomize=True, database=None, deadline=None)
    settings(hypothesis.given(exps, exps)(agrees))()


def test_minimalize_matches_its_definition():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, database=None, deadline=None)
    @hypothesis.given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.lists(st.tuples(*[st.integers(min_value=0, max_value=3)] * n))
        )
    )
    def minimal(exps):
        out = groebner._minimalize(iter(exps))
        assert set(out) <= set(exps)
        # no member divides another (nor repeats), and each input has a divisor
        assert not any(_tuple_divides(a, b) for a, b in permutations(out, 2))
        assert all(any(_tuple_divides(m, e) for m in out) for e in exps)
        assert out == sorted(out, key=lambda e: (sum(e), e))

    minimal()


def test_exponent_at_2_20_divides_correctly():
    R = PolyRing(("x", "y", "z"), QQ, Lex())
    x, y, z = R.gens()
    f, g = x**2 - y ** 2**20, x * y - z
    G = buchberger([f, g])
    assert is_groebner(G) and y ** (2**20 + 2) - z**2 in G
    assert normal_form(f, G).is_zero() and normal_form(g, G).is_zero()
    den, work = groebner._s_pair(f, g)
    packing = groebner._packing(R)
    s = R.poly_from_dict(
        {packing.unpack(X & packing.emask): QQ.fraction(c, den) for X, c in work.items()}
    )
    assert s == s_polynomial(f, g) == x * z - y ** (2**20 + 1)


def test_exponent_over_the_limit_is_refused():
    # exponents up to 2^24 - 1 pack; one past it, given or created by a
    # reduction step, is refused rather than wrapped into its neighbour field
    R = PolyRing(("x", "y"), QQ, Lex())
    x, y = R.gens()
    limit = "16777215 = 2\\^24 - 1"
    with pytest.raises(PreconditionError, match=limit):
        buchberger([x ** 2**24 - y, x * y - 1])
    with pytest.raises(PreconditionError, match=limit):
        normal_form(x ** 2**24, [x * y - 1])
    # created in the division: x*y^(m-1) -> y^(2m-1) is at the limit, and
    # x^2 -> x*y^m -> y^2m past it
    assert normal_form(x * y ** (2**23 - 1), [x - y ** 2**23]) == y ** (2**24 - 1)
    with pytest.raises(PreconditionError, match=limit):
        normal_form(x**2, [x - y ** 2**23])


def test_first_reducer_memo_rescans_what_was_appended_after_a_miss():
    # one memo serves divisions by a reducer list that only grows: a miss
    # records how many reducers it ruled out, so a reducer appended later
    # is still tried on that monomial
    R = PolyRing(("x", "y"), QQ, GrevLex())
    x, y = R.gens()
    packing = groebner._packing(R)
    reducers, first = [groebner._packed(x - 1)], {}

    def divide(f):
        den, nums = R.field.clear(f.terms)
        work = {packing.pack(e): c for e, c in nums.items()}
        return groebner._divide(R, den, work, reducers, None, first)

    with groebner.budget(10):
        assert divide(y**2) == y**2  # x - 1 divides no term of y^2
        assert first == {packing.pack((0, 2)): ~1}
        reducers.append(groebner._packed(y + 1))
        assert divide(x * y**2) == R.one  # x*y^2 -> y^2 -> -y -> 1
    assert first[packing.pack((0, 2))] == 1


def test_a_sum_that_is_a_multiple_of_p_leaves_no_term():
    # over Fp(7), reducing 2x^2 by x^2 + 4y leaves y with 1 + 4*(-2) = -7:
    # that term is zero, so it takes no step, though y + 1 would reduce it
    R = PolyRing(("x", "y", "z"), PrimeField(7), Lex())
    x, y, z = R.gens()
    with groebner.budget(10) as work:
        r = normal_form(2 * x**2 + y + 3 * z, [x**2 + 4 * y, y + 1])
    assert r.terms == (((0, 0, 1), 3),)
    assert work.steps == 1


def test_budget_exhaustion_raises():
    R = PolyRing(("x", "y", "z"), QQ, GrevLex())
    x, y, z = R.gens()
    gens = [x + y + z, x * y + y * z + z * x, x * y * z - 1]
    full = buchberger(gens)
    assert len(full) >= 3
    with pytest.raises(BudgetExceededError), groebner.budget(2):
        buchberger(gens)


def test_sugar_keeps_lex_coefficients_small():
    # pairs of equal lcm degree are taken by sugar, the degree their
    # S-polynomial would have in the homogenized input (Giovini et al.,
    # ISSAC 1991); taken by pair index alone, this lex basis needs 821 steps
    # and coefficients of thousands of digits on the way
    R = PolyRing(("x", "y", "z"), QQ, Lex())
    gens = [R.parse(t) for t in ("2*x^2*z - 9*y^2*z + 2*y^2", "x^2*y - 2*x^2 - x*z",
                                 "x^2 + 2*x + y^2*z")]
    with groebner.budget(258):
        G = buchberger(gens)
    assert len(G) == 3 and is_groebner(G)
    # the same ideal: each side reduces to zero on the other's basis
    grevlex = PolyRing(R.names, QQ, GrevLex())
    H = buchberger([g.to_ring(grevlex) for g in gens])
    assert all(normal_form(g, G).is_zero() for g in gens)
    assert all(normal_form(g.to_ring(grevlex), H).is_zero() for g in G)


def _cyclic4():
    R = PolyRing(("a", "b", "c", "d"), QQ, GrevLex())
    v = R.gens()
    eqs = []
    for k in range(1, 4):
        s = R.zero
        for i in range(4):
            t = R.one
            for j in range(k):
                t = t * v[(i + j) % 4]
            s = s + t
        eqs.append(s)
    return eqs + [v[0] * v[1] * v[2] * v[3] - 1]


def _katsura3(field=QQ):
    R = PolyRing(("u0", "u1", "u2", "u3"), field, GrevLex())
    u = R.gens()

    def U(i):
        return u[abs(i)] if abs(i) <= 3 else R.zero

    eqs = [u[0] + 2 * (u[1] + u[2] + u[3]) - 1]
    for m in range(3):
        s = R.zero
        for l in range(-3, 4):
            s = s + U(l) * U(m - l)
        eqs.append(s - u[m])
    return eqs


def _monomial_cube():
    # the 64 products generating (x^2, y^2, z^2, xyz)^3, repeats included
    R = PolyRing(("x", "y", "z"), QQ, GrevLex())
    x, y, z = R.gens()
    base = [x**2, y**2, z**2, x * y * z]
    return [f * g * h for f in base for g in base for h in base]


def _count_work(monkeypatch):
    """Count the S-pairs buchberger builds and the division loops it runs."""
    counts = {"s": 0, "div": 0}
    real_s, real_div = groebner._s_pair, groebner._divide

    def counting_s(*args):
        counts["s"] += 1
        return real_s(*args)

    def counting_div(*args):
        counts["div"] += 1
        return real_div(*args)

    monkeypatch.setattr(groebner, "_s_pair", counting_s)
    monkeypatch.setattr(groebner, "_divide", counting_div)
    return counts


@pytest.mark.parametrize(
    "system, basis_len, pairs, divisions, least_budget, skips",
    [
        (_cyclic4, 7, 8, 19, 30, (21, 8, 5, 5)),
        (_katsura3, 7, 8, 19, 95, (21, 12, 1, 5)),
        (lambda: _katsura3(PrimeField(32003)), 7, 8, 19, 95, (21, 12, 1, 5)),
    ],
    ids=["cyclic4", "katsura3", "katsura3_fp"],
)
def test_pair_order_work_counts(system, basis_len, pairs, divisions, least_budget, skips):
    # the chain criterion skips a pair only against pairs already done, so
    # these counts move if buchberger takes its pairs in another order;
    # the budget is one tick per reduction step, so the least budget that
    # completes pins the number of steps; skips are the pairs formed, those
    # skipped as coprime and by the chain criterion, and reductions to zero
    with pytest.raises(BudgetExceededError), groebner.budget(least_budget - 1):
        buchberger(system())
    with groebner.budget(least_budget) as work:
        G = buchberger(system())
    counts = (len(G), work.pairs, work.divisions, work.steps)
    assert counts == (basis_len, pairs, divisions, least_budget)
    assert (work.formed, work.coprime, work.chain, work.zeros) == skips
    # every pair formed is skipped or reduced
    assert work.formed == work.coprime + work.chain + work.pairs


@pytest.mark.parametrize(
    "system, budget_n",
    [
        (_cyclic4, 30),
        (_katsura3, 95),
        (lambda: _katsura3(PrimeField(32003)), 95),
        (_monomial_cube, 0),
    ],
    ids=["cyclic4", "katsura3", "katsura3_fp", "monomial_cube"],
)
def test_work_record_matches_counted_calls(system, budget_n, monkeypatch):
    # the scope's record counts what wrapping the module functions counts,
    # and a least completing budget is spent to the last step
    counts = _count_work(monkeypatch)
    with groebner.budget(budget_n) as work:
        buchberger(system())
    assert (work.pairs, work.divisions, work.steps) == (counts["s"], counts["div"], budget_n)


@pytest.mark.parametrize(
    "system",
    [_cyclic4, _katsura3, lambda: _katsura3(PrimeField(32003)), _monomial_cube],
    ids=["cyclic4", "katsura3", "katsura3_fp", "monomial_cube"],
)
def test_work_record_keeps_the_largest_basis(system, monkeypatch):
    # largest is the longest basis a buchberger call in the scope returned,
    # through the general loop and through the monomial path alike
    lengths, real = [], groebner.buchberger

    def counting(gens):
        G = real(gens)
        lengths.append(len(G))
        return G

    monkeypatch.setattr(groebner, "buchberger", counting)
    with groebner.budget(groebner.DEFAULT_BUDGET) as work:
        for gens in (system()[:2], system(), system()[1:]):
            groebner.buchberger(gens)
    assert work.calls == len(lengths) == 3
    assert work.largest == max(lengths)


def test_monomial_basis_work_counts():
    # a monomial ideal's reduced basis is its minimal generators: no pair
    # is formed, nothing is divided and no reduction step is drawn
    with groebner.budget(0) as work:
        G = buchberger(_monomial_cube())
    assert (len(G), work.pairs, work.divisions, work.steps) == (16, 0, 0, 0)


_MONOMIAL_ORDERS = [GrevLex(), Lex(), Block(1)]


@pytest.mark.parametrize("order", _MONOMIAL_ORDERS, ids=["grevlex", "lex", "block"])
@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=str)
def test_monomial_fast_path_matches_general_loop(field, order):
    # g0 + y*g_last lies in the ideal and has two terms, so adding it gives
    # the same ideal through the general loop; selectors must agree against
    # the fast-path basis, since it is reduced
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    R = PolyRing(("x", "y", "z"), field, order)
    y = R.gen("y")
    exps = st.tuples(*[st.integers(min_value=0, max_value=4)] * 3)
    coeffs = st.integers(min_value=-3, max_value=3)
    monomials = st.lists(st.tuples(exps, coeffs), min_size=1, max_size=8)

    @hypothesis.settings(derandomize=True, database=None, deadline=None)
    @hypothesis.given(
        monomials, st.dictionaries(exps, coeffs, max_size=6), st.randoms(use_true_random=False)
    )
    def same_basis(terms, f_terms, rnd):
        gens = [R.monomial(e, c) for e, c in terms]
        nonzero = [g for g in gens if not g.is_zero()]
        hypothesis.assume(nonzero)
        extra = nonzero[0] + y * nonzero[-1]
        hypothesis.assume(len(extra.terms) == 2)
        with groebner.budget(0):
            fast = buchberger(gens)
        general = buchberger(gens + [extra])
        assert fast == general
        f = R.poly_from_dict(f_terms)
        r_first = normal_form(f, fast, selector=lambda c: c[0])
        r_last = normal_form(f, fast, selector=lambda c: c[-1])
        r_rand = normal_form(f, fast, selector=rnd.choice)
        assert r_first == r_last == r_rand == normal_form(f, general)

    same_basis()


@pytest.mark.parametrize("order", _MONOMIAL_ORDERS, ids=["grevlex", "lex", "block"])
@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=str)
def test_monomial_fast_path_edge_cases(field, order):
    R = PolyRing(("x", "y", "z"), field, order)
    x, y, z = R.gens()
    # repeated, non-monic and zero generators, and one the others divide
    gens = [3 * x**2 * y, R.zero, x**2 * y, -2 * y**3, x**3 * y**2, R.zero]
    fast = buchberger(gens)
    general = buchberger(gens + [x**2 * y - 2 * y**4])
    assert fast == general
    assert set(fast) == {x**2 * y, y**3}
    # a constant generator gives the unit ideal
    for extra in ([], [x - 1]):
        assert buchberger([x * z, R.monomial((0, 0, 0), 5)] + extra) == (R.one,)
    assert buchberger([R.zero, R.zero]) == ()


def test_pair_order_tie_breaks(monkeypatch):
    # counts miss a change in how pairs of equal lcm degree are ordered;
    # the S-pairs of cyclic-4 in the order taken catch it
    taken = []
    real = groebner._s_pair

    def recording(f, g):
        taken.append((f.lead_exp, g.lead_exp))
        return real(f, g)

    monkeypatch.setattr(groebner, "_s_pair", recording)
    buchberger(_cyclic4())
    assert taken == [
        ((0, 2, 0, 0), (0, 1, 2, 0)),
        ((0, 2, 0, 0), (0, 1, 1, 2)),
        ((0, 1, 2, 0), (0, 1, 1, 2)),
        ((0, 2, 0, 0), (0, 1, 0, 4)),
        ((0, 1, 2, 0), (0, 0, 3, 2)),
        ((0, 1, 1, 2), (0, 1, 0, 4)),
        ((0, 1, 2, 0), (0, 0, 2, 4)),
        ((0, 0, 3, 2), (0, 0, 2, 4)),
    ]
