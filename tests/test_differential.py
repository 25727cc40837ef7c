"""Differential check of the Groebner engine against sympy, a dev-only oracle.

On seeded random small ideals over QQ (integer and fractional
coefficients), Fp(32003) and Fp(7), where residues cancel often, in lex
and grevlex,
the reduced basis must equal sympy's (made monic), normal forms must
equal sympy's remainders and membership must agree with sympy's. The
elimination ideal must equal the part of sympy's lex basis free of the
dropped variables, a saturation by a variable the reduced basis of the
part of sympy's lex basis of (I, 1 - t*x_i) free of t, and each partial
derivative must equal sympy's.
"""

import random
from fractions import Fraction
from operator import mul

import pytest

sympy = pytest.importorskip("sympy")

from reesval import (
    AffineAlgebra, GrevLex, Lex, PolyRing, PrimeField, QQ, buchberger, groebner, normal_form,
)
from reesval.ideals import Ideal, eliminate, elimination_ring

P = 32003
NAMES = ("x", "y", "z")
SYMBOLS = sympy.symbols(NAMES)


def _random_poly(rng, ring, nterms, degree, dens=None):
    # dens, a generator of its own, draws denominators 1..9 over QQ
    monomials = ring.monomials_up_to_degree(degree)
    d = {}
    for _ in range(nterms):
        e = rng.choice(monomials)
        c = rng.randint(-9, 9)
        if ring.field != QQ:
            d[e] = c % ring.field.p
        else:
            d[e] = Fraction(c, dens.randint(1, 9) if dens else 1)
    return ring.poly_from_dict(d)


def _domain(ring):
    return sympy.QQ if ring.field == QQ else sympy.GF(ring.field.p)


def _to_sympy(f):
    if f.ring.field == QQ:
        terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in f.terms}
    else:
        terms = dict(f.terms)
    return sympy.Poly.from_dict(terms, *SYMBOLS, domain=_domain(f.ring))


def _from_sympy(ring, g):
    g = sympy.Poly(g, *SYMBOLS, domain=_domain(ring))
    if ring.field == QQ:
        d = {e: Fraction(int(c.numerator), int(c.denominator)) for e, c in g.terms()}
    else:
        d = {e: int(c) % ring.field.p for e, c in g.terms()}
    return ring.poly_from_dict(d)


def _check_basis_and_remainder(ring, gens, f, trial):
    """Check the reduced basis of gens and the remainder of f against sympy's.

    Returns (basis, sympy's basis, remainder).
    """
    order = ring.order
    G = buchberger(gens)
    oracle = sympy.groebner(
        [_to_sympy(g).as_expr() for g in gens], *SYMBOLS,
        order=repr(order), domain=_domain(ring),
    )
    want = sorted(
        (_from_sympy(ring, g).monic() for g in oracle.exprs),
        key=lambda p: order.key(p.lead_exp),
    )
    assert list(G) == want, trial
    _, remainder = sympy.reduced(
        _to_sympy(f).as_expr(), list(oracle.exprs), *SYMBOLS,
        order=repr(order), domain=_domain(ring),
    )
    r = normal_form(f, G)
    assert r == _from_sympy(ring, remainder), trial
    return G, oracle, r


@pytest.mark.parametrize("order", [Lex(), GrevLex()], ids=repr)
@pytest.mark.parametrize("field", [QQ, PrimeField(P), PrimeField(7)], ids=repr)
def test_agrees_with_sympy(field, order):
    rng = random.Random(20240)
    ring = PolyRing(NAMES, field, order)
    # degree-3 generators can take buchberger minutes under lex over QQ,
    # where sympy needs milliseconds (pairs are taken by lcm degree here)
    answers = set()
    for trial in range(40):
        gens = [_random_poly(rng, ring, 3, 2) for _ in range(rng.choice((2, 3)))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        f = _random_poly(rng, ring, 6, 4)
        G, oracle, _ = _check_basis_and_remainder(ring, gens, f, trial)
        # membership: a combination of the generators, then a perturbed one;
        # drawn from their own generator so the inputs above stay the same
        extra = random.Random(trial)
        inside = sum((_random_poly(extra, ring, 2, 1) * g for g in gens), ring.zero)
        for h in (inside, inside + _random_poly(extra, ring, 2, 2)):
            answer = normal_form(h, G).is_zero()
            assert answer == oracle.contains(_to_sympy(h).as_expr()), trial
            answers.add(answer)
    assert answers == {True, False}


@pytest.mark.parametrize("order", [Lex(), GrevLex()], ids=repr)
def test_rational_inputs_agree_with_sympy(order):
    # coefficients c/d with d in 1..9: division starts with a common
    # denominator above 1 and has to rescale its integer work
    rng, dens = random.Random(20242), random.Random(20243)
    ring = PolyRing(NAMES, QQ, order)
    fractional = 0
    for trial in range(40):
        gens = [_random_poly(rng, ring, 3, 2, dens) for _ in range(rng.choice((2, 3)))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        f = _random_poly(rng, ring, 6, 4, dens)
        fractional += any(c.denominator > 1 for _, c in f.terms)
        G, _, r = _check_basis_and_remainder(ring, gens, f, trial)
        # integer numerators must not leak out of the division loop
        for g in (r, *G):
            assert all(type(c) is Fraction for _, c in g.terms), trial
    assert fractional > 30


@pytest.mark.parametrize("field", [QQ, PrimeField(P)], ids=repr)
def test_elimination_agrees_with_sympy(field):
    rng = random.Random(20241)
    ring = PolyRing(NAMES, field, GrevLex())
    sizes = set()
    for trial in range(40):
        gens = [_random_poly(rng, ring, 3, 2) for _ in range(rng.choice((2, 3)))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        k = rng.choice((1, 2))
        target = PolyRing(NAMES[k:], field, GrevLex())
        ering = elimination_ring(NAMES[:k], target)
        ours = eliminate([g.to_ring(ering) for g in gens], target)
        # by the elimination theorem, the lex basis elements free of the
        # first k variables generate the ideal intersected with k[rest]
        oracle = sympy.groebner(
            [_to_sympy(g).as_expr() for g in gens], *SYMBOLS,
            order="lex", domain=_domain(ring),
        )
        theirs = [
            _from_sympy(ring, g).to_ring(target)
            for g in oracle.exprs
            if not g.free_symbols & set(SYMBOLS[:k])
        ]
        sizes.add(len(theirs))
        assert bool(ours) == bool(theirs), trial
        if not ours:
            continue
        # ours in theirs by sympy's basis, theirs in ours by reesval's
        for g in ours:
            assert oracle.contains(_to_sympy(g.to_ring(ring)).as_expr()), trial
        G = buchberger(ours)
        assert all(normal_form(h, G).is_zero() for h in theirs), trial
    assert 0 in sizes and len(sizes) > 1


def test_saturation_by_a_variable_agrees_with_sympy():
    # ideals graded by seeded weights w in 1..3, so each saturation by a
    # variable reads a divided basis; sympy eliminates t from (I, 1 - t*x_i)
    # under lex, and the reduced grevlex basis of what is free of t must be
    # the saturation's generators
    rng = random.Random(20246)
    ring = PolyRing(NAMES, QQ, GrevLex())
    t = sympy.Symbol("t")
    grew = 0
    for trial in range(30):
        w = [rng.randint(1, 3) for _ in NAMES]
        gens = []
        for _ in range(rng.choice((1, 2, 3))):
            degree = rng.randint(2, 6)
            monomials = ring.monomials_up_to_degree(degree)
            same = [e for e in monomials if sum(map(mul, w, e)) == degree]
            if same:
                terms = {rng.choice(same): rng.randint(-9, 9) for _ in range(3)}
                gens.append(ring.poly_from_dict({e: Fraction(c) for e, c in terms.items()}))
        I = Ideal(AffineAlgebra(ring), gens)
        i = rng.randrange(len(NAMES))
        with groebner.budget(groebner.DEFAULT_BUDGET) as work:
            sat = I.saturation(ring.gens()[i])
        assert work.divided == 1, trial
        oracle = sympy.groebner(
            [_to_sympy(g).as_expr() for g in I.ambient_gens()] + [1 - t * SYMBOLS[i]],
            t, *SYMBOLS, order="lex", domain=sympy.QQ,
        )
        theirs = [_from_sympy(ring, g) for g in oracle.exprs if t not in g.free_symbols]
        assert sat.gens == buchberger(theirs), trial
        grew += not I.contains_ideal(sat)
    assert grew >= 10


@pytest.mark.parametrize("field", [QQ, PrimeField(P)], ids=repr)
def test_derivatives_agree_with_sympy(field):
    rng, dens = random.Random(20244), random.Random(20245)
    ring = PolyRing(NAMES, field, GrevLex())
    for trial in range(20):
        f = _random_poly(rng, ring, 6, 5, dens if field == QQ else None)
        expr = _to_sympy(f).as_expr()
        for i, x in enumerate(SYMBOLS):
            assert f.diff(i) == _from_sympy(ring, sympy.diff(expr, x)), trial
