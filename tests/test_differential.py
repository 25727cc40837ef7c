"""Differential check of the Groebner engine against sympy, a dev-only oracle.

On seeded random small ideals over QQ and Fp(32003), in lex and grevlex,
the reduced basis must equal sympy's (made monic) and normal forms must
equal sympy's remainders.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from reesval import GrevLex, Lex, PolyRing, PrimeField, QQ, buchberger, normal_form

P = 32003
NAMES = ("x", "y", "z")
SYMBOLS = sympy.symbols(NAMES)


def _random_poly(rng, ring, nterms, degree):
    monomials = ring.monomials_up_to_degree(degree)
    d = {}
    for _ in range(nterms):
        e = rng.choice(monomials)
        c = rng.randint(-9, 9)
        d[e] = Fraction(c) if ring.field == QQ else c % P
    return ring.poly_from_dict(d)


def _domain(ring):
    return sympy.QQ if ring.field == QQ else sympy.GF(P)


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
        d = {e: int(c) % P for e, c in g.terms()}
    return ring.poly_from_dict(d)


@pytest.mark.parametrize("order", [Lex(), GrevLex()], ids=repr)
@pytest.mark.parametrize("field", [QQ, PrimeField(P)], ids=repr)
def test_agrees_with_sympy(field, order):
    rng = random.Random(20240)
    ring = PolyRing(NAMES, field, order)
    # degree-3 generators can take buchberger minutes under lex over QQ,
    # where sympy needs milliseconds (pairs are taken by lcm degree here)
    for trial in range(40):
        gens = [_random_poly(rng, ring, 3, 2) for _ in range(rng.choice((2, 3)))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        G = buchberger(gens)
        oracle = sympy.groebner(
            [_to_sympy(g).as_expr() for g in gens], *SYMBOLS,
            order=repr(order), domain=_domain(ring),
        )
        want = sorted(
            (_from_sympy(ring, g).monic() for g in oracle.exprs),
            key=lambda p: order.key(p.lead_exp),
        )
        assert list(G.polys) == want, trial
        f = _random_poly(rng, ring, 6, 4)
        _, remainder = sympy.reduced(
            _to_sympy(f).as_expr(), list(oracle.exprs), *SYMBOLS,
            order=repr(order), domain=_domain(ring),
        )
        assert normal_form(f, G) == _from_sympy(ring, remainder), trial
