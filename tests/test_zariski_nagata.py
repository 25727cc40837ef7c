"""Zariski-Nagata: an independent route to symbolic powers in polynomial rings.

For a prime P of a polynomial ring over a field of characteristic 0,
P^(n) = {f : every partial derivative of f of order < n lies in P}
(Zariski 1949; Nagata 1962; Dao, De Stefani, Grifo, Huneke and
Nunez-Betancourt, "Symbolic powers of ideals", 2018, Thm. 2.12). The
oracle here takes its derivatives from sympy, a dev-only dependency, and
tests membership in P by normal forms against P's basis, with no
saturation. It must read the same order as `ord_at`, which saturates by a
proven separator. The route does not cover Fp, which needs Hasse
derivatives, or rings with a modulus.
"""

import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

sympy = pytest.importorskip("sympy")

from reesval import AffineAlgebra, GrevLex, PolyRing, QQ, ord_at
from reesval.ideals import Ideal, kernel_of_map

NMAX = 5
GOLDEN = Path(__file__).parent / "golden" / "paper_session.json"


def _to_sympy(f, symbols):
    return sum(
        (
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(s**k for s, k in zip(symbols, e)))
            for e, c in f.terms
        ),
        sympy.Integer(0),
    )


def _from_sympy(ring, expr, symbols):
    terms = sympy.Poly(expr, *symbols, domain=sympy.QQ).terms()
    return ring.poly_from_dict(
        {e: Fraction(int(c.numerator), int(c.denominator)) for e, c in terms}
    )


def differential_order(P, f, nmax):
    """Largest n <= nmax such that every derivative of f of order < n lies in P."""
    ring = P.algebra.ring
    symbols = sympy.symbols(ring.names)
    expr = _to_sympy(f, symbols)
    for n in range(nmax):
        for alpha in combinations_with_replacement(symbols, n):
            derivative = sympy.diff(expr, *alpha) if alpha else expr
            if not P.contains_poly(_from_sympy(ring, derivative, symbols)):
                return n
    return nmax


def curve_345():
    tring = PolyRing(("t",), QQ, GrevLex())
    t = tring.gen("t")
    return kernel_of_map(("x", "y", "z"), AffineAlgebra(tring), [t**3, t**4, t**5])


def _prime(*texts):
    alg = AffineAlgebra(PolyRing(("x", "y", "z"), QQ, GrevLex()))
    return Ideal(alg, tuple(alg.ring.parse(t) for t in texts))


PRIMES = {
    # singular at the origin, where P^(2) is strictly bigger than P^2
    "curve345": curve_345,
    # a smooth complete-intersection curve
    "smooth_curve": lambda: _prime("y - x^2", "z - x^3"),
    # the quadric cone, a height-1 prime singular at the origin
    "cone": lambda: _prime("x*z - y^2"),
}


def _seeded(rng, P, count):
    """count polynomials a*g_1*...*g_k + b*h_1*...*h_j, the g and h drawn
    from P's generators and a, b of degree at most 1."""
    ring = P.algebra.ring
    linear = ring.monomials_up_to_degree(1)

    def term():
        f = ring.poly_from_dict({e: rng.randint(-3, 3) for e in rng.sample(linear, 2)})
        for _ in range(rng.randint(0, 3)):
            f = f * rng.choice(P.gens)
        return f

    out = []
    while len(out) < count:
        f = term() + term()
        if not f.is_zero():
            out.append(f)
    return out


@pytest.mark.parametrize("name", sorted(PRIMES))
def test_ord_at_equals_the_differential_order(name):
    P = PRIMES[name]()
    orders = set()
    for f in _seeded(random.Random(name), P, 12):
        order = differential_order(P, f, NMAX)
        assert ord_at(P, f, nmax=NMAX) == (order, order < NMAX), str(f)
        orders.add(order)
    assert len(orders) >= 3


def test_golden_curve_generators_pass_the_derivative_test():
    P = curve_345()
    ring = P.algebra.ring
    commands = json.loads(GOLDEN.read_text(encoding="utf-8"))["curve"]["commands"]
    powers = [c for c in commands if c["name"] == "symbolic-power"]
    assert [c["args"][1] for c in powers] == ["2", "3"]
    for cmd in powers:
        n = int(cmd["args"][1])
        for text in cmd["result"]["generators"]:
            assert differential_order(P, ring.parse(text), n) == n, text
