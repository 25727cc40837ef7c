"""A toric route to the orders on the paper ring, with no saturation.

R = k[x1,x2,x3]/(x1*x2 + x3^3) is the A2 toric singularity k[u^3, v^3, uv],
with x1 = u^3, x2 = v^3 and x3 = -uv (Fulton, Introduction to Toric
Varieties, ch. 3). Under grevlex the modulus leads with x3^3, so the
standard monomials are x1^i x2^j x3^k with k <= 2, and each is one lattice
point (a, b) = (3i + k, 3j + k); distinct standard monomials give distinct
points, so a normal form is a sum of distinct characters u^a v^b.

- p = (x1, x3) is the height-1 prime u = 0. Its symbolic powers are the
  valuation ideals of the u-order, so ord_p(f) is the least a over the
  terms of f's normal form.
- m = (x1, x2, x3) is spanned, in each power m^n, by the monomials that
  are products of n generators (3, 0), (0, 3), (1, 1). The most factors of
  (a, b) come from the most (1, 1) factors: the largest k' <= min(a, b)
  with k' = a mod 3, which leaves (a + b + k')/3 factors. ord_m(f) is the
  least of these over the terms of f's normal form.

Both must equal `ord_at`, which saturates by a proven separator for p and
reads the ordinary powers for the maximal ideal m.
"""

import pytest

from reesval import ord_at
from reesval.ideals import Ideal

NMAX = 6


def _points(R, f):
    """(a, b) for each term x1^i x2^j x3^k of f's normal form in R."""
    return [(3 * i + k, 3 * j + k) for (i, j, k), _ in R.reduce(f).terms]


def toric_ord_p(R, f):
    return min(a for a, _ in _points(R, f))


def toric_ord_m(R, f):
    def factors(a, b):
        k = max(c for c in range(min(a, b) + 1) if c % 3 == a % 3)
        return (a + b + k) // 3

    return min(factors(a, b) for a, b in _points(R, f))


def test_lattice_points_of_the_generators(paper_ring):
    x1, x2, x3 = paper_ring.ring.gens()
    assert [_points(paper_ring, g) for g in (x1, x2, x3)] == [[(3, 0)], [(0, 3)], [(1, 1)]]
    # x1*x2 = -x3^3 in R: both sides are the point (3, 3)
    assert _points(paper_ring, x1 * x2) == [(3, 3)]
    assert (toric_ord_p(paper_ring, x3**3), toric_ord_m(paper_ring, x3**3)) == (3, 3)
    assert (toric_ord_p(paper_ring, x1 * x3), toric_ord_m(paper_ring, x1 * x3)) == (4, 2)


def test_ord_at_equals_the_toric_orders(paper_ring):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    x1, x2, x3 = paper_ring.ring.gens()
    # one handle per prime, so the symbolic powers are built once for every example
    p = Ideal(paper_ring, (x1, x3))
    m = Ideal(paper_ring, (x1, x2, x3))
    exps = st.tuples(*[st.integers(min_value=0, max_value=4)] * 3)
    coeffs = st.integers(min_value=-3, max_value=3).filter(bool)
    seen = {"p": set(), "m": set()}

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @hypothesis.given(st.dictionaries(exps, coeffs, min_size=1, max_size=4))
    def agrees(terms):
        f = paper_ring.ring.poly_from_dict(terms)
        hypothesis.assume(not paper_ring.reduce(f).is_zero())
        for name, P, order in (("p", p, toric_ord_p), ("m", m, toric_ord_m)):
            want = order(paper_ring, f)
            assert ord_at(P, f, nmax=NMAX) == (min(want, NMAX), want < NMAX), (name, str(f))
            seen[name].add(min(want, NMAX))

    agrees()
    # the inputs reach orders 0 and NMAX and several between, on both primes
    assert all({0, NMAX} <= orders and len(orders) >= 5 for orders in seen.values()), seen
