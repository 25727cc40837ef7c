"""A toric route to the orders on the A_{k-1} surfaces, with no saturation.

R_k = k[x,y,z]/(xy - z^k) is the A_{k-1} toric singularity k[u^k, v^k, uv],
with x = u^k, y = v^k and z = uv (Fulton, Introduction to Toric Varieties,
ch. 2-3); k = 3 is the paper ring up to the sign of x3. Each standard
monomial x^i y^j z^l of the grevlex basis is one lattice point
(a, b) = (ki + l, kj + l). That map is one to one on standard monomials,
whether the modulus leads with z^k (k >= 3) or with xy (k = 2), so a
normal form is a sum of distinct characters u^a v^b.

- p = (x, z) is the height-1 prime u = 0. Its symbolic powers are the
  valuation ideals of the u-order, so ord_p(f) is the least a over the
  terms of f's normal form.
- m = (x, y, z) is spanned, in each power m^n, by the monomials that are
  products of n generators (k, 0), (0, k), (1, 1). The point (a, b) is a
  product of c + (a - c)/k + (b - c)/k of them for each c <= min(a, b)
  with c = a mod k; its order is the largest such count. ord_m(f) is the
  least of these over the terms of f's normal form.

Both must equal `ord_at`, which saturates by a proven separator for p and
reads the ordinary powers for the maximal ideal m. The same counts predict
the verdict of the main-theorem-A sweep and the least constant C_emp of the
Chevalley sweep for p and m, which read their powers the same way.
"""

import pytest

from reesval import (
    AffineAlgebra,
    GrevLex,
    PolyRing,
    QQ,
    check_improved_chevalley,
    check_main_theorem_A,
    ord_at,
)
from reesval.ideals import Ideal

NMAX = 6
KS = (2, 3, 4, 5)


def _surface(k):
    """R_k = Q[x,y,z]/(xy - z^k), normality and primality asserted."""
    x, y, z = PolyRing(("x", "y", "z"), QQ, GrevLex()).gens()
    return AffineAlgebra(x.ring, (x * y - z**k,), asserted=("normal", "domain"))


def _points(R, k, f):
    """(a, b) for each term x^i y^j z^l of f's normal form in R_k."""
    return [(k * i + l, k * j + l) for (i, j, l), _ in R.reduce(f).terms]


def toric_ord_p(R, k, f):
    return min(a for a, _ in _points(R, k, f))


def toric_ord_m(R, k, f):
    def factors(a, b):
        return max(
            c + (a - c) // k + (b - c) // k for c in range(min(a, b) + 1) if c % k == a % k
        )

    return min(factors(a, b) for a, b in _points(R, k, f))


@pytest.mark.parametrize("k", KS)
def test_lattice_points_of_the_generators(k):
    R = _surface(k)
    x, y, z = R.ring.gens()
    assert [_points(R, k, g) for g in (x, y, z)] == [[(k, 0)], [(0, k)], [(1, 1)]]
    # xy = z^k in R_k: both sides are the point (k, k)
    assert _points(R, k, x * y) == _points(R, k, z**k) == [(k, k)]
    assert (toric_ord_p(R, k, z**k), toric_ord_m(R, k, z**k)) == (k, k)
    assert (toric_ord_p(R, k, x * z), toric_ord_m(R, k, x * z)) == (k + 1, 2)


@pytest.mark.parametrize("k", KS)
def test_ord_at_equals_the_toric_orders(k):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    R = _surface(k)
    x, y, z = R.ring.gens()
    # one handle per prime, so the symbolic powers are built once for every example
    p = Ideal(R, (x, z))
    m = Ideal(R, (x, y, z))
    exps = st.tuples(*[st.integers(min_value=0, max_value=4)] * 3)
    coeffs = st.integers(min_value=-3, max_value=3).filter(bool)
    seen = {"p": set(), "m": set()}

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @hypothesis.given(st.dictionaries(exps, coeffs, min_size=1, max_size=4))
    def agrees(terms):
        f = R.ring.poly_from_dict(terms)
        hypothesis.assume(not R.reduce(f).is_zero())
        for name, P, order in (("p", p, toric_ord_p), ("m", m, toric_ord_m)):
            want = order(R, k, f)
            assert ord_at(P, f, nmax=NMAX) == (min(want, NMAX), want < NMAX), (name, str(f))
            seen[name].add(min(want, NMAX))

    agrees()
    # the inputs reach orders 0 and NMAX and several between, on both primes
    assert all({0, NMAX} <= orders and len(orders) >= 5 for orders in seen.values()), seen


@pytest.mark.parametrize("nmax", (2, 3, 4))
@pytest.mark.parametrize("k", KS)
def test_theorem_sweeps_match_the_lattice(k, nmax):
    # The projective closure of R_k is cut out by the homogenized xy - z^k, of
    # degree k, so e(S) = k. A point (a, b) has m-order at least a/k, and
    # x^c is the point (kc, 0) of m-order c, so the least m-order at u-order
    # a or more is ceil(a/k). So p^(cn) lies in m^n iff cn > k(n - 1), and
    # the least c that serves every n <= nmax is floor(k(nmax - 1)/nmax) + 1.
    # p lies in m but not in m^2, so t = 1.
    R = _surface(k)
    x, y, z = R.ring.gens()
    p, m = Ideal(R, (x, z)), Ideal(R, (x, y, z))
    main_a = check_main_theorem_A(p, m, nmax)
    assert main_a.passed and main_a.details == {"e(S)": k}
    chevalley = check_improved_chevalley(p, m, nmax, A=0, B=0, C=1, E=1, e=1)
    assert chevalley.details["t"] == 1
    assert chevalley.details["C_emp"] == k * (nmax - 1) // nmax + 1
