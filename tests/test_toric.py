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

The 3-fold node Q[x,y,z,w]/(xy - zw) gets the same sweeps over every pair
of its torus-invariant primes (see `test_theorem_a_on_every_pair_of_the_node`),
and `ord_at` at its height-2 primes is checked against the lattice too.
"""

import pytest

from reesval import (
    AffineAlgebra,
    cli,
    GrevLex,
    PolyRing,
    QQ,
    check_improved_chevalley,
    check_main_theorem_A,
    local_multiplicity_via_gr,
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


# The torus-invariant primes of the node xy = zw, by their generators: the
# four of height 1, the four of height 2 and the maximal ideal m.
NODE_PRIMES = ("xz", "xw", "yz", "yw", "xyz", "xyw", "xzw", "yzw", "xyzw")


@pytest.mark.parametrize("nmax", (2, 3))
def test_theorem_a_on_every_pair_of_the_node(nmax):
    # Each height-1 prime is the facet functional that is 1 on its two
    # variables and 0 on the other two, e.g. 1 on x, z for (x, z); symbolic
    # powers of these primes are spanned by monomials. At a height-2 prime Q,
    # R_Q is regular with monomial parameters, so ord_Q of a monomial is the
    # sum of the two facet functionals of the height-1 primes inside Q: z has
    # order 1 + 1 at (x, y, z). And m^(n) = m^n, so ord_m is the degree.
    # - p of height 1: ord_q >= ord_p for every q containing p, as ord_q
    #   sums ord_p with a second functional, or is the degree, which bounds
    #   each functional. So p^(n) lies in q^(n): C_emp = 1.
    # - p of height 2 and q = m: ord_p <= 2 * degree, so C = 2 serves, and
    #   C = 1 fails at n = 2, since z lies in (x, y, z)^(2) but not in m^2.
    # A variable of ord_q 1 lies in p, so t = 1 on every pair. The closure
    # is the quadric cone xy = zw, so e(S) = 2, as the node's own local
    # multiplicity is.
    ring = PolyRing(("x", "y", "z", "w"), QQ, GrevLex())
    x, y, z, w = ring.gens()
    R = AffineAlgebra(ring, (x * y - z * w,), asserted=("normal", "domain"))
    assert local_multiplicity_via_gr(R) == 2
    primes = {g: Ideal(R, tuple(map(ring.gen, g))) for g in NODE_PRIMES}
    pairs = [(a, b) for a in NODE_PRIMES for b in NODE_PRIMES if set(a) < set(b)]
    assert len(pairs) == 16
    for a, b in pairs:
        p, q = primes[a], primes[b]
        main_a = check_main_theorem_A(p, q, nmax)
        assert main_a.passed and main_a.details == {"e(S)": 2}, (a, b)
        chevalley = check_improved_chevalley(p, q, nmax, A=0, B=0, C=1, E=1, e=2)
        assert chevalley.passed, (a, b)
        assert chevalley.details["t"] == 1, (a, b)
        assert chevalley.details["C_emp"] == (1 if len(a) == 2 else 2), (a, b)


def _node():
    """Q[x,y,z,w]/(xy - zw), normality and primality asserted."""
    ring = PolyRing(("x", "y", "z", "w"), QQ, GrevLex())
    x, y, z, w = ring.gens()
    return AffineAlgebra(ring, (x * y - z * w,), asserted=("normal", "domain"))


def _facet(a, b):
    """The facet functional of the height-1 prime (a, b): the exponent sum
    of those two variables of x, y, z, w."""
    return lambda e: sum(e["xyzw".index(v)] for v in a + b)


@pytest.mark.parametrize("prime", ("xyz", "xyw", "xzw", "yzw"))
def test_ord_at_a_height_2_prime_of_the_node(prime):
    # R_Q is regular with monomial parameters, so ord_Q of a standard
    # monomial is the sum of the two facet functionals of the height-1
    # primes inside Q, and ord_Q of f is the least of these over the terms of
    # f's normal form: distinct standard monomials (none divisible by xy) are
    # distinct characters. ord_at saturates by a proven variable outside Q
    # in a ring with a modulus, which reads a divided basis
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    R = _node()
    Q = Ideal(R, tuple(map(R.ring.gen, prime)))
    facets = [_facet(*pair) for pair in ("xz", "xw", "yz", "yw") if set(pair) < set(prime)]
    nmax = 4
    exps = st.tuples(*[st.integers(min_value=0, max_value=2)] * 4)
    coeffs = st.integers(min_value=-3, max_value=3).filter(bool)
    seen = set()

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @hypothesis.given(st.dictionaries(exps, coeffs, min_size=1, max_size=3))
    @hypothesis.example({(0, 0, 0, 0): 1, (1, 1, 1, 1): 2})  # a unit at Q: order 0
    def agrees(terms):
        f = R.ring.poly_from_dict(terms)
        hypothesis.assume(not R.reduce(f).is_zero())
        want = min(sum(F(e) for F in facets) for e, _ in R.reduce(f).terms)
        assert ord_at(Q, f, nmax=nmax) == (min(want, nmax), want < nmax), str(f)
        seen.add(min(want, nmax))

    assert len(facets) == 2
    agrees()
    assert {0, nmax} <= seen and len(seen) >= 4, seen


def test_node_symbolic_cube_of_a_height_1_prime():
    # p = (x, z) is the facet u-order: p^(3) is spanned by the monomials of
    # x-plus-z exponent at least 3, which p^3 already holds, so the
    # saturation is p^3 itself, at depth 0
    session = cli.parse_session(
        "ring { vars: x y z w; field: QQ; mod: x*y - z*w; order: grevlex; "
        "assert: normal domain }\n"
        "ideal p = x, z\n"
        "cmd: symbolic-power p 3\n"
    )
    report, ok = cli.run(session)
    assert ok
    assert report["commands"][0]["result"] == {
        "generators": ["x*y - z*w", "z^3", "x*z^2", "x^2*z", "x^3"],
        "certificate": {
            "separator": "y",
            "saturation_steps": 0,
            "radical_ok": True,
            "proven": True,
            "status": "exact",
        },
    }
