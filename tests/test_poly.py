import random
import time
from fractions import Fraction
from functools import cmp_to_key

import pytest

from reesval import Block, GrevLex, Lex, PolyRing, PrimeField, QQ
from reesval.errors import PreconditionError, RingMismatchError
from reesval.poly import _is_prime


def test_basic_arithmetic():
    R = PolyRing(("x", "y"), QQ, GrevLex())
    x, y = R.gens()
    f = (x + y) ** 2
    assert f == x**2 + 2 * x * y + y**2
    assert f - f == 0
    assert (f * 0).is_zero()
    assert (x - y) * (x + y) == x**2 - y**2


def test_leading_term_grevlex_vs_lex():
    R = PolyRing(("x", "y", "z"), QQ, GrevLex())
    x, y, z = R.gens()
    f = x * z + y**2  # same degree; grevlex prefers y^2 (smaller last exponent)
    assert f.lead_exp == (0, 2, 0)


def test_block_order_isolates_front_variables():
    R = PolyRing(("t", "x", "y"), QQ, Block(1))
    t, x, y = R.gens()
    f = t + x**5 * y**5
    assert f.lead_exp == (1, 0, 0)


def test_prime_field_arithmetic():
    F = PrimeField(7)
    assert F.inv(3) == 5
    assert F.coerce(Fraction(1, 3)) == 5
    assert F.coerce(-1) == 6
    with pytest.raises(ValueError):
        PrimeField(6)
    R = PolyRing(("x",), F, GrevLex())
    x = R.gen("x")
    assert (x * 7).is_zero()
    assert (3 * x + 4 * x) == 0
    # the derivative of x^7 is 7*x^6 = 0 in characteristic 7
    assert (x**7 + x**2).diff(0) == 2 * x


def test_prime_field_primality_exact_and_bounded():
    assert PrimeField(10**18 + 3).p == 10**18 + 3  # trial division took minutes
    sieve = [p for p in range(2, 2000) if all(p % d for d in range(2, p))]
    assert [p for p in range(2000) if _is_prime(p)] == sieve
    # 10**18 + 1 = 101 * 9901 * 999999000001; the next is a strong
    # pseudoprime to the bases 2..37 that base 41 exposes; the last is the
    # bound itself, a strong pseudoprime to every base used
    for p in (10**18 + 1, 318665857834031151167461, 3317044064679887385961981):
        with pytest.raises(ValueError):
            PrimeField(p)


def test_parse_round_trip():
    R = PolyRing(("x1", "x2", "x3"), QQ, GrevLex())
    samples = [
        "x1*x2 + x3^3",
        "2*x1^2 - 3/4*x2 + 1",
        "-x1 + x2*x3",
        "5",
    ]
    for s in samples:
        f = R.parse(s)
        assert R.parse(str(f)) == f


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(32003)], ids=str)
def test_parse_round_trip_property(field):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    R = PolyRing(("x1", "x2", "x3"), field, GrevLex())
    if field == QQ:
        coeffs = st.fractions(min_value=-100, max_value=100, max_denominator=50)
    else:
        coeffs = st.integers(min_value=0, max_value=field.p - 1)
    exps = st.tuples(*[st.integers(min_value=0, max_value=4)] * 3)

    @hypothesis.settings(derandomize=True, database=None)
    @hypothesis.given(st.dictionaries(exps, coeffs, max_size=6))
    def round_trip(terms):
        f = R.poly_from_dict({e: field.coerce(c) for e, c in terms.items()})
        assert R.parse(str(f)) == f

    round_trip()


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=str)
def test_ring_axioms_property(field):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    R = PolyRing(("x1", "x2", "x3"), field, GrevLex())
    if field == QQ:
        coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=9)
    else:
        coeffs = st.integers(min_value=0, max_value=field.p - 1)
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * 3)
    polys = st.dictionaries(exps, coeffs, max_size=4).map(
        lambda terms: R.poly_from_dict({e: field.coerce(c) for e, c in terms.items()})
    )

    @hypothesis.settings(derandomize=True, database=None)
    @hypothesis.given(polys, polys, polys)
    def axioms(f, g, h):
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f + g == g + f
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert f + R.zero == f
        assert f * R.one == f
        assert f + (-f) == R.zero

    axioms()


def test_fresh_names_avoid_the_ring_and_each_other():
    R = PolyRing(("x", "x_", "_x"), QQ)
    assert R.fresh_names("t", "_x", "_x_", "x") == ("t", "_x_", "_x__", "x__")


@pytest.mark.parametrize(
    "text, terms",
    [
        ("2x", {(1, 0): 2}),
        ("x y", {(1, 1): 1}),
        ("x*2", {(1, 0): 2}),
        ("2*3*x", {(1, 0): 6}),
        ("- x", {(1, 0): -1}),
        ("x ^ 2", {(2, 0): 1}),
        ("1/2x", {(1, 0): Fraction(1, 2)}),
        ("x\t+\ty", {(1, 0): 1, (0, 1): 1}),
    ],
)
def test_parse_accepted_forms(text, terms):
    R = PolyRing(("x", "y"), QQ, GrevLex())
    assert R.parse(text) == R.poly_from_dict({e: Fraction(c) for e, c in terms.items()})


def test_parse_reads_the_longest_name():
    R = PolyRing(("x",), QQ, GrevLex())
    with pytest.raises(PreconditionError, match="unknown variable 'x2'"):
        R.parse("x2")


def test_parse_rejects_garbage():
    R = PolyRing(("x",), QQ, GrevLex())
    for bad in ["", "x +", "x ^", "y", "x**2", "1..2", "--x", "x - - y", "+x",
                "x 2", "2 3", "1/2/3", "x^-1", "x^2^3", "*x"]:
        with pytest.raises(PreconditionError):
            R.parse(bad)


@pytest.mark.parametrize("text", ["x*", "x* + y", "3/0*x", "x + 1/0"])
def test_parse_rejects_trailing_star_and_zero_denominator(text):
    R = PolyRing(("x", "y"), QQ, GrevLex())
    with pytest.raises(PreconditionError):
        R.parse(text)


_ALPHABET = ["x", "y", "x2", "_", "0", "2", "17", "1/7", "1/0", "/", "*", "^",
             "+", "-", " ", "\t", "!", "."]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=str)
def test_parse_reads_or_refuses_any_text_property(field):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    R = PolyRing(("x", "y"), field, GrevLex())

    @hypothesis.settings(derandomize=True, database=None, max_examples=400)
    @hypothesis.given(st.lists(st.sampled_from(_ALPHABET), max_size=12).map("".join))
    def reads_or_refuses(text):
        try:
            R.parse(text)
        except PreconditionError:
            pass

    reads_or_refuses()


@pytest.mark.parametrize(
    "text",
    ["x" * 50_000 + "!", " " * 50_000 + "!", "x*" * 25_000, "x " * 25_000 + "!",
     "x^" + "1" * 50_000 + "!"],
    ids=["long-name", "leading-spaces", "trailing-star", "spaced-names", "long-exponent"],
)
def test_parse_time_is_linear(text):
    R = PolyRing(("x",), QQ, GrevLex())
    start = time.perf_counter()
    with pytest.raises(PreconditionError):
        R.parse(text)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("name", ["1x", "x-y", "x y", "", "x!"])
def test_ring_rejects_names_polynomials_cannot_use(name):
    with pytest.raises(ValueError, match=repr(name)):
        PolyRing(("z", name), QQ)


def test_ring_mismatch_detected():
    A = PolyRing(("x",), QQ, GrevLex())
    B = PolyRing(("x",), QQ, Lex())
    with pytest.raises(RingMismatchError):
        A.gen("x") + B.gen("x")


def test_is_homogeneous():
    R = PolyRing(("x", "y"), QQ, GrevLex())
    x, y = R.gens()
    assert not (x**2 + y**3).is_homogeneous()
    assert (x * y + y**2).is_homogeneous()


def test_to_ring_goes_by_name_into_any_order():
    R = PolyRing(("x", "y", "z"), QQ, GrevLex())
    x, y, z = R.gens()
    f = x * z + y**2 + 3 * y
    L = PolyRing(("z", "y", "x", "w"), QQ, Lex())
    Z, Y, X, _ = L.gens()
    g = f.to_ring(L)
    assert g == X * Z + Y**2 + 3 * Y
    assert g.lead_exp == (1, 0, 1, 0)  # lex on z first
    assert g.to_ring(R) == f


def test_to_ring_refuses_a_used_variable_the_target_lacks():
    R = PolyRing(("x", "y"), QQ, GrevLex())
    S = PolyRing(("x", "z"), QQ, GrevLex())
    with pytest.raises(RingMismatchError, match="'y'"):
        (R.gen("x") + R.gen("y")).to_ring(S)


def test_to_ring_needs_no_counterpart_for_an_unused_variable():
    R = PolyRing(("t", "x", "y"), QQ, Block(1))
    S = PolyRing(("y", "x"), QQ, GrevLex())
    _, x, y = R.gens()
    assert (x**2 - 2 * y + 1).to_ring(S) == S.parse("x^2 - 2*y + 1")
    assert R.zero.to_ring(S) == S.zero


def test_substitute_maps_variables_without_an_image_to_themselves():
    R = PolyRing(("x", "y"), QQ, GrevLex())
    S = PolyRing(("a", "y", "x"), QQ, GrevLex())
    x, y = R.gens()
    a, Y, X = S.gens()
    f = x**2 + x * y
    assert f.substitute(S, {"x": a + 1}) == (a + 1) ** 2 + (a + 1) * Y
    assert f.substitute(S, {}) == X**2 + X * Y
    assert f.substitute(S, {"x": a, "y": a * X}) == a**2 + a**2 * X


def test_substitute_refuses_a_used_variable_with_no_image_or_namesake():
    R = PolyRing(("x", "y"), QQ, GrevLex())
    S = PolyRing(("a", "b", "c"), QQ, GrevLex())
    x, y = R.gens()
    a, b, c = S.gens()
    with pytest.raises(RingMismatchError, match="'y'"):
        (x**2 + x * y).substitute(S, {"x": a})
    assert (x**2).substitute(S, {"x": b * c}) == b**2 * c**2


# comparators written from each order's definition, independent of order.key


def _cmp(a, b):
    return (a > b) - (a < b)


def _lex(a, b):
    return next((_cmp(x, y) for x, y in zip(a, b) if x != y), 0)


def _grevlex(a, b):
    # higher total degree wins; then the smaller last differing exponent
    return _cmp(sum(a), sum(b)) or _lex(b[::-1], a[::-1])


def _block(k, front, back):
    return lambda a, b: front(a[:k], b[:k]) or back(a[k:], b[k:])


@pytest.mark.parametrize(
    "order, compare",
    [
        (Lex(), _lex),
        (GrevLex(), _grevlex),
        (Block(1), _block(1, _grevlex, _grevlex)),
        (Block(2), _block(2, _grevlex, _grevlex)),
    ],
    ids=["lex", "grevlex", "block1", "block2"],
)
def test_canonical_terms_sorted_descending(order, compare):
    rng = random.Random(11)
    R = PolyRing(("x", "y", "z"), QQ, order)
    for _ in range(20):
        d = {
            tuple(rng.randrange(4) for _ in range(3)): Fraction(rng.randint(-5, 5))
            for _ in range(6)
        }
        f = R.poly_from_dict(d)
        exps = [e for e, _ in f.terms]
        assert exps == sorted(exps, key=cmp_to_key(compare), reverse=True)
        assert all(c != 0 for _, c in f.terms)


def test_pow_matches_repeated_multiplication():
    R = PolyRing(("x", "y"), QQ, GrevLex())
    x, y = R.gens()
    f = x + 2 * y + 1
    g = R.one
    for _ in range(5):
        g = g * f
    assert f**5 == g
