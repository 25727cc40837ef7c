import random

import pytest

from reesval import (
    AffineAlgebra,
    Block,
    GrevLex,
    Lex,
    PolyRing,
    QQ,
    groebner,
    hilbert_series_monomial,
    krull_dim,
    length_sampler,
    local_multiplicity_via_gr,
    multiplicity,
    multiplicity_from_table,
    multiplicity_graded,
    read_length_table,
)
from reesval.cli import parse_session, run
from reesval.errors import NotHomogeneousError, PreconditionError
from reesval.ideals import Ideal
from reesval.multiplicity import graded_invariants
from reesval.rings import extended_rees_presentation
from reesval.verify import check_order_ideal_theorem_presentation


def test_hilbert_series_staircase_dims():
    hs = hilbert_series_monomial(2, [(2, 0), (1, 1)])
    assert hs.coefficients(5) == [1, 2, 1, 1, 1, 1]
    assert hs.dim == 1


def test_hilbert_series_edge_cases():
    free = hilbert_series_monomial(1, [])
    assert free.numerator == (1,) and free.dim == 1 and free.multiplicity == 1
    unit = hilbert_series_monomial(2, [(0, 0)])
    assert unit.multiplicity == 0 and unit.dim == -1


def test_hilbert_series_refuses_exponents_of_the_wrong_length():
    for exps in ([(2, 0, 1)], [(1, 0), (2,)]):
        with pytest.raises(PreconditionError, match="length"):
            hilbert_series_monomial(2, exps)


def _monomials(nvars, d):
    """Exponents of the monomials of degree d in nvars variables."""
    if nvars == 0:
        return [()] if d == 0 else []
    return [(a,) + m for a in range(d + 1) for m in _monomials(nvars - 1, d - a)]


def _standard_monomials(nvars, exps, d):
    """Monomials of degree d that no x^e, e in exps, divides."""
    return sum(
        1
        for m in _monomials(nvars, d)
        if not any(all(a <= b for a, b in zip(e, m)) for e in exps)
    )


def test_non_minimal_inputs_vs_direct_enumeration():
    # the series never minimalizes its input: repeats, multiples of other
    # exponents, the zero exponent and the empty list must count the same
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, database=None, deadline=None)
    @hypothesis.given(st.data())
    def agrees(data):
        nvars = data.draw(st.integers(min_value=1, max_value=4))
        exp = st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars)
        exps = data.draw(st.lists(exp, max_size=8))
        for e in data.draw(st.lists(st.sampled_from(exps), max_size=4)) if exps else ():
            exps += [e, tuple(a + b for a, b in zip(e, data.draw(exp)))]
        if data.draw(st.integers(min_value=0, max_value=4)) == 0:
            exps.append((0,) * nvars)
        exps = data.draw(st.permutations(exps))
        top = 5 if nvars == 4 else 8
        got = hilbert_series_monomial(nvars, exps).coefficients(top)
        assert got == [_standard_monomials(nvars, exps, d) for d in range(top + 1)], exps

    agrees()


def test_random_staircases_vs_direct_enumeration():
    rng = random.Random(7)
    for _ in range(20):
        nvars = rng.choice([2, 3])
        exps = [
            tuple(rng.randrange(5) for _ in range(nvars))
            for _ in range(rng.randint(1, 5))
        ]
        exps = [e for e in exps if sum(e) > 0] or [(1,) * nvars]
        hs = hilbert_series_monomial(nvars, exps)
        assert hs.coefficients(10) == [_standard_monomials(nvars, exps, d) for d in range(11)]


# m-primary monomial ideals of the monomial workload's size
_WORKLOAD_IDEALS = {
    "x2_y2_z2_xyz": (("x", "y", "z"), ("x^2", "y^2", "z^2", "x*y*z")),
    "x4_y4_x3y": (("x", "y"), ("x^4", "y^4", "x^3*y")),
}


def _power_leads(names, gens, n):
    ring = PolyRing(names, QQ, GrevLex())
    I = Ideal(AffineAlgebra(ring), tuple(map(ring.parse, gens)))
    return [g.lead_exp for g in I.power(n).gb()]


@pytest.mark.parametrize("names, gens", _WORKLOAD_IDEALS.values(), ids=_WORKLOAD_IDEALS)
def test_workload_powers_vs_direct_enumeration(names, gens):
    # I^n holds x_i^(a*n) for every variable, a = 2 in three variables and
    # 4 in two, hence every monomial of degree 8n: the whole series is compared
    for n in range(1, 7):
        leads = _power_leads(names, gens, n)
        got = hilbert_series_monomial(len(names), leads).coefficients(8 * n)
        assert got == [_standard_monomials(len(names), leads, d) for d in range(8 * n + 1)]
        assert got[-1] == 0


def test_hilbert_series_in_no_variables():
    # k[] = k has series 1/(1-t)^0 = 1; the unit ideal leaves the zero ring
    for exps, numerator, dims in [([], (1,), [1, 0, 0, 0]), ([()], (0,), [0, 0, 0, 0])]:
        hs = hilbert_series_monomial(0, exps)
        assert hs.numerator == numerator
        assert hs.coefficients(3) == dims == [_standard_monomials(0, exps, d) for d in range(4)]


@pytest.mark.parametrize(
    "names, gens, calls",
    [(*_WORKLOAD_IDEALS["x2_y2_z2_xyz"], 105), (*_WORKLOAD_IDEALS["x4_y4_x3y"], 23)],
    ids=_WORKLOAD_IDEALS,
)
def test_numerator_work_count(names, gens, calls, monkeypatch):
    # the engine's recursive calls on the leads of I^6, pinned as a tripwire
    real, count = multiplicity._numerator, [0]

    def counting(*args):
        count[0] += 1
        return real(*args)

    leads = _power_leads(names, gens, 6)
    monkeypatch.setattr(multiplicity, "_numerator", counting)
    hilbert_series_monomial(len(names), leads)
    assert count[0] == calls


def test_multiplicity_graded_examples():
    hring = PolyRing(("X0", "X1", "X2", "X3"), QQ, GrevLex())
    X0, X1, X2, X3 = hring.gens()
    S = AffineAlgebra(hring, (X0 * X1 * X2 + X3**3,), asserted=("standard_graded",))
    assert multiplicity_graded(S) == 3
    free = AffineAlgebra(PolyRing(("a", "b"), QQ, GrevLex()))
    assert multiplicity_graded(free) == 1
    gring = PolyRing(("y1", "y2", "y3"), QQ, GrevLex())
    y1, y2, _ = gring.gens()
    G = AffineAlgebra(gring, (y1 * y2,))
    assert multiplicity_graded(G) == 2
    assert graded_invariants(Ideal(G, ())) == (2, 2)


@pytest.mark.parametrize("order", [GrevLex(), Lex(), Block(1), Block(2)], ids=repr)
def test_graded_invariants_do_not_depend_on_the_term_order(order):
    # a homogeneous ideal has the Hilbert function of its initial ideal
    # under any order: the projective twisted cubic has degree 3, dim 2
    ring = PolyRing(("X0", "X1", "X2", "X3"), QQ, order)
    cubic = ("X1^2 - X0*X2", "X1*X2 - X0*X3", "X2^2 - X1*X3")
    S = AffineAlgebra(ring, tuple(map(ring.parse, cubic)))
    assert graded_invariants(Ideal(S, ())) == (3, 2)
    with pytest.raises(NotHomogeneousError):
        graded_invariants(Ideal(AffineAlgebra(ring, (ring.parse("X1^2 - X0"),)), ()))


def test_empty_ideal_shares_the_modulus_basis():
    ring = PolyRing(("x", "y", "z"), QQ, GrevLex())
    x, y, z = ring.gens()
    A = AffineAlgebra(ring, (y - x**2, z - x**3))
    assert Ideal(A, ()).gb() is A.zero_ideal.gb()
    assert Ideal(A, (ring.zero,)).gb() is A.zero_ideal.gb()
    with groebner.budget(10) as work:
        assert krull_dim(Ideal(A, ())) == 1
    assert work.divisions == 0


def test_local_multiplicity_examples(paper_ring):
    x1, x2, x3 = paper_ring.ring.gens()
    assert local_multiplicity_via_gr(paper_ring) == 2
    assert local_multiplicity_via_gr(paper_ring, x1) == 3
    cusp_ring = AffineAlgebra(PolyRing(("x", "y"), QQ, GrevLex()))
    x, y = cusp_ring.ring.gens()
    assert local_multiplicity_via_gr(cusp_ring, x**2 + y**3) == 2


def test_local_multiplicity_requires_origin(paper_ring):
    x1 = paper_ring.ring.gen("x1")
    with pytest.raises(PreconditionError):
        local_multiplicity_via_gr(paper_ring, x1 + 1)


def test_length_sampler_regular(poly_xy, poly_xyz):
    x, y = poly_xy.ring.gens()
    m = Ideal(poly_xy, (x, y))
    table = length_sampler(poly_xy, m, N=5)
    assert table == [(n, n * (n + 1) // 2) for n in range(1, 6)]
    e, stabilized = multiplicity_from_table(table, 2)
    assert (e, stabilized) == (1, True)
    # x + 1 is a unit modulo every power of (x, y, z): every quotient is zero
    x, y, z = poly_xyz.ring.gens()
    m = Ideal(poly_xyz, (x, y, z))
    assert length_sampler(poly_xyz, m, f=x + 1, N=3) == [(1, 0), (2, 0), (3, 0)]


def test_length_sampler_refuses_an_empty_table(poly_xy):
    x, y = poly_xy.ring.gens()
    with pytest.raises(PreconditionError, match=r"^N must be at least 1, got 0$"):
        length_sampler(poly_xy, Ideal(poly_xy, (x, y)), N=0)


def test_length_sampler_monomial_ideal(poly_xy):
    x, y = poly_xy.ring.gens()
    I = Ideal(poly_xy, (x**2, y**3))
    table = length_sampler(poly_xy, I, N=6)
    e, stabilized = multiplicity_from_table(table, 2)
    assert e == 6 and stabilized


def test_length_sampler_rejects_positive_dimension(poly_xy, paper_ring):
    x, _ = poly_xy.ring.gens()
    with pytest.raises(PreconditionError, match="not zero-dimensional"):
        length_sampler(poly_xy, Ideal(poly_xy, (x,)), N=2)
    x1 = paper_ring.ring.gen("x1")
    with pytest.raises(PreconditionError, match="not zero-dimensional"):
        length_sampler(paper_ring, Ideal(paper_ring, (x1,)), N=2)


def test_table_refuses_a_point_other_than_the_origin(poly_xy):
    # (x^2 - x, y) meets the origin and (1, 0); its lengths (2, 6, 12, 20)
    # add both points, so their difference 2 is not the multiplicity 1 at
    # the origin, and every reader of the table refuses it
    x, y = poly_xy.ring.gens()
    I = Ideal(poly_xy, (x**2 - x, y))
    with pytest.raises(PreconditionError, match="^quotient has a point other than the origin$"):
        read_length_table(poly_xy, I, N=6)
    report, ok = run(parse_session("ring { vars: x y }\nideal I = x^2 - x, y\ncmd: length-table I 4"))
    assert not ok
    assert report["commands"][0]["error"] == "quotient has a point other than the origin"
    # f = x cuts the point (1, 0) away and leaves the origin alone; x - 1
    # cuts the origin away and leaves (1, 0)
    assert length_sampler(poly_xy, I, f=x, N=3) == [(1, 1), (2, 2), (3, 3)]
    with pytest.raises(PreconditionError, match="point other than the origin"):
        length_sampler(poly_xy, I, f=x - 1, N=2)


def test_table_refuses_a_dimension_above_the_one_at_the_origin():
    # R = Q[x,y,z]/(x(z-1), y(z-1)) is the z-axis and the plane z = 1; only
    # the axis meets the origin, where e = 1, but dim R = 2 and the second
    # differences of the lengths (1, 2, 3, ...) settle at 0. Every reader
    # that takes the Krull dimension as the local one refuses that reading
    x, y, z = PolyRing(("x", "y", "z"), QQ, GrevLex()).gens()
    R = AffineAlgebra(x.ring, (x * (z - 1), y * (z - 1)))
    m = Ideal(R, (x, y, z))
    assert local_multiplicity_via_gr(R) == 1 and krull_dim(Ideal(R, ())) == 2
    refused = "^length table reads e = 0 in dimension 2: the dimension at the origin is smaller$"
    with pytest.raises(PreconditionError, match=refused):
        read_length_table(R, m, N=6)
    # R/(z(z-1)) keeps the plane but is a point at the origin; with no
    # exceptional prime the check goes straight to its table
    pres = extended_rees_presentation(R, m)
    with pytest.raises(PreconditionError, match=refused):
        check_order_ideal_theorem_presentation(m, z * (z - 1), pres, [])
    text = "ring { vars: x y z; mod: x*z - x, y*z - y }\nideal m = x, y, z\ncmd: length-table m 5"
    report, ok = run(parse_session(text))
    assert not ok
    assert report["commands"][0]["error"] == refused[1:-1]


def test_table_paper_ring_f_x1(paper_ring, paper_m):
    x1 = paper_ring.ring.gen("x1")
    table = length_sampler(paper_ring, paper_m, f=x1, N=6)
    dim = krull_dim(Ideal(paper_ring, (x1,)))
    assert dim == 1
    e, stabilized = multiplicity_from_table(table, dim)
    assert e == 3 and stabilized
    # second differences of the same table vanish eventually: the length
    # function is linear in n
    second, stab2 = multiplicity_from_table(table, 2)
    assert second == 0 and stab2


def test_table_too_short(poly_xy):
    with pytest.raises(PreconditionError):
        multiplicity_from_table([(1, 1), (2, 3)], 2)


def _cross_check(R, I_gens, f=None):
    I = Ideal(R, I_gens)
    via_gr = local_multiplicity_via_gr(R, f)
    _table, _dim, via_table, stabilized = read_length_table(R, I, f=f, N=6)
    assert stabilized and via_gr == via_table
    return via_gr


def test_gr_vs_sampler_on_fixture_rings(paper_ring):
    # five fixtures where both routes apply
    x1, x2, x3 = paper_ring.ring.gens()
    assert _cross_check(paper_ring, (x1, x2, x3)) == 2
    assert _cross_check(paper_ring, (x1, x2, x3), f=x1) == 3
    assert _cross_check(paper_ring, (x1, x2, x3), f=x1 * x2) == 6

    plane = AffineAlgebra(PolyRing(("x", "y"), QQ, GrevLex()))
    x, y = plane.ring.gens()
    assert _cross_check(plane, (x, y)) == 1
    assert _cross_check(plane, (x, y), f=x**2 + y**3) == 2

    node = AffineAlgebra(
        PolyRing(("x", "y"), QQ, GrevLex()),
        (plane.ring.parse("x^2 - y^2 + y^3"),),
    )
    assert _cross_check(node, tuple(node.ring.gens())) == 2


def test_krull_dim(poly_xyz, paper_ring):
    x, y, z = poly_xyz.ring.gens()
    assert krull_dim(Ideal(poly_xyz, ())) == 3
    assert krull_dim(Ideal(poly_xyz, (x,))) == 2
    assert krull_dim(Ideal(poly_xyz, (x, y, z))) == 0
    assert krull_dim(Ideal(paper_ring, ())) == 2
