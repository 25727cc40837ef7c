import random
from itertools import combinations, permutations, product

import pytest

from reesval import (
    AffineAlgebra,
    MonomialValuation,
    PolyRing,
    QQ,
    GrevLex,
    find_min_artin_rees,
    find_min_briancon_skoda,
    gaussian_extension,
    integral_closure_power,
    membership_oracle_caratheodory,
    monomial,
    monomial_multiplicity,
    newton_polyhedron,
    groebner,
    rees_valuations_monomial,
)
from reesval.errors import PreconditionError
from reesval.ideals import Ideal
from reesval.monomial import _nullspace, _reduce
from reesval.multiplicity import length_sampler, multiplicity_from_table

from conftest import _exps_ideal


def _ideal(alg, *exps):
    return Ideal(alg, tuple(alg.ring.monomial(e) for e in exps))


def _leibniz(m):
    """Determinant as the signed sum over permutations."""
    total = 0
    for perm in permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(m)), 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def _minor_rank(m):
    """Largest k with a non-zero k x k minor."""
    if not m:
        return 0
    for k in range(min(len(m), len(m[0])), 0, -1):
        for rs in combinations(range(len(m)), k):
            for cs in combinations(range(len(m[0])), k):
                if _leibniz([[m[r][c] for c in cs] for r in rs]):
                    return k
    return 0


def _kernel_matrices():
    rng = random.Random(4242)
    fixed = [
        [[0, 1, 2], [0, 2, 5]],  # zero first column, rank 2 from later columns
        [[1, 2, 3], [2, 4, 7], [3, 6, 10]],  # column 1 skipped, later non-zero
        [[1, 2, 3], [2, 4, 6], [0, 0, 1]],  # singular square
        [[2, 3], [3, 2]],  # second pivot negative
        [[0, 0], [0, 0]],
        [[-2, 1, 0], [1, -2, 1], [0, 1, -2]],
    ]
    rand = []
    for _ in range(150):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.3:
            # a dependent row: a combination of two others
            i, j = rng.randrange(rows), rng.randrange(rows)
            m[rng.randrange(rows)] = [2 * x - y for x, y in zip(m[i], m[j])]
        rand.append(m)
    return fixed + rand


def test_reduce_shape_and_determinant():
    negative = singular = 0
    for m in _kernel_matrices():
        a, pivots, d = _reduce(m)
        assert len(pivots) == _minor_rank(m), m
        for i, pc in enumerate(pivots):
            assert [a[i][c] for c in pivots] == [d if c == pc else 0 for c in pivots]
        assert all(x == 0 for row in a[len(pivots):] for x in row), m
        negative += d < 0
        if len(m) == len(m[0]):
            det = _leibniz(m)
            assert (abs(d) if len(pivots) == len(m) else 0) == abs(det), m
            singular += det == 0
    assert negative >= 10 and singular >= 10


def test_nullspace_by_substitution():
    for m in _kernel_matrices():
        n = len(m[0])
        basis = _nullspace(m, n)
        assert len(basis) == n - _minor_rank(m), m
        for v in basis:
            assert any(v), m
            for row in m:
                assert sum(x * y for x, y in zip(row, v)) == 0, (m, v)
        # independent: the basis matrix has full rank
        assert _minor_rank(basis) == len(basis), m
    assert _nullspace([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_newton_polyhedron_x2_y3(poly_xy):
    np_ = newton_polyhedron(_ideal(poly_xy, (2, 0), (0, 3)))
    bounded = [f for f in np_.facets if f.bounded]
    assert len(bounded) == 1
    assert bounded[0].normal == (3, 2) and bounded[0].offset == 6


def test_newton_polyhedron_simplex_and_square(poly_xy):
    np1 = newton_polyhedron(_ideal(poly_xy, (1, 0), (0, 1)))
    assert [(f.normal, f.offset) for f in np1.facets if f.bounded] == [((1, 1), 1)]
    np2 = newton_polyhedron(_ideal(poly_xy, (2, 0), (1, 1), (0, 2)))
    assert [(f.normal, f.offset) for f in np2.facets if f.bounded] == [((1, 1), 2)]


def test_supporting_non_facets_rejected():
    # (3,2) supports conv{(2,0),(1,1),(0,3)} only at the middle point:
    # it must NOT appear as a facet
    np_ = newton_polyhedron(_exps_ideal([(2, 0), (1, 1), (0, 3)], 2))
    normals = {f.normal for f in np_.facets}
    assert (3, 2) not in normals
    assert {(1, 1), (2, 1)} <= normals


def test_every_generator_satisfies_facets():
    np_ = newton_polyhedron(_exps_ideal([(2, 1), (1, 3)], 2))
    for g in np_.generators:
        for f in np_.facets:
            assert sum(a * e for a, e in zip(f.normal, g)) >= f.offset


def test_rees_valuations_power_scaling(poly_xy):
    for t in (1, 2, 3):
        I = _ideal(poly_xy, *[(t - i, i) for i in range(t + 1)])
        vals = rees_valuations_monomial(I)
        assert [(v.weights, v.value_on_ideal) for v in vals] == [((1, 1), t)]


def test_integral_closure_examples(poly_xy):
    x, y = poly_xy.ring.gens()
    cl = integral_closure_power(_ideal(poly_xy, (2, 0), (0, 3)), 1)
    assert {str(g) for g in cl.gens} == {"x^2", "x*y^2", "y^3"}
    m = _ideal(poly_xy, (1, 0), (0, 1))
    for n in (1, 2, 3):
        assert integral_closure_power(m, n).equals(m.power(n))
    big = integral_closure_power(_ideal(poly_xy, (4, 0), (0, 4)), 1)
    assert big.contains_poly(x**2 * y**2)


def test_closure_product_containment(poly_xy):
    I = _ideal(poly_xy, (2, 0), (0, 3))
    for a in (1, 2):
        for b in (1, 2):
            prod = integral_closure_power(I, a).product(integral_closure_power(I, b))
            assert integral_closure_power(I, a + b).contains_ideal(prod)


def test_caratheodory_examples():
    gens = [(2, 0), (0, 3)]
    assert membership_oracle_caratheodory(gens, 2, (1, 2), 1)
    assert not membership_oracle_caratheodory(gens, 2, (1, 1), 1)
    for g in gens:
        assert membership_oracle_caratheodory(gens, 2, g, 1)


def test_caratheodory_settles_one_generator_without_a_solve(monkeypatch):
    # e >= n * g for one generator g is a hit before any simplex pivot
    def no_pivot(*args):
        raise AssertionError("pivoted")

    monkeypatch.setattr(monomial, "_pivot", no_pivot)
    gens = [(2, 0), (0, 3), (1, 1)]
    assert membership_oracle_caratheodory(gens, 2, (2, 5), 2)
    assert membership_oracle_caratheodory(gens, 2, (7, 0), 3)


def _caratheodory_by_subsets(exps, nvars, e, n=1):
    """Reference oracle: exact convex combinations by enumeration.

    A subset S of generators, a set A of coordinates where the combination
    is tight, weights solving the square system sum = n and matching e on A,
    accepted when the weights and the leftover e - sum are all nonnegative.
    Basic solutions of the feasibility LP have this shape, so the search is
    complete for any generating list. The square systems go through _reduce.
    """
    if any(x < 0 for x in e):
        return False
    if any(all(x >= n * g for x, g in zip(e, gen)) for gen in exps):
        return True
    for k in range(2, min(len(exps), nvars + 1) + 1):
        for subset in combinations(exps, k):
            columns = list(zip(*subset))
            for tight in combinations(range(nvars), k - 1):
                rows = [[1] * k + [n]] + [[*columns[j], e[j]] for j in tight]
                a, pivots, d = _reduce(rows)
                if pivots != list(range(k)):
                    continue
                s = 1 if d > 0 else -1
                lam, den = [s * row[k] for row in a], s * d
                if all(x >= 0 for x in lam) and all(
                    den * e[j] >= sum(x * g[j] for x, g in zip(lam, subset))
                    for j in range(nvars)
                ):
                    return True
    return False


# (gens, nvars, e, n, member): ratio-test ties, degenerate pivots, facet points
CARATHEODORY_HAND_ROWS = [
    ([(1, 1), (2, 0), (0, 2)], 2, (1, 1), 2, False),  # two rows tie for (1, 1)
    ([(1, 1, 1), (2, 0, 0), (0, 2, 0), (0, 0, 2)], 3, (1, 1, 1), 2, False),  # three tie
    ([(2, 0), (0, 2), (1, 1)], 2, (1, 1), 1, True),
    ([(2, 0), (0, 3)], 2, (2, 3), 2, True),  # on the facet 3x + 2y = 12
    ([(2, 0), (0, 3)], 2, (1, 4), 2, False),  # one below it
    ([(2, 0), (0, 3)], 2, (3, 2), 2, True),
    ([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)], 3, (1, 1, 0), 1, True),  # x+y+z = 2
    ([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)], 3, (2, 2, 2), 3, True),  # x+y+z = 6
    ([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)], 3, (1, 1, 3), 3, False),
    ([(0, 0), (3, 1)], 2, (0, 0), 5, True),  # the zero generator
    ([], 2, (1, 1), 0, False),  # no generator, no polyhedron
]


@pytest.mark.parametrize("gens, nvars, e, n, member", CARATHEODORY_HAND_ROWS)
def test_caratheodory_hand_rows(gens, nvars, e, n, member):
    assert membership_oracle_caratheodory(gens, nvars, e, n) == member
    assert _caratheodory_by_subsets(gens, nvars, e, n) == member
    if gens and all(any(g) for g in gens):
        np_ = newton_polyhedron(_exps_ideal(gens, nvars))
        assert np_.contains(e, n) == member


def test_simplex_agrees_with_subset_enumeration():
    # four variables, repeated and zero generators and n = 0, which
    # newton_polyhedron refuses or cannot express
    rng = random.Random(3407)
    hits = 0
    for _ in range(1500):
        nvars = rng.randint(1, 4)
        gens = [tuple(rng.randrange(4) for _ in range(nvars)) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:
            gens.append(rng.choice(gens))
        if rng.random() < 0.1:
            gens.append((0,) * nvars)
        n = rng.randint(0, 3)
        e = tuple(rng.randrange(3 * n + 2) for _ in range(nvars))
        member = membership_oracle_caratheodory(gens, nvars, e, n)
        assert member == _caratheodory_by_subsets(gens, nvars, e, n), (gens, e, n)
        hits += member
    assert min(hits, 1500 - hits) > 300


def test_caratheodory_pivots_on_the_staircase_grid(monkeypatch):
    # the n = 1, 2 grid of the staircase (x^2, y^2, z^2, xyz), 152 points;
    # the square-system search made 661 solves on it
    pivots = []
    pivot = monomial._pivot
    monkeypatch.setattr(monomial, "_pivot", lambda *a: pivots.append(a) or pivot(*a))
    gens = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)]
    grid = [(e, n) for n in (1, 2) for e in product(range(2 * n + 1), repeat=3)]
    hits = sum(membership_oracle_caratheodory(gens, 3, e, n) for e, n in grid)
    assert (len(grid), hits, len(pivots)) == (152, 128, 172)


def test_both_membership_routes_refuse_a_negative_power():
    gens = [(2, 0), (0, 3), (1, 1)]
    np_ = newton_polyhedron(_exps_ideal(gens, 2))
    with pytest.raises(PreconditionError, match="negative power"):
        np_.contains((0, 0), -1)
    with pytest.raises(PreconditionError, match="negative power"):
        membership_oracle_caratheodory(gens, 2, (0, 0), -1)
    # 0 * NP is the orthant, by either route
    for e in [(0, 0), (3, 0), (1, 2)]:
        assert np_.contains(e, 0) and membership_oracle_caratheodory(gens, 2, e, 0)


def test_facets_agree_with_caratheodory_randomized():
    rng = random.Random(90)
    for _ in range(20):
        nvars = rng.choice([2, 3])
        gens = [
            tuple(rng.randrange(5) for _ in range(nvars))
            for _ in range(rng.randint(2, 4))
        ]
        gens = [g for g in gens if sum(g) > 0]
        if not gens:
            continue
        np_ = newton_polyhedron(_exps_ideal(gens, nvars))
        degree_cap = 12 if nvars == 2 else 6
        for n in (1, 2, 3):
            for e in product(range(degree_cap + 1), repeat=nvars):
                if sum(e) > degree_cap:
                    continue
                facet = np_.contains(e, n)
                oracle = membership_oracle_caratheodory(gens, nvars, e, n)
                assert facet == oracle, (gens, e, n)


def test_monomial_multiplicity_examples(poly_xy):
    assert monomial_multiplicity(_ideal(poly_xy, (2, 0), (0, 3))) == 6
    assert monomial_multiplicity(_ideal(poly_xy, (2, 0), (1, 1), (0, 2))) == 4
    assert monomial_multiplicity(_ideal(poly_xy, (1, 0), (0, 1))) == 1
    with pytest.raises(PreconditionError):
        monomial_multiplicity(_ideal(poly_xy, (1, 1)))
    poly_x = AffineAlgebra(PolyRing(("x",), QQ, GrevLex()))
    assert monomial_multiplicity(_ideal(poly_x, (3,))) == 3


def test_monomial_multiplicity_three_vars(poly_xyz):
    assert monomial_multiplicity(_ideal(poly_xyz, (1, 0, 0), (0, 1, 0), (0, 0, 1))) == 1
    assert monomial_multiplicity(_ideal(poly_xyz, (2, 0, 0), (0, 3, 0), (0, 0, 5))) == 30
    mixed = _ideal(poly_xyz, (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1))
    assert monomial_multiplicity(mixed) == monomial_sampler_multiplicity(mixed)
    # a hexagonal facet on x + y + z = 3, pulled from one vertex into four
    # simplices; length_sampler(N=7) gives 30 as well
    hexagon = [(2, 1, 0), (1, 2, 0), (0, 2, 1), (0, 1, 2), (1, 0, 2), (2, 0, 1)]
    pure = [(4, 0, 0), (0, 4, 0), (0, 0, 4)]
    hexagonal = _ideal(poly_xyz, *hexagon, *pure)
    assert monomial_multiplicity(hexagonal) == 30
    assert monomial_sampler_multiplicity(hexagonal) == 30
    # generators on a bounded facet that are not vertices of it
    on_facet = _ideal(poly_xyz, (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0))
    assert monomial_multiplicity(on_facet) == 8
    on_facet = _ideal(poly_xyz, (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1))
    assert monomial_multiplicity(on_facet) == 27


def test_monomial_multiplicity_four_vars():
    poly_xyzw = AffineAlgebra(PolyRing(tuple("xyzw"), QQ, GrevLex()))
    squares = [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)]
    cubes = [(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)]
    for exps, e in [
        (squares, 16),
        (squares + [(1, 1, 1, 1)], 16),
        (cubes + [(1, 1, 0, 0), (0, 0, 1, 1)], 36),
    ]:
        I = _ideal(poly_xyzw, *exps)
        assert monomial_multiplicity(I) == e, exps
        assert monomial_sampler_multiplicity(I) == e, exps


def test_monomial_multiplicity_symmetry_and_scaling_property():
    # the pulling order follows the generator order and the coordinates, so
    # a tiling mistake shows up as a value that moves under a permutation
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=70)
    @hypothesis.given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([2, 3]),
    )
    def symmetric_and_homogeneous(n, seed, k):
        rng = random.Random(seed)
        gens = [
            tuple(rng.randrange(5) for _ in range(n))
            for _ in range(rng.randint(2, 8))
        ]
        gens = [g for g in gens if any(g)]
        gens += [
            tuple(rng.randint(1, 6) if j == i else 0 for j in range(n))
            for i in range(n)
        ]
        e = monomial_multiplicity(_exps_ideal(gens, n))
        perm = rng.sample(range(n), n)
        permuted = [tuple(g[p] for p in perm) for g in gens]
        assert monomial_multiplicity(_exps_ideal(permuted, n)) == e, (gens, perm)
        scaled = [tuple(k * x for x in g) for g in gens]
        assert monomial_multiplicity(_exps_ideal(scaled, n)) == k**n * e, (gens, k)

    symmetric_and_homogeneous()


def monomial_sampler_multiplicity(I):
    R = I.algebra
    table = length_sampler(R, I, N=R.ring.nvars + 4)
    e, stabilized = multiplicity_from_table(table, R.ring.nvars)
    assert stabilized
    return e


def test_volume_vs_sampler_on_m_primary_fixtures(poly_xy):
    for exps in [
        [(2, 0), (0, 3)],
        [(2, 0), (1, 1), (0, 2)],
        [(1, 0), (0, 1)],
        [(3, 0), (1, 1), (0, 2)],
    ]:
        I = _ideal(poly_xy, *exps)
        assert monomial_multiplicity(I) == monomial_sampler_multiplicity(I)


def test_valuation_value_bounded_by_multiplicity(poly_xy):
    # nu(I) <= e_I(R) for every produced Rees valuation
    for exps in [[(2, 0), (0, 3)], [(2, 0), (1, 1), (0, 2)], [(1, 0), (0, 1)]]:
        I = _ideal(poly_xy, *exps)
        e = monomial_multiplicity(I)
        for v in rees_valuations_monomial(I):
            assert v.value_on_ideal <= e


def test_gaussian_extension():
    ring = PolyRing(("x", "y", "X"), QQ, GrevLex())
    x, y, X = ring.gens()
    v = MonomialValuation(weights=(3, 2), value_on_ideal=6)
    assert gaussian_extension(v, x * X**5 + y**2, "X") == 3
    assert gaussian_extension(v, x * y, "X") == v.value((1, 1))
    rng = random.Random(31)
    for _ in range(30):
        def rand():
            f = ring.zero
            while f.is_zero():
                f = sum(
                    (
                        ring.monomial(
                            (rng.randrange(3), rng.randrange(3), rng.randrange(3)),
                            rng.randint(1, 4),
                        )
                        for _ in range(2)
                    ),
                    ring.zero,
                )
            return f

        f, g = rand(), rand()
        assert gaussian_extension(v, f * g, "X") == gaussian_extension(
            v, f, "X"
        ) + gaussian_extension(v, g, "X")


def test_briancon_skoda_bounds(poly_xy):
    assert find_min_briancon_skoda(_ideal(poly_xy, (2, 0), (0, 3)), 6) == 1
    assert find_min_briancon_skoda(_ideal(poly_xy, (1, 0), (0, 1)), 4) == 0
    with pytest.raises(PreconditionError):
        find_min_briancon_skoda(_ideal(poly_xy, (2, 0), (0, 3)), 0)


def test_briancon_skoda_computes_each_power_basis_once(poly_xy):
    # tripwire: B = 0 fails at n = 1, since xy is integral over (x^2, y^2),
    # and B = 1 asks for I^1 again; I.power(n) keeps one handle per n, so
    # I^1, I^2 and I^3 cost one buchberger call each
    with groebner.budget(groebner.DEFAULT_BUDGET) as work:
        assert find_min_briancon_skoda(_ideal(poly_xy, (2, 0), (0, 2)), 3) == 1
    assert work.calls == 3


def test_artin_rees_computes_each_basis_once(poly_xy):
    # tripwire: A = 0 fails at n = 1, and A = 1 asks for c*I^1 again; c*I^n
    # and (c) cap I^k are built once per exponent, so the 7 distinct
    # inputs (k = 1..4, n = 1..3) cost one buchberger call each
    x, y = poly_xy.ring.gens()
    with groebner.budget(groebner.DEFAULT_BUDGET) as work:
        assert find_min_artin_rees(x, Ideal(poly_xy, (x**2, y)), 3) == 1
    assert work.calls == 7


def test_artin_rees_bounds(poly_xy, paper_ring):
    x, y = poly_xy.ring.gens()
    fixtures = [
        (x, Ideal(poly_xy, (x**2, y)), poly_xy),
        (y, Ideal(poly_xy, (x, y**2)), poly_xy),
        (x + y, Ideal(poly_xy, (x, y)), poly_xy),
    ]
    for c, I, alg in fixtures:
        A = find_min_artin_rees(c, I, 4)
        assert A is not None and A <= 4
    # no n in 1..0 to check, so any A would pass vacuously
    with pytest.raises(PreconditionError):
        find_min_artin_rees(x, Ideal(poly_xy, (x**2, y)), 0)


def test_variable_limit():
    ring = PolyRing(tuple("abcde"), QQ, GrevLex())
    with pytest.raises(PreconditionError):
        newton_polyhedron(_exps_ideal([(1, 0, 0, 0, 0)], 5))
    m = Ideal(AffineAlgebra(ring), tuple(ring.gens()))
    with pytest.raises(PreconditionError, match="at most 4 variables supported"):
        monomial_multiplicity(m)
