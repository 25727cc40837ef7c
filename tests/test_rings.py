import random

import pytest

from reesval import (
    AffineAlgebra,
    Block,
    GrevLex,
    Lex,
    PolyRing,
    QQ,
    associated_graded,
    extended_rees_presentation,
    homogenize_ideal,
    lift_to_rees,
    verify_exceptional_certificate,
)
from reesval.errors import NotHomogeneousError, PreconditionError
from reesval.ideals import Ideal, kernel_of_map
from reesval.poly import PrimeField
from reesval.rings import homogenize_poly


def test_reduce_and_properness(paper_ring):
    x1, x2, x3 = paper_ring.ring.gens()
    assert paper_ring.reduce(x1 * x2 + x3**3).is_zero()
    assert paper_ring.reduce(x1 * x2) == paper_ring.reduce(-(x3**3))
    assert paper_ring.modulus_gb() != (paper_ring.ring.one,)


def test_standard_graded_assertion_checked():
    ring = PolyRing(("x", "y"), QQ, GrevLex())
    x, y = ring.gens()
    with pytest.raises(NotHomogeneousError):
        AffineAlgebra(ring, (x**2 + y,), asserted=("standard_graded",))


def test_homogenize_poly_reads_variables_by_name(poly_xy):
    x, y = poly_xy.ring.gens()
    f = x**2 + y**3 + 1
    hring = PolyRing(("X0", "y", "x"), QQ, GrevLex())
    X0, Y, X = hring.gens()
    assert homogenize_poly(f, hring) == X**2 * X0 + Y**3 + X0**3


def _closure_by_degree_basis(P, H):
    """Reduced basis of the projective closure of P in H's ring, as the
    homogenization of P's reduced grevlex basis, which generates it
    (Cox-Little-O'Shea, ch. 8 section 4, Thm. 4); no saturation."""
    ring = P.algebra.ring
    grevlex = AffineAlgebra(PolyRing(ring.names, ring.field, GrevLex()))
    basis = Ideal(grevlex, [g.to_ring(grevlex.ring) for g in P.gens]).gb()
    return Ideal(H.algebra, [homogenize_poly(g, H.algebra.ring) for g in basis]).gb()


def test_homogenize_ideal_saturates(paper_ring):
    P = Ideal(AffineAlgebra(paper_ring.ring), paper_ring.modulus)
    H = homogenize_ideal(P)
    for g in H.gens:
        assert g.is_homogeneous()
    assert H.gb() == _closure_by_degree_basis(P, H)


def test_closure_check_rejects_an_unsaturated_homogenization():
    # the raw homogenization (X0*x - y^2, x*y - X0^2) dehomogenizes to P
    # but is not saturated: the closure also holds x^2 - X0*y
    ring = PolyRing(("x", "y"), QQ, GrevLex())
    x, y = ring.gens()
    P = Ideal(AffineAlgebra(ring), (x - y**2, x * y - 1))
    H = homogenize_ideal(P)
    hring = H.algebra.ring
    X0, X, Y = hring.gens()
    raw = Ideal(H.algebra, [homogenize_poly(g, hring) for g in P.gens])
    closure = _closure_by_degree_basis(P, H)
    assert H.gb() == closure and raw.gb() != closure
    assert H.contains_poly(X**2 - X0 * Y) and not raw.contains_poly(X**2 - X0 * Y)


def test_projective_closure_names_avoid_ring_variables():
    ring = PolyRing(("X0", "x", "_x"), QQ, GrevLex())
    X0, x, _x = ring.gens()
    P = Ideal(AffineAlgebra(ring), (X0 * x - _x**3,))
    H = homogenize_ideal(P)
    assert H.algebra.ring.names == ("X0_", "X0", "x", "_x")
    assert H.gb() == _closure_by_degree_basis(P, H)


def test_closure_check_refuses_the_closure_of_another_ideal(paper_ring):
    ring = paper_ring.ring
    x1, x2, x3 = ring.gens()
    affine = AffineAlgebra(ring)
    P = Ideal(affine, paper_ring.modulus)
    HP = homogenize_ideal(P)
    for other in [(x1 * x2 - x3**3,), (x1 * x2 + x3**3, x1), (x1,)]:
        Q = Ideal(affine, other)
        HQ = homogenize_ideal(Q)
        assert HQ.gb() == _closure_by_degree_basis(Q, HQ)
        assert HQ.gb() != _closure_by_degree_basis(P, HQ)
        assert HP.gb() != _closure_by_degree_basis(Q, HP)


def _random_modulus(seed):
    """Seeded ideal of one to three polynomials of degree <= 3, each two or
    three terms with coefficients in -3..3, over QQ, Fp(7) or Fp(32003) in
    2 or 3 variables, under grevlex, lex or Block(1)."""
    rng = random.Random(seed)
    field = (QQ, PrimeField(7), PrimeField(32003))[seed % 3]
    order = (GrevLex(), Lex(), Block(1))[seed // 3 % 3]
    ring = PolyRing(("x", "y", "z")[: 2 + seed // 9 % 2], field, order)
    exps = ring.monomials_up_to_degree(3)
    gens = []
    for _ in range(rng.randint(1, 3)):
        picked = rng.sample(exps, rng.randint(2, 3))
        terms = [ring.monomial(e, rng.choice((-3, -2, -1, 1, 2, 3))) for e in picked]
        gens.append(sum(terms, ring.zero))
    return Ideal(AffineAlgebra(ring), gens)


def test_closure_agrees_with_the_degree_basis_on_seeded_moduli():
    for seed in range(60):
        P = _random_modulus(seed)
        H = homogenize_ideal(P)
        assert H.gb() == _closure_by_degree_basis(P, H), seed


def test_extended_rees_presentation_paper_example(paper_ring, paper_m):
    pres = extended_rees_presentation(paper_ring, paper_m)
    ring = pres.algebra.ring
    assert ring.names == ("y1", "y2", "y3", "u")
    y1, y2, y3, u = ring.gens()
    assert Ideal(pres.algebra, ()).algebra.modulus == (y1 * y2 + u * y3**3,)
    assert pres.weights == (1, 1, 1, -1)


def test_presentation_of_nonmaximal_ideal_keeps_base_vars(poly_xy):
    x, y = poly_xy.ring.gens()
    I = Ideal(poly_xy, (x**2, y**3))
    pres = extended_rees_presentation(poly_xy, I)
    assert set(("x", "y")) <= set(pres.algebra.ring.names)
    ring = pres.algebra.ring
    # y1 ~ x^2 T, y2 ~ y^3 T: the relation y^3*y1 - x^2*y2 must be in the kernel
    rel = ring.gen("y") ** 3 * ring.gen("y1") - ring.gen("x") ** 2 * ring.gen("y2")
    assert Ideal(pres.algebra, ()).algebra.reduce(rel).is_zero()


def _rees_kernel_by_graph(pres):
    """Kernel of k[retained x, y, u] -> R[T, Ti]/(T*Ti - 1) by x -> x,
    y_i -> f_i*T, u -> Ti, from the graph ideal; R's variables are renamed
    apart from the presentation's in the target."""
    base, source = pres.base.ring, pres.algebra.ring
    taken = PolyRing(dict.fromkeys(source.names + base.names), base.field)
    names = taken.fresh_names(*(f"b{n}" for n in base.names), "T", "Ti")
    target = PolyRing(names, base.field, GrevLex())
    rename = dict(zip(base.names, target.gens()))
    T, Ti = target.gens()[-2:]
    modulus = [m.substitute(target, rename) for m in pres.base.modulus]
    laurent = AffineAlgebra(target, modulus + [T * Ti - target.one])
    images = dict(rename)
    for y, f in zip(pres.y_names, pres.ideal_gens):
        images[y] = f.substitute(target, rename) * T
    images[pres.u_name] = Ti
    return kernel_of_map(source.names, laurent, [images[n] for n in source.names])


def _cross_check_cases():
    """(id, algebra, ideal): the ideal of the variables in and out of order
    and two ideals that keep the base variables, over QQ and Fp(7), with
    and without a modulus, and the paper ring's m listed out of order."""
    cases = []
    for field in (QQ, PrimeField(7)):
        ring = PolyRing(("x", "y"), field, GrevLex())
        x, y = ring.gens()
        moduli = {"free": (), "cusp": (x**2 - y**3,), "node": (x**2 - y**2 + y**3,)}
        for mod_name, modulus in moduli.items():
            R = AffineAlgebra(ring, modulus)
            for ideal_name, gens in [
                ("xy", (x, y)),
                ("yx", (y, x)),
                ("x2-y3", (x**2, y**3)),
                ("x2-xy+y", (x**2, x * y + y)),
            ]:
                cases.append((f"{field}-{mod_name}-{ideal_name}", R, Ideal(R, gens)))
    paper = PolyRing(("x1", "x2", "x3"), QQ, GrevLex())
    x1, x2, x3 = paper.gens()
    R = AffineAlgebra(paper, (x1 * x2 + x3**3,), asserted=("normal", "domain"))
    cases.append(("paper-x3-x1-x2", R, Ideal(R, (x3, x1, x2))))
    return cases


@pytest.mark.parametrize("case", _cross_check_cases(), ids=lambda case: case[0])
def test_presentation_is_the_kernel_of_the_graph_map(case):
    _, R, I = case
    pres = extended_rees_presentation(R, I)
    assert bool(pres.retained) == (I.gens[0] not in R.ring.gens())
    assert pres.algebra.modulus_gb() == _rees_kernel_by_graph(pres).gb()


def test_presentation_of_the_paper_ring_is_the_kernel_of_the_graph_map(paper_ring, paper_m):
    pres = extended_rees_presentation(paper_ring, paper_m)
    assert pres.algebra.modulus_gb() == _rees_kernel_by_graph(pres).gb()


def test_associated_graded_paper_example(paper_ring, paper_m):
    pres = extended_rees_presentation(paper_ring, paper_m)
    gr = associated_graded(pres)
    assert gr.ring.names == ("y1", "y2", "y3")
    y1, y2, y3 = gr.ring.gens()
    assert gr.reduce(y1 * y2).is_zero()
    assert not gr.reduce(y3**3).is_zero()
    assert "standard_graded" in gr.asserted


def test_lift_to_rees(paper_ring, paper_m):
    pres = extended_rees_presentation(paper_ring, paper_m)
    ring = pres.algebra.ring
    x1 = paper_ring.ring.gen("x1")
    assert lift_to_rees(pres, x1) == ring.gen("u") * ring.gen("y1")


def test_lift_to_rees_with_variables_out_of_order(paper_ring):
    # y_j stands for the j-th ring variable however m lists them, so a
    # modulus generator lifts to zero in the presentation
    x1, x2, x3 = paper_ring.ring.gens()
    pres = extended_rees_presentation(paper_ring, Ideal(paper_ring, (x3, x1, x2)))
    ring = pres.algebra.ring
    assert lift_to_rees(pres, x1) == ring.gen("u") * ring.gen("y1")
    lifted = lift_to_rees(pres, paper_ring.modulus[0])
    assert not lifted.is_zero()
    assert pres.algebra.reduce(lifted).is_zero()


def _gr_cases():
    """(algebra, ideal) by name: the ideal of the variables, and one
    non-maximal ideal whose presentation keeps the base variables."""
    paper = PolyRing(("x1", "x2", "x3"), QQ, GrevLex())
    x1, x2, x3 = paper.gens()
    plane = PolyRing(("x", "y"), QQ, GrevLex())
    x, y = plane.gens()
    algebras = {
        "paper": AffineAlgebra(paper, (x1 * x2 + x3**3,)),
        "paper-f-x1": AffineAlgebra(paper, (x1 * x2 + x3**3, x1)),
        "plane": AffineAlgebra(plane),
        "node": AffineAlgebra(plane, (x**2 - y**2 + y**3,)),
    }
    cases = {name: (A, Ideal(A, tuple(A.ring.gens()))) for name, A in algebras.items()}
    cases["plane-x2-y3"] = (algebras["plane"], Ideal(algebras["plane"], (x**2, y**3)))
    return cases


@pytest.mark.parametrize("case", sorted(_gr_cases()))
def test_associated_graded_matches_elimination(case):
    # gr sets u = 0 in each relation; the independent route eliminates u
    # from (modulus, u)
    R, I = _gr_cases()[case]
    pres = extended_rees_presentation(R, I)
    gr = associated_graded(pres)
    alg = pres.algebra
    elim = Ideal(alg, alg.modulus + (alg.ring.gen(pres.u_name),)).eliminate({pres.u_name})
    assert gr.ring == elim.algebra.ring
    assert gr.modulus_gb() == elim.gb()
    graded = not pres.retained and all(g.is_homogeneous() for g in elim.gens)
    assert ("standard_graded" in gr.asserted) == graded
    assert graded == (case != "plane-x2-y3")


def test_exceptional_certificate_paper_example(paper_ring, paper_m):
    pres = extended_rees_presentation(paper_ring, paper_m)
    alg = pres.algebra
    u, y1, y2 = alg.ring.gen("u"), alg.ring.gen("y1"), alg.ring.gen("y2")
    primes = (Ideal(alg, (u, y1)), Ideal(alg, (u, y2)))
    assert verify_exceptional_certificate(pres, primes, (1, 1))
    # wrong multiplicities must fail
    assert not verify_exceptional_certificate(pres, primes, (2, 1))
    # a prime not containing u must fail
    assert not verify_exceptional_certificate(pres, (Ideal(alg, (y1,)),), (1,))


def test_certificate_needs_one_multiplicity_per_prime(paper_ring, paper_m):
    pres = extended_rees_presentation(paper_ring, paper_m)
    alg = pres.algebra
    u, y1 = alg.ring.gen("u"), alg.ring.gen("y1")
    for primes, multiplicities in [((), ()), ((Ideal(alg, (u, y1)),), ())]:
        with pytest.raises(PreconditionError, match="each with a multiplicity"):
            verify_exceptional_certificate(pres, primes, multiplicities)


def test_certificate_requires_normality_assertion(paper_ring, paper_m):
    stripped = AffineAlgebra(paper_ring.ring, paper_ring.modulus)
    m = Ideal(stripped, tuple(stripped.ring.gens()))
    pres = extended_rees_presentation(stripped, m)
    alg = pres.algebra
    u, y1 = alg.ring.gen("u"), alg.ring.gen("y1")
    with pytest.raises(PreconditionError):
        verify_exceptional_certificate(pres, (Ideal(alg, (u, y1)),), (1,))


def test_zero_ideal_rejected(paper_ring):
    z = Ideal(paper_ring, (paper_ring.ring.zero,))
    with pytest.raises(PreconditionError):
        extended_rees_presentation(paper_ring, z)
