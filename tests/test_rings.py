import pytest

from reesval import (
    AffineAlgebra,
    GrevLex,
    PolyRing,
    QQ,
    associated_graded,
    extended_rees_presentation,
    homogenize_ideal,
    lift_to_rees,
    verify_exceptional_certificate,
)
from reesval.errors import NotHomogeneousError, PreconditionError
from reesval.ideals import Ideal
from reesval.rings import check_projective_closure_iso, homogenize_poly


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


def test_homogenize_ideal_saturates(paper_ring):
    P = Ideal(AffineAlgebra(paper_ring.ring), paper_ring.modulus)
    H = homogenize_ideal(P)
    for g in H.gens:
        assert g.is_homogeneous()
    hring = H.algebra.ring
    X0, X1, X2, X3 = hring.gens()
    assert H.contains_poly(X0 * X1 * X2 + X3**3)


def test_projective_closure_chart_identity(paper_ring):
    P = Ideal(AffineAlgebra(paper_ring.ring), paper_ring.modulus)
    H = homogenize_ideal(P)
    assert check_projective_closure_iso(P, H)


def test_projective_closure_names_avoid_ring_variables():
    ring = PolyRing(("X0", "x", "_x"), QQ, GrevLex())
    X0, x, _x = ring.gens()
    P = Ideal(AffineAlgebra(ring), (X0 * x - _x**3,))
    H = homogenize_ideal(P)
    assert H.algebra.ring.names == ("X0_", "X0", "x", "_x")
    assert check_projective_closure_iso(P, H)


def test_extended_rees_presentation_paper_example(paper_ring, paper_m):
    pres = extended_rees_presentation(paper_ring, paper_m)
    ring = pres.algebra.ring
    assert ring.names == ("y1", "y2", "y3", "u")
    y1, y2, y3, u = ring.gens()
    assert Ideal(pres.algebra, ()).algebra.modulus == (y1 * y2 + u * y3**3,)
    assert pres.weights == (1, 1, 1, -1)
    assert pres.back_substitution_holds()
    # the defining relation is homogeneous of weight 2 for the Z-grading
    assert pres.grading_weight(pres.algebra.modulus[0]) == 2


def test_presentation_of_nonmaximal_ideal_keeps_base_vars(poly_xy):
    x, y = poly_xy.ring.gens()
    I = Ideal(poly_xy, (x**2, y**3))
    pres = extended_rees_presentation(poly_xy, I)
    assert set(("x", "y")) <= set(pres.algebra.ring.names)
    assert pres.back_substitution_holds()
    ring = pres.algebra.ring
    # y1 ~ x^2 T, y2 ~ y^3 T: the relation y^3*y1 - x^2*y2 must be in the kernel
    rel = ring.gen("y") ** 3 * ring.gen("y1") - ring.gen("x") ** 2 * ring.gen("y2")
    assert Ideal(pres.algebra, ()).algebra.reduce(rel).is_zero()


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
    assert pres.back_substitution_holds()
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
