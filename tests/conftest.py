import pytest

from reesval import AffineAlgebra, GrevLex, PolyRing, QQ
from reesval.ideals import Ideal


def _exps_ideal(exps, nvars):
    """The monomial ideal of the exponent tuples exps in QQ[x0..x{nvars-1}]."""
    ring = PolyRing(tuple(f"x{i}" for i in range(nvars)), QQ, GrevLex())
    return Ideal(AffineAlgebra(ring), tuple(map(ring.monomial, exps)))


@pytest.fixture
def paper_ring():
    """Q[x1,x2,x3]/(x1*x2 + x3^3), normality and primality asserted."""
    ring = PolyRing(("x1", "x2", "x3"), QQ, GrevLex())
    x1, x2, x3 = ring.gens()
    return AffineAlgebra(ring, (x1 * x2 + x3**3,), asserted=("normal", "domain"))


@pytest.fixture
def paper_m(paper_ring):
    return Ideal(paper_ring, tuple(paper_ring.ring.gens()))


@pytest.fixture
def poly_xy():
    ring = PolyRing(("x", "y"), QQ, GrevLex())
    return AffineAlgebra(ring)


@pytest.fixture
def poly_xyz():
    ring = PolyRing(("x", "y", "z"), QQ, GrevLex())
    return AffineAlgebra(ring)
