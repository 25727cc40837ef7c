"""Every refusal in this table raises its exception with its exact message.

One row per raise that no other test reaches. A refusal a session file
can reach is also run from one: it must come back as the command's
recorded error, with exit status 1, never as a traceback.
"""

import pytest

from reesval import AffineAlgebra, GrevLex, Lex, PolyRing, QQ
from reesval.cli import main, parse_session, run
from reesval.errors import PreconditionError, RingMismatchError
from reesval.groebner import buchberger, normal_form
from reesval.ideals import Ideal, kernel_of_map
from reesval.monomial import (
    MonomialValuation,
    gaussian_extension,
    membership_oracle_caratheodory,
    newton_polyhedron,
)
from reesval.multiplicity import graded_invariants, local_multiplicity_via_gr
from reesval.rings import extended_rees_presentation, homogenize_ideal, lift_to_rees
from reesval.symbolic import symbolic_power
from reesval.verify import (
    check_improved_chevalley,
    check_izumi_valuation_bound,
    check_order_ideal_theorem_graded,
    compute_normalized_ord,
)

PLANE = AffineAlgebra(PolyRing(("x", "y"), QQ, GrevLex()))
X, Y = PLANE.ring.gens()
CONE_RING = PolyRing(("x1", "x2", "x3"), QQ, GrevLex())
X1, X2, X3 = CONE_RING.gens()
CONE = AffineAlgebra(CONE_RING, (X1 * X2 + X3**3,), asserted=("normal", "domain"))
XT = PolyRing(("x", "t"), QQ, GrevLex())
YX_LEX = PolyRing(("y", "x"), QQ, Lex())


def _izumi_with_one_prime():
    pres = extended_rees_presentation(CONE, Ideal(CONE, (X1, X2, X3)))
    return check_izumi_valuation_bound(pres, [Ideal(pres.algebra, ())], [X1], 1)


REFUSALS = [
    pytest.param(
        lambda: Ideal(PLANE, (X,)).eliminate(("w",)),
        PreconditionError, "unknown variable in drop set", None, id="ideals-eliminate",
    ),
    pytest.param(
        lambda: Ideal(PLANE, (X, Y)).saturate(PLANE.ring.zero),
        PreconditionError, "colon by zero", "ideal I = x, y\ncmd: saturate I 0",
        id="ideals-saturate",
    ),
    pytest.param(
        lambda: kernel_of_map(("a", "b"), PLANE, (X,)),
        PreconditionError, "one image per source variable", None, id="ideals-kernel-count",
    ),
    pytest.param(
        lambda: kernel_of_map(("x",), PLANE, (Y,)),
        PreconditionError, "source names must be disjoint from target names", None,
        id="ideals-kernel-names",
    ),
    pytest.param(
        lambda: homogenize_ideal(Ideal(CONE, (X1,))),
        PreconditionError, "homogenize_ideal wants an ideal of a polynomial ring", None,
        id="rings-homogenize",
    ),
    pytest.param(
        lambda: lift_to_rees(extended_rees_presentation(PLANE, Ideal(PLANE, (X**2, Y))), X),
        PreconditionError, "lift supported only when I is generated by the variables", None,
        id="rings-lift",
    ),
    pytest.param(
        lambda: symbolic_power(Ideal(PLANE, (X, Y)), -1),
        PreconditionError, "negative symbolic power", None, id="symbolic-power",
    ),
    pytest.param(
        lambda: graded_invariants(Ideal(PLANE, (PLANE.ring.one,))),
        PreconditionError, "algebra is the zero ring", None, id="multiplicity-zero-ring",
    ),
    pytest.param(
        lambda: local_multiplicity_via_gr(AffineAlgebra(PLANE.ring, (X - 1,))),
        PreconditionError, "origin is not on the variety", None, id="multiplicity-origin",
    ),
    pytest.param(
        lambda: local_multiplicity_via_gr(CONE, X1 * X2 + X3**3),
        PreconditionError, "f is zero in the algebra", None, id="multiplicity-f-zero",
    ),
    pytest.param(
        lambda: check_order_ideal_theorem_graded(PLANE, PLANE.ring.zero),
        PreconditionError, "F is zero in S", "cmd: check order-ideal-graded --F 0",
        id="verify-graded-zero",
    ),
    pytest.param(
        lambda: check_order_ideal_theorem_graded(PLANE, X + 1),
        PreconditionError, "F must be homogeneous", None, id="verify-graded-inhomogeneous",
    ),
    pytest.param(
        _izumi_with_one_prime,
        PreconditionError, "need at least two exceptional primes", None, id="verify-izumi",
    ),
    pytest.param(
        lambda: check_improved_chevalley(
            Ideal(PLANE, (X,)), Ideal(PLANE, (Y,)), 2, A=0, B=0, C=1, E=1, e=1
        ),
        PreconditionError, "p is not contained in q",
        "ideal p = x\nideal q = y\ncmd: check chevalley --p p --q q", id="verify-chevalley",
    ),
    pytest.param(
        lambda: compute_normalized_ord(Ideal(PLANE, (X,)), Ideal(PLANE, (X,))),
        PreconditionError, "no valuations available for q", None, id="verify-normalized-ord",
    ),
    pytest.param(
        lambda: newton_polyhedron(Ideal(CONE, (X1,))),
        PreconditionError, "monomial machinery wants a polynomial ring", None,
        id="monomial-modulus",
    ),
    pytest.param(
        lambda: newton_polyhedron(Ideal(PLANE, (X + Y,))),
        PreconditionError, "generators must be monomials", None, id="monomial-binomial",
    ),
    pytest.param(
        lambda: newton_polyhedron(Ideal(PLANE, ())),
        PreconditionError, "empty generating set", None, id="monomial-empty",
    ),
    pytest.param(
        lambda: newton_polyhedron(Ideal(PLANE, tuple(X**i * Y ** (12 - i) for i in range(13)))),
        PreconditionError, "at most 12 generators supported", None, id="monomial-generators",
    ),
    pytest.param(
        lambda: membership_oracle_caratheodory([(2, 0), (0, 3)], 2, (1,)),
        PreconditionError, "exponents must have 2 entries", None, id="caratheodory-short-e",
    ),
    pytest.param(
        lambda: membership_oracle_caratheodory([(2, 0, 1), (0, 3)], 2, (1, 1)),
        PreconditionError, "exponents must have 2 entries", None,
        id="caratheodory-long-generator",
    ),
    pytest.param(
        lambda: membership_oracle_caratheodory([(2, -1), (0, 3)], 2, (1, 1)),
        PreconditionError, "generators must have nonnegative exponents", None,
        id="caratheodory-negative-generator",
    ),
    pytest.param(
        lambda: newton_polyhedron(Ideal(PLANE, (X**2, Y**3))).contains((1,)),
        PreconditionError, "exponents must have 2 entries", None, id="newton-contains-short",
    ),
    pytest.param(
        lambda: gaussian_extension(MonomialValuation((1,), 1), XT.zero, "t"),
        PreconditionError, "valuation of zero", None, id="monomial-gaussian-zero",
    ),
    pytest.param(
        lambda: normal_form(X, [XT.gens()[0]]),
        RingMismatchError, "polynomial from a different ring", None, id="groebner-ring",
    ),
    pytest.param(
        # the S-pair of x^(2^24 - 1) + 1 and y*x + x^2 shifts x^2 to x^(2^24)
        lambda: buchberger([YX_LEX.parse(f"x^{2**24 - 1} + 1"), YX_LEX.parse("y*x + x^2")]),
        PreconditionError,
        "an exponent exceeds 16777215 = 2^24 - 1, the Groebner limit",
        None,
        id="groebner-s-pair-limit",
    ),
]


@pytest.mark.parametrize("call, error, message, session", REFUSALS)
def test_refusal_message(call, error, message, session, tmp_path, capsys):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
    if session is None:
        return
    text = f"ring {{ vars: x y }}\n{session}\n"
    report, ok = run(parse_session(text))
    assert not ok
    assert report["commands"][-1]["error"] == message
    path = tmp_path / "refused.session"
    path.write_text(text)
    assert main([str(path)]) == 1
    assert "Traceback" not in capsys.readouterr().err
