"""Projective closures and extended Rees presentations, each one saturation
by a variable (`Ideal._saturation_gens`) over the affine algebras of
`ideals`; no elimination ring is built here. Base and presentation
variables are matched by name (`to_ring`); the homogenizing X0 is the one
variable read by position, as the first of its ring.

Normality / primality of user-supplied algebras and primes are ASSERTED,
never decided here; operations that rely on an assertion echo it in their
reports so a reader can see what a verdict depended on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .ideals import AffineAlgebra, Ideal
from .poly import GrevLex, PolyRing


# ---------------------------------------------------------------------------
# homogenization


def homogenize_poly(f, target_ring):
    """Homogenize f by the first variable of target_ring, which f must not
    use; f's variables go to the target variables of the same names."""
    d = f.total_degree()
    return target_ring.poly_from_dict(
        {(d - sum(e),) + e[1:]: c for e, c in f.to_ring(target_ring).terms}
    )


def homogenize_ideal(P):
    """Projective closure ideal: homogenized generators, saturated by X0.

    P must live in a polynomial ring (zero modulus). X0 is the first
    variable of the result's ring, named X0 unless the ring uses that name.
    Every generator of the result is homogeneous.
    """
    alg = P.algebra
    if alg.modulus:
        raise PreconditionError("homogenize_ideal wants an ideal of a polynomial ring")
    ring = alg.ring
    hring = PolyRing(ring.fresh_names("X0") + ring.names, ring.field, GrevLex())
    halg = AffineAlgebra(hring)
    hgens = [homogenize_poly(g, hring) for g in P.gens if not g.is_zero()]
    return Ideal(halg, Ideal(halg, hgens)._saturation_gens(hring.gens()[0]))


# ---------------------------------------------------------------------------
# extended Rees presentations


@dataclass
class ReesPresentation:
    """Presentation of the extended Rees algebra of an ideal.

    The presented algebra lives on (retained base vars,) y_1..y_t, u with
    grading weights deg y_i = 1, deg u = -1, deg x_j = 0. Substituting
    y_i -> f_i * T and u -> T^{-1} kills every modulus generator.
    """

    base: AffineAlgebra
    ideal_gens: tuple
    algebra: AffineAlgebra
    y_names: tuple
    u_name: str
    retained: tuple  # names of base variables kept in the presentation
    weights: tuple


def extended_rees_presentation(R, I):
    """Present R[I*T, T^{-1}] by generators and relations.

    u -> T^{-1} is a unit of R[T, T^{-1}], so the kernel of y_i -> f_i*T is
    the saturation (P + (u*y_i - f_i)) : u^infinity in k[x, y, u]. The y_i
    and u take the first of name, name_, ... that R's ring does not use.
    When I is generated by exactly the ring variables (maximal at the origin)
    x_j = u*y_j and T = u^{-1} identify k[x, T, T^{-1}] with k[y, u, u^{-1}],
    so the kernel is P(x_j := u*y_j) : u^infinity in k[y, u], with y_j
    standing for the j-th ring variable in whatever order I lists them;
    otherwise the base variables are retained with grading weight 0.
    """
    ring = R.ring
    raw = tuple(I.gens)
    variable_case = set(raw) == set(ring.gens()) and len(raw) == ring.nvars
    if variable_case:
        raw = tuple(ring.gens())
    gens = [R.reduce(g) for g in raw]
    if all(g.is_zero() for g in gens):
        raise PreconditionError("extended Rees presentation needs a nonzero ideal")
    aux = ring.fresh_names(*(f"y{i+1}" for i in range(len(gens))), "u")
    y_names, u_name = aux[:-1], aux[-1]
    retained = () if variable_case else ring.names
    pres_ring = PolyRing(retained + y_names + (u_name,), ring.field)
    u = pres_ring.gen(u_name)
    if variable_case:
        rel = [_lift(m, pres_ring) for m in R.modulus]
    else:
        rel = [m.to_ring(pres_ring) for m in R.modulus]
        rel += [u * pres_ring.gen(y) - g.to_ring(pres_ring) for y, g in zip(y_names, gens)]
    kernel = Ideal(AffineAlgebra(pres_ring), rel)._saturation_gens(u)
    algebra = AffineAlgebra(
        pres_ring, kernel, asserted=R.asserted - {"standard_graded"}
    )
    weights = tuple(
        1 if n in y_names else (-1 if n == u_name else 0) for n in pres_ring.names
    )
    pres = ReesPresentation(
        base=R,
        ideal_gens=tuple(gens),
        algebra=algebra,
        y_names=y_names,
        u_name=u_name,
        retained=retained,
        weights=weights,
    )
    return pres


def associated_graded(pres):
    """Quotient of the presentation by (u): the associated graded ring.

    (J + (u)) cap k[rest] is generated by J's generators at u = 0, so gr
    is presented under grevlex by the u-free terms of each relation. A
    relation has one weight d (deg y = 1, deg u = -1), so those terms have
    degree d: gr is standard graded when no base variable is retained.
    """
    ring = pres.algebra.ring
    k = ring.var_index(pres.u_name)
    gr_ring = PolyRing(ring.names[:k] + ring.names[k + 1 :], ring.field, GrevLex())
    gens = tuple(
        gr_ring.poly_from_dict({e[:k] + e[k + 1 :]: c for e, c in g.terms if not e[k]})
        for g in pres.algebra.modulus
    )
    asserted = () if pres.retained else ("standard_graded",)
    return AffineAlgebra(gr_ring, gens, asserted=asserted)


def lift_to_rees(pres, f):
    """Lift an element of the base ring via x_i -> u * y_i.

    Only the variable-generated case (I maximal at the origin) is supported.
    """
    if pres.retained:
        raise PreconditionError("lift supported only when I is generated by the variables")
    return _lift(f.to_ring(pres.base.ring), pres.algebra.ring)


def _lift(f, ring):
    """f(x_j := u*y_j) for f in k[x_1..x_n] and ring k[y_1..y_n, u]: x^e
    goes to y^e * u^|e|, reading k[x, T, T^{-1}] in k[y, u, u^{-1}] with
    T = u^{-1}."""
    return ring.poly_from_dict({e + (sum(e),): c for e, c in f.terms})
