"""Affine algebras k[x]/P, homogenization, extended Rees presentations.

Normality / primality of user-supplied algebras and primes are ASSERTED,
never decided here; operations that rely on an assertion echo it in their
reports so a reader can see what a verdict depended on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import groebner
from .errors import NotHomogeneousError, PreconditionError
from .poly import GrevLex, PolyRing


class AffineAlgebra:
    """A quotient k[x1..xn]/P presented by its ambient ring and modulus."""

    def __init__(self, ring, modulus=(), asserted=()):
        self.ring = ring
        self.modulus = tuple(m for m in modulus if not m.is_zero())
        self.asserted = frozenset(asserted)
        self._modulus_gb = None
        if "standard_graded" in self.asserted:
            if any(not m.is_homogeneous() for m in self.modulus):
                raise NotHomogeneousError(
                    "standard_graded asserted but modulus has a non-homogeneous generator"
                )

    def modulus_gb(self):
        if self._modulus_gb is None:
            if self.modulus:
                self._modulus_gb = groebner.buchberger(self.modulus)
            else:
                self._modulus_gb = groebner.GroebnerBasis(ring=self.ring, polys=())
        return self._modulus_gb

    def is_proper(self):
        """True iff 1 is not in the modulus."""
        if not self.modulus:
            return True
        return not groebner.contains(self.modulus_gb(), [self.ring.one])

    def reduce(self, f):
        """Canonical representative of f modulo the modulus."""
        if not self.modulus:
            return f
        return groebner.normal_form(f, self.modulus_gb())

    def __eq__(self, other):
        return (
            isinstance(other, AffineAlgebra)
            and self.ring == other.ring
            and set(self.modulus) == set(other.modulus)
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.modulus)))

    def __repr__(self):
        mods = ", ".join(str(m) for m in self.modulus) or "0"
        return f"{self.ring.field}[{','.join(self.ring.names)}]/({mods})"


# ---------------------------------------------------------------------------
# homogenization / dehomogenization


def homogenize_poly(f, target_ring):
    """Homogenize f by the first variable of target_ring (one extra var)."""
    d = f.total_degree()
    out = {}
    for e, c in f.terms:
        out[(d - sum(e),) + e] = target_ring.field.coerce(c)
    return target_ring.poly_from_dict(out)


def homogenize_ideal(P):
    """Projective closure ideal: homogenized generators, saturated by X0.

    P must live in a polynomial ring (zero modulus). X0 is the first
    variable of the result's ring, named X0 unless the ring uses that name.
    Every generator of the result is homogeneous.
    """
    from .ideals import Ideal

    alg = P.algebra
    if alg.modulus:
        raise PreconditionError("homogenize_ideal wants an ideal of a polynomial ring")
    ring = alg.ring
    hring = PolyRing(ring.fresh_names("X0") + ring.names, ring.field, GrevLex())
    halg = AffineAlgebra(hring)
    hgens = [homogenize_poly(g, hring) for g in P.gens if not g.is_zero()]
    if not hgens:
        return Ideal(halg, ())
    ideal = Ideal(halg, tuple(hgens))
    sat, _ = ideal.saturate(hring.gens()[0])
    return sat


def dehomogenize(F, affine_algebra):
    """Set the homogenizing (first) variable to 1 and read off the affine element."""
    if not F.is_homogeneous():
        raise NotHomogeneousError("dehomogenize needs a homogeneous input")
    ring = affine_algebra.ring
    d = {}
    for e, c in F.terms:
        prev = d.get(e[1:], ring.field.zero)
        d[e[1:]] = ring.field.add(prev, ring.field.coerce(c))
    return ring.poly_from_dict(d)


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
    weights: tuple = field(default=())

    def grading_weight(self, f):
        """Weighted degree of a homogeneous-for-the-weights element; None if mixed."""
        degs = {
            sum(w * p for w, p in zip(self.weights, e)) for e, _ in f.terms
        }
        if len(degs) != 1:
            return None
        return degs.pop()

    def back_substitution_holds(self):
        """Check each modulus generator dies under y_i -> f_i*T, u -> T^{-1}.

        T^{-1} is realized as a fresh variable Ti with the relation T*Ti = 1;
        vanishing in the Laurent ring is membership in (base modulus, T*Ti - 1).
        """
        base_ring = self.base.ring
        names = base_ring.names + base_ring.fresh_names("_T", "_Ti")
        ring = PolyRing(names, base_ring.field, GrevLex())
        n = base_ring.nvars
        T, Ti = ring.gens()[n:]
        base_images = [g.map_exponents(ring, list(range(n))) for g in base_ring.gens()]
        rel = [m.map_exponents(ring, list(range(n))) for m in self.base.modulus]
        rel.append(T * Ti - ring.one)
        gb = groebner.buchberger(rel)
        # images of the presentation variables
        images = []
        pres_ring = self.algebra.ring
        fmap = {name: g for name, g in zip(self.y_names, self.ideal_gens)}
        for name in pres_ring.names:
            if name in fmap:
                images.append(fmap[name].map_exponents(ring, list(range(n))) * T)
            elif name == self.u_name:
                images.append(Ti)
            else:
                images.append(base_images[base_ring.var_index(name)])
        for m in self.algebra.modulus:
            image = m.substitute(ring, images)
            if not groebner.normal_form(image, gb).is_zero():
                return False
        return True


def extended_rees_presentation(R, I):
    """Present R[I*T, T^{-1}] by generators and relations.

    The kernel is computed by eliminating T from (P, y_i - f_i*T, u*T - 1).
    T, the y_i and u take the first of name, name_, ... that R's ring does
    not use.
    When I is generated by exactly the ring variables (maximal at the origin)
    the base variables are eliminated too, realizing the algebra on (y, u),
    with y_j standing for the j-th ring variable in whatever order I lists
    them; otherwise they are retained with grading weight 0.
    """
    from .ideals import eliminate

    ring = R.ring
    raw = tuple(I.gens)
    variable_case = set(raw) == set(ring.gens()) and len(raw) == ring.nvars
    if variable_case:
        raw = tuple(ring.gens())
    gens = [R.reduce(g) for g in raw]
    if all(g.is_zero() for g in gens):
        raise PreconditionError("extended Rees presentation needs a nonzero ideal")
    t = len(gens)
    aux = ring.fresh_names("_T", *(f"y{i+1}" for i in range(t)), "u")
    T_name, y_names, u_name = aux[0], aux[1:-1], aux[-1]

    # eliminate T, and the base variables too in the variable case
    names = (T_name,) + ring.names + y_names + (u_name,)
    drop = (T_name,) + (ring.names if variable_case else ())
    ering = PolyRing(names, ring.field)
    xpos = [ering.var_index(n) for n in ring.names]
    T = ering.gen(T_name)
    rel = [m.map_exponents(ering, xpos) for m in R.modulus]
    for name, g in zip(y_names, gens):
        rel.append(ering.gen(name) - g.map_exponents(ering, xpos) * T)
    rel.append(ering.gen(u_name) * T - ering.one)
    pres_ring = PolyRing([n for n in names if n not in drop], ring.field)
    kernel = eliminate(ering, rel, drop, pres_ring)
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
        retained=() if variable_case else ring.names,
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
    ring = pres.algebra.ring
    u = ring.gen(pres.u_name)
    images = [u * ring.gen(n) for n in pres.y_names]
    return f.substitute(ring, images)


# ---------------------------------------------------------------------------
# exceptional-prime certificates


@dataclass
class ExceptionalPrimeCertificate:
    """User-supplied candidate exceptional primes with multiplicities.

    Valid iff the intersection of the symbolic powers Q_i^(m_i) equals (u)
    in the presentation and u lies in every Q_i. Primality of the Q_i and
    normality of the presentation are assertions, not conclusions.
    """

    presentation: ReesPresentation
    primes: tuple  # Ideal instances in presentation.algebra
    multiplicities: tuple


def verify_exceptional_certificate(cert):
    """Check the certificate's defining ideal equality; each power saturates
    by the first variable outside its prime, else by the automatic separator."""
    from .ideals import Ideal
    from .symbolic import first_variable_outside, symbolic_power

    pres = cert.presentation
    if "normal" not in pres.base.asserted:
        raise PreconditionError("certificate check requires an asserted-normal base")
    alg = pres.algebra
    u = alg.ring.gen(pres.u_name)
    u_ideal = Ideal(alg, (u,))
    pieces = []
    for Q, m in zip(cert.primes, cert.multiplicities):
        if not Q.contains_poly(u):
            return False
        sep = first_variable_outside(Q)
        power, _cert = symbolic_power(Q, m, separator="auto" if sep is None else sep)
        pieces.append(power)
    total = pieces[0]
    for p in pieces[1:]:
        total = total.intersect(p)
    return total.equals(u_ideal)


# ---------------------------------------------------------------------------
# projective-closure chart identity


def check_projective_closure_iso(P, H):
    """Verify k[X0, x] -> S[X1/X0, ...] has kernel exactly P extended.

    P is the affine modulus ideal (in k[x]), H its homogenization (in
    k[X0, X], X0 first, as homogenize_ideal builds it). The kernel is one
    elimination of t and the projective variables from the graph ideal
    plus 1 - t*X0, which saturates by X0.
    """
    from .ideals import Ideal, eliminate

    affine_ring = P.algebra.ring
    x0_name = H.algebra.ring.names[0]
    # big ring: t, X0, X1..Xn (as _x1.._xn), x1..xn
    aux = H.algebra.ring.fresh_names("_t", *(f"_{v}" for v in affine_ring.names))
    t_name, hidden = aux[0], aux[1:]
    bring = PolyRing((t_name, x0_name) + hidden + affine_ring.names, affine_ring.field)
    X0 = bring.gen(x0_name)
    hpos = list(range(1, affine_ring.nvars + 2))
    gens = [g.map_exponents(bring, hpos) for g in H.gens]
    for v, h in zip(affine_ring.names, hidden):
        gens.append(bring.gen(v) * X0 - bring.gen(h))
    gens.append(bring.one - bring.gen(t_name) * X0)
    chart = AffineAlgebra(PolyRing((x0_name,) + affine_ring.names, affine_ring.field))
    kernel = Ideal(chart, eliminate(bring, gens, (t_name,) + hidden, chart.ring))
    # expected: P extended to k[X0, x]
    xpos = list(range(1, affine_ring.nvars + 1))
    expected = Ideal(chart, tuple(g.map_exponents(chart.ring, xpos) for g in P.gens))
    return kernel.equals(expected)
