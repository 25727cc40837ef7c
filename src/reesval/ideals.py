"""Affine algebras and ideal arithmetic, on top of the Groebner engine.

An Ideal handle holds generators inside an AffineAlgebra and denotes
(generators + modulus)/modulus; every cached basis includes the modulus
generators, and the algebra's one zero_ideal handle caches the modulus
basis itself. Bases are the plain tuples `groebner.buchberger` returns, so
the unit ideal is the one whose basis is (1,), and two algebras are equal
when their rings and reduced modulus bases are. Intersections, colons,
saturations, radical membership and kernels each write their relations in
`elimination_ring(front, target)`, which puts the variables to drop first
under a block order, and call `eliminate`; this module is the only one that
does. Rees presentations and projective closures reach it through one
saturation each. Polynomials enter and leave that ring by `to_ring`,
which matches variables by name.
"""

from __future__ import annotations

from . import groebner
from .errors import NotHomogeneousError, PreconditionError
from .poly import Block, GrevLex, PolyRing


# What an algebra may be asserted to be: "normal" (read by verify), "domain"
# (symbolic) and "standard_graded" (AffineAlgebra); any other word is refused.
ASSERTIONS = ("normal", "domain", "standard_graded")


class AffineAlgebra:
    """A quotient k[x1..xn]/P presented by its ambient ring and modulus."""

    def __init__(self, ring, modulus=(), asserted=()):
        self.ring = ring
        self.modulus = tuple(m for m in modulus if not m.is_zero())
        self.asserted = frozenset(asserted)
        unknown = self.asserted.difference(ASSERTIONS)
        if unknown:
            raise PreconditionError(f"unknown assert {' '.join(sorted(unknown))!r}")
        if "standard_graded" in self.asserted:
            if any(not m.is_homogeneous() for m in self.modulus):
                raise NotHomogeneousError(
                    "standard_graded asserted but modulus has a non-homogeneous generator"
                )
        self.zero_ideal = Ideal(self, ())  # its basis is the modulus basis

    def reduce(self, f):
        """Canonical representative of f modulo the modulus."""
        if not self.modulus:
            return f
        return groebner.normal_form(f, self.zero_ideal.gb())

    def __eq__(self, other):
        """Same ring and same ideal: the reduced modulus bases agree."""
        return self is other or (
            isinstance(other, AffineAlgebra)
            and self.ring == other.ring
            and self.zero_ideal.gb() == other.zero_ideal.gb()
        )

    def __hash__(self):
        return hash(self.ring)

    def __repr__(self):
        mods = ", ".join(str(m) for m in self.modulus) or "0"
        return f"{self.ring.field}[{','.join(self.ring.names)}]/({mods})"


def elimination_ring(front, target):
    """k[front, target's variables] under Block(len(front)), grevlex inside
    each block: the ring `eliminate` takes its relations in."""
    return PolyRing(tuple(front) + target.names, target.field, Block(len(front)))


def eliminate(gens, target):
    """Generators of the ideal (gens) intersected with k[target].

    The gens live in elimination_ring(front, target); the reduced basis
    elements that use no front variable are read in target.
    """
    return tuple(
        g.to_ring(target)
        for g in groebner.buchberger(gens)
        if not any(g.uses_var(i) for i in range(g.ring.order.k))
    )


def _with_t(ring):
    """The elimination ring of a fresh name t into ring, and its t."""
    tring = elimination_ring(ring.fresh_names("_t"), ring)
    return tring, tring.gens()[0]


class Ideal:
    def __init__(self, algebra, gens):
        self.algebra = algebra
        self.gens = tuple(gens)
        self._gb = None
        self._powers = []  # layer n: (pairs (n-fold product, index of its last factor), I^n)
        self._symbolic_powers = {}  # (n, separator text) -> P^(n)'s entry, by symbolic
        self._separators = {}  # separator text -> (separator, proven), by symbolic
        self._jacobian = None  # J_{R/I} of the Jacobian criterion, filled by symbolic

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.gens) or '0'})"

    def ambient_gens(self):
        return tuple(g for g in self.gens + self.algebra.modulus if not g.is_zero())

    def gb(self):
        """Reduced Groebner basis, a tuple, of generators + modulus in the
        ambient ring; with no nonzero generator, the basis of the algebra's
        zero ideal, the modulus basis."""
        if self._gb is None:
            zero = self.algebra.zero_ideal
            if self is zero or any(not g.is_zero() for g in self.gens):
                self._gb = groebner.buchberger(self.ambient_gens())
            else:
                self._gb = zero.gb()
        return self._gb

    def contains_poly(self, f):
        return groebner.normal_form(f, self.gb()).is_zero()

    def contains_ideal(self, other):
        self._check(other)
        return all(self.contains_poly(g) for g in other.gens)

    def equals(self, other):
        return self.contains_ideal(other) and other.contains_ideal(self)

    def _check(self, other):
        if self.algebra != other.algebra:
            raise PreconditionError("ideals live in different algebras")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return Ideal(self.algebra, self.gens + other.gens)

    def product(self, other):
        self._check(other)
        gens = [f * g for f in self.gens for g in other.gens]
        return Ideal(self.algebra, tuple(gens))

    def power(self, n):
        """All n-fold products of the generators in combinations_with_replacement
        order, each one a product of the cached layer n - 1 times a generator.
        Layer n keeps its handle, so every call for n returns the same Ideal."""
        if n < 0:
            raise PreconditionError("negative power")
        one = self.algebra.ring.one
        layers = self._powers or [(((one, 0),), Ideal(self.algebra, (one,)))]
        while len(layers) <= n:
            pairs = [(p * g, k) for p, i in layers[-1][0] for k, g in enumerate(self.gens[i:], i)]
            layers.append((pairs, Ideal(self.algebra, [p for p, _ in pairs])))
        self._powers = layers
        return layers[n][1]

    # -- elimination-backed operations ---------------------------------------

    def eliminate(self, drop_names):
        """Generators of (I + modulus) intersected with k[remaining vars].

        Returns an ideal over a fresh polynomial-ring algebra on the kept
        variables (any modulus content is folded into the generators).
        """
        ring = self.algebra.ring
        if set(drop_names) - set(ring.names):
            raise PreconditionError("unknown variable in drop set")
        keep = tuple(n for n in ring.names if n not in drop_names)
        target = PolyRing(keep, ring.field, GrevLex())
        ering = elimination_ring([n for n in ring.names if n in drop_names], target)
        gens = [g.to_ring(ering) for g in self.ambient_gens()]
        return Ideal(AffineAlgebra(target), eliminate(gens, target))

    def intersect(self, other):
        """I cap J via the auxiliary variable t: eliminate t from t*I + (1-t)*J."""
        self._check(other)
        gens = _intersect_ambient(
            self.algebra.ring, self.ambient_gens(), other.ambient_gens()
        )
        return Ideal(self.algebra, gens)

    def quotient(self, f):
        """(I : f) = { g : g*f in I }."""
        f = self.algebra.reduce(f)
        if f.is_zero():
            raise PreconditionError("colon by zero")
        ring = self.algebra.ring
        inter = _intersect_ambient(ring, self.ambient_gens(), (f,))
        gens = tuple(_exact_divide(g, f) for g in inter)
        return Ideal(self.algebra, gens)

    def saturation(self, f):
        """(I : f^infinity) by one Rabinowitsch elimination: (I + modulus,
        1 - t*f) intersected with k[x]. Under grevlex that intersection's
        basis is the saturation's reduced basis, so the ideal returned
        carries it and never recomputes it."""
        if self.algebra.reduce(f).is_zero():
            raise PreconditionError("colon by zero")
        ring = self.algebra.ring
        tring, t = _with_t(ring)
        gens = [g.to_ring(tring) for g in self.ambient_gens()]
        gens.append(tring.one - t * f.to_ring(tring))
        result = Ideal(self.algebra, eliminate(gens, ring))
        if ring.order == GrevLex():
            result._gb = result.gens
        return result

    @groebner._budgeted
    def saturation_depth(self, f, sat):
        """The least k with f^k * sat inside I, sat = I : f^infinity, by
        normal forms against the basis of I; it equals the number of colons
        by f before the chain I, I:f, I:f^2, ... stabilizes."""
        depth, power = 0, self.algebra.ring.one
        pending = [g for g in sat.gens if not self.contains_poly(g)]
        while pending:
            depth, power = depth + 1, power * f
            pending = [g for g in pending if not self.contains_poly(power * g)]
        return depth

    @groebner._budgeted
    def saturate(self, f):
        """(I : f^infinity, its depth), the saturation and its depth loop in
        one budget scope; at depth 0 the ideal returned is self."""
        sat = self.saturation(f)
        depth = self.saturation_depth(f, sat)
        return (sat, depth) if depth else (self, 0)

    def radical_contains(self, f):
        """f in rad(I): at once when f in I, else iff I : f^infinity = (1)."""
        if self.contains_poly(f):
            return True
        return self.saturation(f).gens == (self.algebra.ring.one,)


def _intersect_ambient(ring, gens1, gens2):
    """Ambient-ring intersection of two generator lists via the t-trick."""
    tring, t = _with_t(ring)
    gens = [t * g.to_ring(tring) for g in gens1]
    gens += [(tring.one - t) * g.to_ring(tring) for g in gens2]
    return eliminate(gens, ring)


def _exact_divide(g, f):
    """Quotient of g by f in the ambient polynomial ring; g must lie in (f)."""
    ring = g.ring
    q = ring.zero
    r = g
    while not r.is_zero():
        le, lc = r.lead_exp, r.lead_coeff
        if not all(a >= b for a, b in zip(le, f.lead_exp)):
            raise PreconditionError("inexact division")
        shift = tuple(a - b for a, b in zip(le, f.lead_exp))
        c = ring.field.mul(lc, ring.field.inv(f.lead_coeff))
        term = ring.monomial(shift, c)
        q = q + term
        r = r - term * f
    return q


def kernel_of_map(source_names, target_algebra, images):
    """Kernel of k[source] -> target_algebra, source var i -> images[i].

    Computed from the graph ideal (y_i - image_i) + modulus by eliminating
    the target variables. Returns an Ideal over k[source] under grevlex,
    with the target's coefficient field.
    """
    if len(source_names) != len(images):
        raise PreconditionError("one image per source variable")
    tring = target_algebra.ring
    if set(source_names) & set(tring.names):
        raise PreconditionError("source names must be disjoint from target names")
    source = PolyRing(source_names, tring.field, GrevLex())
    ring = elimination_ring(tring.names, source)
    gens = [m.to_ring(ring) for m in target_algebra.modulus]
    for name, img in zip(source_names, images):
        gens.append(ring.gen(name) - img.to_ring(ring))
    return Ideal(AffineAlgebra(source), eliminate(gens, source))
