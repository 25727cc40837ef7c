"""Monomial-ideal fast path: Newton polyhedra, facet valuations, closures.

All geometry is exact. Its linear algebra is `linalg`'s Bareiss row reduction
and `linalg.simplex`, so it never pivots itself. Facets are enumerated from
subset candidates (desk scale: at most 4 variables, 12 generators),
integral closures by lattice scanning against the facet inequalities, and an
exact simplex on a packing LP decides membership with no facets at all so
the two can be played against each other. Multiplicities need no vertex
solving: the covolume is summed over integer simplices by pulling every
bounded face, in any dimension, from its first generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import gcd

from .errors import PreconditionError
from .groebner import _minimalize
from .ideals import Ideal
from .linalg import nullspace, row_reduce, simplex

MAX_VARS = 4
MAX_GENS = 12


def _affine_rank(points, rays=()):
    """Dimension of the affine hull of the points, widened by the rays."""
    rows = [[x - y for x, y in zip(p, points[0])] for p in points[1:]]
    return len(row_reduce([*rows, *rays])[1])


# ---------------------------------------------------------------------------
# Newton polyhedra


@dataclass(frozen=True)
class Facet:
    normal: tuple  # primitive nonnegative integers
    offset: int

    @property
    def bounded(self):
        return all(a > 0 for a in self.normal)


@dataclass(frozen=True)
class MonomialValuation:
    weights: tuple
    value_on_ideal: int

    def value(self, exp):
        return sum(a * e for a, e in zip(self.weights, exp))


@dataclass(frozen=True)
class NewtonPolyhedron:
    generators: tuple  # minimal exponent tuples
    nvars: int
    facets: tuple

    def contains(self, exp, n=1):
        """exp in n * NP, by the facet inequalities."""
        if n < 0:
            raise PreconditionError("negative power")
        if len(exp) != self.nvars:
            raise PreconditionError(f"exponents must have {self.nvars} entries")
        if any(e < 0 for e in exp):
            return False
        return all(
            sum(a * e for a, e in zip(f.normal, exp)) >= n * f.offset
            for f in self.facets
        )


def _exponents_of(I):
    exps = []
    if I.algebra.modulus:
        raise PreconditionError("monomial machinery wants a polynomial ring")
    for g in I.gens:
        if len(g.terms) != 1:
            raise PreconditionError("generators must be monomials")
        exps.append(g.lead_exp)
    return exps


def newton_polyhedron(I):
    """Facet description of the Newton polyhedron conv(exps) + orthant."""
    exps = _minimalize(_exponents_of(I))
    n = I.algebra.ring.nvars
    if not exps:
        raise PreconditionError("empty generating set")
    if n > MAX_VARS:
        raise PreconditionError(f"at most {MAX_VARS} variables supported")
    if len(exps) > MAX_GENS:
        raise PreconditionError(f"at most {MAX_GENS} generators supported")
    unit = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    facets = {}
    for k in range(1, n + 1):
        for subset in combinations(exps, k):
            for zeros in combinations(range(n), n - k):
                rows = [[a - b for a, b in zip(g, subset[0])] for g in subset[1:]]
                rows += [unit[j] for j in zeros]
                basis = nullspace(rows, n)
                if len(basis) != 1:
                    continue
                v = basis[0]
                if all(x <= 0 for x in v):
                    v = [-x for x in v]
                if any(x < 0 for x in v):
                    continue
                h = gcd(*v)
                a = tuple(x // h for x in v)
                b = min(sum(ai * gi for ai, gi in zip(a, g)) for g in exps)
                # facet test: equality generators plus free coordinate rays
                # must affinely span dimension n-1
                eq = [g for g in exps if sum(ai * gi for ai, gi in zip(a, g)) == b]
                rays = [unit[j] for j in range(n) if a[j] == 0]
                if _affine_rank(eq, rays) != n - 1:
                    continue
                facets[a] = Facet(normal=a, offset=b)
    out = tuple(sorted(facets.values(), key=lambda f: f.normal))
    return NewtonPolyhedron(generators=tuple(exps), nvars=n, facets=out)


def rees_valuations_monomial(I):
    """One monomial valuation per bounded facet; value on I = the offset."""
    return [
        MonomialValuation(weights=f.normal, value_on_ideal=f.offset)
        for f in newton_polyhedron(I).facets
        if f.bounded
    ]


# ---------------------------------------------------------------------------
# integral closure and the facet-free membership oracle


def integral_closure_power(I, n=1):
    """Integral closure of I^n as an ideal, I monomial in a polynomial ring:
    the minimal lattice points of n * NP(I)."""
    if n < 0:
        raise PreconditionError("negative power")
    np_ = newton_polyhedron(I)
    bounds = [n * max(g[i] for g in np_.generators) for i in range(np_.nvars)]
    hits = [e for e in product(*(range(b + 1) for b in bounds)) if np_.contains(e, n)]
    ring = I.algebra.ring
    return Ideal(I.algebra, tuple(map(ring.monomial, _minimalize(hits))))


def membership_oracle_caratheodory(exps, nvars, e, n=1):
    """Decide e in n*NP(exps) without facets, by an exact simplex.

    For nonnegative generators, e is in n*NP iff the packing LP max{sum(lam) :
    lam >= 0, sum(lam_i * g_i) <= e} reaches n: weights with a larger sum
    scale down to sum n and only lower sum(lam_i * g_i). lam = 0 is feasible,
    so `linalg.simplex` starts from the slack basis and stops once the sum
    reaches n. One generator g with e >= n * g, a zero one too, accepts
    first, so every column has a positive entry and the LP is bounded.
    """
    if n < 0:
        raise PreconditionError("negative power")
    if len(e) != nvars or any(len(g) != nvars for g in exps):
        raise PreconditionError(f"exponents must have {nvars} entries")
    if any(x < 0 for g in exps for x in g):
        raise PreconditionError("generators must have nonnegative exponents")
    if any(x < 0 for x in e):
        return False
    if any(all(x >= n * g for x, g in zip(e, gen)) for gen in exps):
        return True  # one generator: its weight is n, so e >= n * gen
    # rows: slack_j + sum(lam_i * g_ij) = e_j, then d * (reduced costs, sum(lam))
    rows = [
        [*(int(k == j) for k in range(nvars)), *(g[j] for g in exps), e[j]]
        for j in range(nvars)
    ]
    rows.append([0] * nvars + [-1] * len(exps) + [0])
    return simplex(rows, list(range(nvars)), lambda v, d: v >= n * d)


# ---------------------------------------------------------------------------
# volume multiplicity of m-primary monomial ideals


def monomial_multiplicity(I):
    """Hilbert-Samuel multiplicity of an m-primary monomial ideal.

    n! times the covolume of NP, the union of the cones from the origin
    over the bounded facets. A face, held as the tuple of generators tight
    on it, is pulled from its first generator v: it is tiled by the
    pyramids from v over its subfaces that miss v, which are those of its
    intersections with facets that have one dimension less. Pulling from any
    point of a face tiles it, so generators that are not vertices need no
    filtering. Down at the points, each chain (v_1, ..., v_n) is an integer
    simplex with the origin, and n! times its volume is |det(v_1, ..., v_n)|.
    """
    exps = _exponents_of(I)
    n = I.algebra.ring.nvars
    for i in range(n):
        if not any(all(p == 0 for j, p in enumerate(g) if j != i) for g in exps):
            raise PreconditionError("ideal is not primary to the maximal ideal")
    np_ = newton_polyhedron(I)
    tight = [
        tuple(
            g
            for g in np_.generators
            if sum(a * x for a, x in zip(f.normal, g)) == f.offset
        )
        for f in np_.facets
    ]

    def pulled(face, dim, chain):
        if dim == 0:
            _, pivots, d = row_reduce([*chain, face[0]])
            return abs(d) if len(pivots) == n else 0
        v = face[0]
        subfaces = {tuple(g for g in face if g in t) for t in tight}
        return sum(
            pulled(sub, dim - 1, (*chain, v))
            for sub in subfaces
            if sub and v not in sub and _affine_rank(sub) == dim - 1
        )

    return sum(
        pulled(t, n - 1, ()) for f, t in zip(np_.facets, tight) if f.bounded
    )


# ---------------------------------------------------------------------------
# Gaussian extension and bound finders


def gaussian_extension(v, f, new_var):
    """Value of the Gaussian extension of v on f in R[new_var]:
    minimum of v over the coefficient polynomials of the new variable."""
    ring = f.ring
    pos = ring.var_index(new_var)
    if f.is_zero():
        raise PreconditionError("valuation of zero")
    return min(
        sum(a * p for a, p in zip(v.weights, (x for i, x in enumerate(e) if i != pos)))
        for e, _ in f.terms
    )


def find_min_briancon_skoda(I, nmax):
    """Least B with closure(I^(n+B)) inside I^n for all n <= nmax; None if
    no B <= nmax works."""
    if nmax < 1:
        raise PreconditionError("search bound must be at least 1")
    for B in range(nmax + 1):
        if all(
            I.power(n).contains_ideal(integral_closure_power(I, n + B))
            for n in range(1, nmax + 1)
        ):
            return B
    return None


def find_min_artin_rees(c, I, nmax):
    """Least A with (c) cap I^(n+A) inside c*I^n for all n <= nmax; None if
    no A <= nmax works. Works in any affine algebra, not just monomially."""
    if nmax < 1:
        raise PreconditionError("search bound must be at least 1")
    c_ideal = Ideal(I.algebra, (c,))
    # one handle per exponent, so each basis is computed once
    multiples = [c_ideal.product(I.power(n)) for n in range(nmax + 1)]
    caps = {}
    for A in range(nmax + 1):
        for n in range(1, nmax + 1):
            if n + A not in caps:
                caps[n + A] = c_ideal.intersect(I.power(n + A))
            if not multiples[n].contains_ideal(caps[n + A]):
                break
        else:
            return A
    return None
