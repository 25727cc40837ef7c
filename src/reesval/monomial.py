"""Monomial-ideal fast path: Newton polyhedra, facet valuations, closures.

All geometry is exact over Fraction. Facets are enumerated from subset
candidates (desk scale: at most 4 variables, 12 generators), integral
closures by lattice scanning against the facet inequalities, and a
Caratheodory-style oracle decides membership with no facets at all so
the two can be played against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, product
from math import gcd

from .errors import PreconditionError
from .groebner import _divides
from .ideals import Ideal

MAX_VARS = 4
MAX_GENS = 12


# ---------------------------------------------------------------------------
# small exact linear algebra


def _solve_square(rows, rhs):
    """Solve A x = b exactly; None if singular. rows of Fractions."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def _nullspace(rows, n):
    """Basis of the nullspace of the given rows, vectors of length n."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][col]
        a[r] = [x / inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][fc]
        basis.append(v)
    return basis


def _rank(rows):
    if not rows:
        return 0
    return len(rows[0]) - len(_nullspace(rows, len(rows[0])))


def _primitive(v):
    """Scale a rational vector to coprime integers, keeping orientation."""
    denoms = 1
    for x in v:
        denoms = denoms * x.denominator // gcd(denoms, x.denominator)
    ints = [int(x * denoms) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints) if g else tuple(ints)


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

    def value_poly(self, f):
        if f.is_zero():
            raise PreconditionError("valuation of zero")
        return min(self.value(e) for e, _ in f.terms)


@dataclass(frozen=True)
class NewtonPolyhedron:
    generators: tuple  # minimal exponent tuples
    nvars: int
    facets: tuple

    def contains(self, exp, n=1):
        """exp in n * NP, by the facet inequalities."""
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


def _minimalize(exps):
    exps = sorted(set(exps), key=lambda e: (sum(e), e))
    out = []
    for e in exps:
        if not any(_divides(m, e) for m in out):
            out.append(e)
    return out


def newton_polyhedron(I_or_exps, nvars=None):
    """Facet description of the Newton polyhedron conv(exps) + orthant."""
    if nvars is None:
        exps = _exponents_of(I_or_exps)
        nvars = I_or_exps.algebra.ring.nvars
    else:
        exps = list(I_or_exps)
    exps = _minimalize(exps)
    if not exps:
        raise PreconditionError("empty generating set")
    if nvars > MAX_VARS:
        raise PreconditionError(f"at most {MAX_VARS} variables supported")
    if len(exps) > MAX_GENS:
        raise PreconditionError(f"at most {MAX_GENS} generators supported")
    n = nvars
    unit = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    facets = {}
    for k in range(1, n + 1):
        for subset in combinations(exps, k):
            for zeros in combinations(range(n), n - k):
                rows = [
                    [Fraction(a - b) for a, b in zip(g, subset[0])]
                    for g in subset[1:]
                ]
                rows += [[Fraction(unit[j][c]) for c in range(n)] for j in zeros]
                basis = _nullspace(rows, n) if rows else _nullspace([[Fraction(0)] * n], n)
                if len(basis) != 1:
                    continue
                v = basis[0]
                if all(x <= 0 for x in v):
                    v = [-x for x in v]
                if any(x < 0 for x in v):
                    continue
                a = _primitive(v)
                if all(x == 0 for x in a):
                    continue
                b = min(sum(ai * gi for ai, gi in zip(a, g)) for g in exps)
                # facet test: equality generators plus free coordinate rays
                # must affinely span dimension n-1
                eq = [g for g in exps if sum(ai * gi for ai, gi in zip(a, g)) == b]
                if not eq:
                    continue
                dirs = [
                    [Fraction(x - y) for x, y in zip(g, eq[0])] for g in eq[1:]
                ]
                dirs += [
                    [Fraction(x) for x in unit[j]] for j in range(n) if a[j] == 0
                ]
                if _rank(dirs) != n - 1:
                    continue
                facets[a] = Facet(normal=a, offset=b)
    out = tuple(sorted(facets.values(), key=lambda f: f.normal))
    return NewtonPolyhedron(generators=tuple(exps), nvars=n, facets=out)


def rees_valuations_monomial(I_or_np, nvars=None):
    """One monomial valuation per bounded facet; value on I = the offset."""
    np_ = (
        I_or_np
        if isinstance(I_or_np, NewtonPolyhedron)
        else newton_polyhedron(I_or_np, nvars)
    )
    return [
        MonomialValuation(weights=f.normal, value_on_ideal=f.offset)
        for f in np_.facets
        if f.bounded
    ]


# ---------------------------------------------------------------------------
# integral closure and the facet-free membership oracle


def integral_closure_exponents(exps, nvars, n=1):
    """Minimal lattice generators of the closure of I^n."""
    np_ = newton_polyhedron(exps, nvars)
    bounds = [n * max(g[i] for g in np_.generators) for i in range(nvars)]
    hits = [
        e
        for e in product(*(range(b + 1) for b in bounds))
        if np_.contains(e, n)
    ]
    return _minimalize(hits)


def integral_closure_power(I, n=1):
    """Integral closure of I^n as an ideal, I monomial in a polynomial ring."""
    exps = _exponents_of(I)
    ring = I.algebra.ring
    mins = integral_closure_exponents(exps, ring.nvars, n)
    return Ideal(I.algebra, tuple(ring.monomial(e) for e in mins))


def membership_oracle_caratheodory(exps, nvars, e, n=1):
    """Decide e in n*NP(exps) without facets.

    Searches exact convex combinations: a subset S of generators, a set A
    of coordinates where the combination is tight, weights solving the
    square system sum = n and matching e on A, accepted when the weights
    and the leftover e - sum are all nonnegative. Basic solutions of the
    feasibility LP have this shape, so the search is complete.
    """
    exps = _minimalize(exps)
    if any(x < 0 for x in e):
        return False
    for k in range(1, min(len(exps), nvars + 1) + 1):
        for subset in combinations(exps, k):
            for tight in combinations(range(nvars), k - 1):
                rows = [[Fraction(1)] * k]
                rhs = [Fraction(n)]
                for j in tight:
                    rows.append([Fraction(g[j]) for g in subset])
                    rhs.append(Fraction(e[j]))
                lam = _solve_square(rows, rhs)
                if lam is None or any(x < 0 for x in lam):
                    continue
                combo = [
                    sum(l * Fraction(g[j]) for l, g in zip(lam, subset))
                    for j in range(nvars)
                ]
                if all(Fraction(e[j]) >= combo[j] for j in range(nvars)):
                    return True
    return False


# ---------------------------------------------------------------------------
# volume multiplicity of m-primary monomial ideals


def _vertices(np_):
    """Vertices of NP: feasible points with n linearly independent tight
    constraints among the facets and the coordinate hyperplanes."""
    n = np_.nvars
    cons = [(f.normal, f.offset) for f in np_.facets]
    cons += [
        (tuple(1 if j == i else 0 for j in range(n)), 0) for i in range(n)
    ]
    verts = set()
    for subset in combinations(cons, n):
        rows = [[Fraction(a) for a in c[0]] for c in subset]
        rhs = [Fraction(c[1]) for c in subset]
        v = _solve_square(rows, rhs)
        if v is None or any(x < 0 for x in v):
            continue
        if all(
            sum(a * x for a, x in zip(f.normal, v)) >= f.offset for f in np_.facets
        ):
            verts.add(tuple(v))
    return sorted(verts)


def _det(rows):
    a = [list(r) for r in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def monomial_multiplicity(I_or_exps, nvars=None):
    """Hilbert-Samuel multiplicity of an m-primary monomial ideal, <= 3 vars.

    n! times the volume between the origin and the bounded facets, summed
    facet by facet as cones over the origin (exact determinants).
    """
    if nvars is None:
        exps = _exponents_of(I_or_exps)
        nvars = I_or_exps.algebra.ring.nvars
    else:
        exps = list(I_or_exps)
    exps = _minimalize(exps)
    n = nvars
    if n > 3:
        raise PreconditionError("volume multiplicity supported up to 3 variables")
    for i in range(n):
        if not any(all(p == 0 for j, p in enumerate(g) if j != i) for g in exps):
            raise PreconditionError("ideal is not primary to the maximal ideal")
    np_ = newton_polyhedron(exps, n)
    if n == 1:
        return np_.facets[0].offset
    verts = _vertices(np_)
    total = Fraction(0)
    for f in np_.facets:
        if not f.bounded:
            continue
        on_facet = [
            v
            for v in verts
            if sum(a * x for a, x in zip(f.normal, v)) == f.offset
        ]
        if n == 2:
            if len(on_facet) != 2:
                raise PreconditionError("degenerate facet")
            total += abs(_det(on_facet))
        else:
            total += _fan_volume(on_facet, f.normal)
    if total.denominator != 1:
        raise PreconditionError("non-integral volume; degenerate input")
    return int(total)


def _fan_volume(points, normal):
    """Sum of |det| over a fan triangulation of a planar polygon in 3-space."""
    if len(points) < 3:
        raise PreconditionError("degenerate facet")
    drop = max(range(3), key=lambda i: abs(normal[i]))
    keep = [i for i in range(3) if i != drop]
    flat = [(p[keep[0]], p[keep[1]]) for p in points]
    cx = sum(q[0] for q in flat) / len(flat)
    cy = sum(q[1] for q in flat) / len(flat)

    def compare(i, j):
        ax, ay = flat[i][0] - cx, flat[i][1] - cy
        bx, by = flat[j][0] - cx, flat[j][1] - cy
        ha = 0 if (ay > 0 or (ay == 0 and ax > 0)) else 1
        hb = 0 if (by > 0 or (by == 0 and bx > 0)) else 1
        if ha != hb:
            return ha - hb
        cross = ax * by - ay * bx
        return (cross < 0) - (cross > 0)

    order = sorted(range(len(points)), key=cmp_to_key(compare))
    pts = [points[i] for i in order]
    total = Fraction(0)
    for i in range(1, len(pts) - 1):
        total += abs(_det([pts[0], pts[i], pts[i + 1]]))
    return total


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
    alg = I.algebra
    c_ideal = Ideal(alg, (c,))
    for A in range(nmax + 1):
        ok = True
        for n in range(1, nmax + 1):
            lhs = c_ideal.intersect(I.power(n + A))
            rhs = Ideal(alg, tuple(c * g for g in I.power(n).gens))
            if not rhs.contains_ideal(lhs):
                ok = False
                break
        if ok:
            return A
    return None
