"""Buchberger's algorithm, multivariate division, reduced Groebner bases.

A reduced basis is a plain tuple of monic polynomials in increasing term
order, () for the zero ideal. It is unique (Cox-Little-O'Shea, ch. 2
section 7), so two ideals are equal iff their bases compare equal, and the
unit ideal's basis is exactly (1,).

Pair selection is fixed (normal strategy: minimal lcm degree first,
lexicographic tie-break on pair indices) so output is deterministic.
Inside this module a monomial is one int X = K*2^SH + E (Bachmann-
Schoenemann, ISSAC 1998; Monagan-Pearce, CASC 2007). E, the low SH bits,
holds each exponent in its own field under a guard bit; K is the order
key, whose entries are linear in the exponent (lex, grevlex, block) and
sit in fields wider than their spread. So a product of monomials adds X,
comparing X compares keys, and a divides b iff ((X_b | G) - X_a) & G == G
for the guard bits G. Exponents stay below 2^EXPONENT_BITS; a larger one,
given or created, is refused with PreconditionError. Pairs come off a heap
keyed by (lcm degree, i, j) and division takes terms off a heap of -X,
largest first, so neither rescans what it has ranked and the remainder
comes back sorted. Division combines plain-int numerators over one common
denominator (over 1 on Fp), each reducer cleared and packed once, cached
on it; a term leaving the heap is read through field.residue (mod p on
Fp), and one whose residue is 0 is dropped without a step. Division
reduces a term by its first dividing reducer and remembers, per monomial,
that reducer's index, or how many reducers it has ruled out. Within one
Buchberger run the reducer list only grows at its end, so a first
reducer stays first: one memo serves the whole S-pair loop, one the
final inter-reduction, and each picks the reducer a fresh scan would.
Buchberger forms each S-pair straight from the two packed reducers and
divides it in the same loop as normal_form; s_polynomial, on tuple
exponents in field arithmetic, is the independent route is_groebner takes.
A monomial ideal skips the loop: its reduced basis is its minimal
generators (Cox-Little-O'Shea, ch. 2 section 4), so it spends no steps.
A reduction-step budget converts runaway inputs into a clean
BudgetExceededError rather than a wrong answer. It is scoped, not global:
inside `with budget(n) as work:` every computation draws on the same n
steps and counts its work in the same record, and a call made outside any
scope gets DEFAULT_BUDGET steps and a record of its own.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from contextvars import ContextVar
from functools import reduce, wraps
from math import gcd
from operator import le, mul, sub

from .errors import BudgetExceededError, PreconditionError, RingMismatchError
from .poly import Polynomial

DEFAULT_BUDGET = 10**6
EXPONENT_BITS = 24
_LIMIT = (1 << EXPONENT_BITS) - 1  # the largest exponent the kernel packs
_OVER_LIMIT = f"an exponent exceeds {_LIMIT} = 2^{EXPONENT_BITS} - 1, the Groebner limit"


class Work:
    """The reduction steps a budget scope allows, and the work done in it."""

    __slots__ = (
        "budget", "calls", "largest", "pairs", "divisions", "steps", "formed", "coprime",
        "chain", "zeros",
    )

    def __init__(self, budget):
        self.budget = budget
        self.calls = 0  # buchberger calls
        self.largest = 0  # length of the largest basis a buchberger call returned
        self.pairs = 0  # S-pairs reduced
        self.divisions = 0  # runs of the division loop
        self.steps = 0  # reduction steps taken
        self.formed = 0  # S-pairs formed
        self.coprime = 0  # pairs skipped for coprime lead terms
        self.chain = 0  # pairs skipped by the chain criterion
        self.zeros = 0  # S-pairs reduced to zero


# the work record of the innermost scope
_work = ContextVar("groebner_work", default=None)


@contextmanager
def budget(n):
    """Scope in which all Groebner computations together may take n reduction steps.

    Yields the scope's Work record.
    """
    work = Work(n)
    token = _work.set(work)
    try:
        yield work
    finally:
        _work.reset(token)


def _budgeted(fn):
    """Run fn in the caller's budget scope, or in a DEFAULT_BUDGET one of its own."""

    @wraps(fn)
    def wrapper(*args, **kwargs):
        if _work.get() is not None:
            return fn(*args, **kwargs)
        with budget(DEFAULT_BUDGET):
            return fn(*args, **kwargs)

    return wrapper


def _minimalize(exps):
    """The exponents no other one divides, each once, by degree then exponent."""
    exps = sorted(set(exps), key=lambda e: (sum(e), e))
    out = []
    for e in exps:
        if not any(all(map(le, m, e)) for m in out):
            out.append(e)
    return out


class _Packing:
    """A ring's packed monomials X = K*2^SH + E, with SH = nvars*w: E has
    exponent i at bit i*w, its guard bit EXPONENT_BITS higher, with w wide
    enough for a sum of nvars exponents; K has key entry j of m at
    stride^(m - 1 - j), stride past its spread."""

    def __init__(self, ring):
        n, key = ring.nvars, ring.order.key
        w = EXPONENT_BITS + n.bit_length()
        self.shifts = range(0, n * w, w)
        self.emask = (1 << n * w) - 1  # X & emask is E
        self.guard = sum(1 << (s + EXPONENT_BITS) for s in self.shifts)
        # E * ones holds the exponent sum in field n - 1, carry-free
        self.ones = sum(1 << s for s in self.shifts)
        self.top, self.mask = w * max(n - 1, 0), (1 << w) - 1
        units = [key(tuple(int(i == j) for j in range(n))) for i in range(n)]
        m = len(key((0,) * n))
        stride = max((_LIMIT * sum(abs(u[j]) for u in units) for j in range(m)), default=0)
        stride = stride.bit_length()
        # X is linear in the exponent: column i is the X of variable i
        self.columns = tuple(
            (sum(c << (stride * (m - 1 - j)) for j, c in enumerate(u)) << n * w) + (1 << s)
            for u, s in zip(units, self.shifts)
        )

    def pack(self, e):
        """X of the exponent tuple e."""
        if max(e, default=0) > _LIMIT:
            raise PreconditionError(_OVER_LIMIT)
        return sum(map(mul, e, self.columns))

    def unpack(self, E):
        """The exponent tuple of E, or of any X whose E it is."""
        return tuple((E >> s) & _LIMIT for s in self.shifts)

    def degree(self, E):
        return (E * self.ones >> self.top) & self.mask

    def lcm(self, a, b):
        """E of the lcm of the monomials whose X (or E) are a and b."""
        g = self.guard
        ge = ((a | g) - b) & g  # guard bit set where a's exponent >= b's
        return (b ^ ((a ^ b) & (ge - (ge >> EXPONENT_BITS)))) & self.emask


def _packing(ring):
    ring._packing = ring._packing or _Packing(ring)
    return ring._packing


def _packed(g):
    """Nonzero g made monic, cleared and packed, cached on g:
    (lead X, L, tail, bound) with monic() = (L*lead + tail) / L,
    tail a tuple of (X, numerator) and bound the E of the tail's lcm."""
    if not hasattr(g, "_packed"):
        p = _packing(g.ring)
        L, nums = g.ring.field.clear(g.monic().terms)
        (lead, _), *tail = [(p.pack(e), c) for e, c in nums.items()]
        bound = reduce(p.lcm, (X for X, _ in tail), 0)
        g._packed = lead, L, tuple(tail), bound
    return g._packed


def _check_ring(ring, polys):
    for p in polys:
        if p.ring != ring:
            raise RingMismatchError("polynomial from a different ring")


@_budgeted
def normal_form(f, G, selector=None):
    """Remainder of f on division by G; no term divisible by any lead term of G.

    selector(candidates) picks the reducer among applicable divisor indices;
    default takes the first. Against a reduced basis the result does not
    depend on this choice.
    """
    polys = tuple(G)
    if polys:
        _check_ring(polys[0].ring, (f,) + polys)
    p = _packing(f.ring)
    den, nums = f.ring.field.clear(f.terms)
    work = {p.pack(e): c for e, c in nums.items()}
    reducers = [_packed(g) for g in polys if not g.is_zero()]
    return _divide(f.ring, den, work, reducers, selector, {})


def _divide(ring, den, work, reducers, selector, first):
    """Remainder of work/den on division by the packed reducers; work maps
    each term's X to its numerator.

    first is the memo of the default choice: X -> index of its first
    dividing reducer, or ~n when none of reducers[:n] divides X. It is
    valid for as long as reducers only grows at its end, so a caller may
    share it across divisions by one such list, and no longer.
    """
    field, p = ring.field, _packing(ring)
    residue, guard = field.residue, p.guard
    record = _work.get()
    record.divisions += 1
    # a term enters work once and leaves it when popped, so every heap
    # entry is in work: a step only adds terms below the one it reduces
    heap = [-x for x in work]
    heapq.heapify(heap)
    remainder = []
    while heap:
        x = -heapq.heappop(heap)
        c = residue(work.pop(x))
        if not c:  # cancelled (over Fp, a multiple of p): no step
            continue
        xg = x | guard  # a reducer applies iff (xg - its lead X) keeps every guard bit
        if selector is None:
            k = first.get(x, -1)
            if k < 0:  # scan only the reducers appended since the last miss
                for k in range(~k, len(reducers)):
                    if (xg - reducers[k][0]) & guard == guard:
                        break
                else:
                    k = ~len(reducers)
                first[x] = k
            r = reducers[k] if k >= 0 else None
        else:
            candidates = [i for i, r in enumerate(reducers) if (xg - r[0]) & guard == guard]
            r = reducers[selector(candidates)] if candidates else None
        if r is None:
            # terms leave largest first, so this one is final
            remainder.append((p.unpack(x), field.fraction(c, den)))
            continue
        lead, L, tail, bound = r
        record.steps += 1
        if record.steps > record.budget:
            raise BudgetExceededError("reduction-step budget exhausted")
        # scale the work by s = L/h so that (c/h)*(L*lead + tail) cancels c;
        # L = 1 over Fp, so s = 1 there
        h = gcd(c, L)
        s, q = L // h, -(c // h)
        if s != 1:
            den *= s
            for t in work:
                work[t] *= s
        shift = x - lead
        if (bound + shift) & guard:
            raise PreconditionError(_OVER_LIMIT)
        for tx, tc in tail:
            nx = tx + shift
            wc = work.get(nx)
            if wc is None:
                heapq.heappush(heap, -nx)
                work[nx] = tc * q
            else:
                work[nx] = wc + tc * q
    return Polynomial(ring, tuple(remainder))


def _s_pair(f, g):
    """S-polynomial of monic f and g as (den, numerators by X), from their
    packed tails.

    With den = lcm(L_f, L_g), each tail is shifted to the lcm of the leads and
    scaled by +-den/L; the leads cancel by construction.
    """
    p = _packing(f.ring)
    (xf, lf, tf, bf), (xg, lg, tg, bg) = _packed(f), _packed(g)
    xm, den = p.pack(p.unpack(p.lcm(xf, xg))), lf // gcd(lf, lg) * lg
    work = {}
    for x, q, tail, bound in ((xf, den // lf, tf, bf), (xg, -(den // lg), tg, bg)):
        shift = xm - x
        if (bound + shift) & p.guard:
            raise PreconditionError(_OVER_LIMIT)
        for tx, c in tail:
            nx = tx + shift
            work[nx] = work.get(nx, 0) + c * q
    return den, work


def s_polynomial(f, g):
    lcm = tuple(map(max, f.lead_exp, g.lead_exp))
    field = f.ring.field
    mf = f.mul_term(tuple(map(sub, lcm, f.lead_exp)), field.inv(f.lead_coeff))
    mg = g.mul_term(tuple(map(sub, lcm, g.lead_exp)), field.inv(g.lead_coeff))
    return mf - mg


@_budgeted
def buchberger(gens):
    """Reduced Groebner basis of the ideal generated by gens.

    Both standard criteria are applied: coprime lead terms, and the chain
    criterion against already-processed pairs. When every generator is one
    term, the basis is the monic minimal generators, found with no
    reduction steps. The zero ideal's basis is ().
    """
    record = _work.get()
    record.calls += 1
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return ()
    ring = gens[0].ring
    _check_ring(ring, gens)
    if all(len(g.terms) == 1 for g in gens):
        leads = sorted(_minimalize(g.lead_exp for g in gens), key=ring.order.key)
        record.largest = max(record.largest, len(leads))
        return tuple(map(ring.monomial, leads))

    p = _packing(ring)
    # packed[i] is basis[i] packed; a pair is (lcm degree, i, j, lcm E)
    basis, packed, pairs, done = [], [], [], set()

    def append(r):
        # (lcm degree, i, j) keys are unique, so popping the least pair is
        # the same choice as a min over every pending pair
        r = r.monic()
        t, lt = len(basis), _packed(r)[0]
        for k, b in enumerate(packed):
            m = p.lcm(b[0], lt)
            heapq.heappush(pairs, (p.degree(m), k, t, m))
        record.formed += t
        basis.append(r)
        packed.append(_packed(r))

    for g in sorted(gens, key=lambda p: ring.order.key(p.lead_exp)):
        r = normal_form(g, basis)
        if not r.is_zero():
            append(r)

    first = {}  # packed only grows at its end, so one memo serves every S-pair
    while pairs:
        _, i, j, m = heapq.heappop(pairs)
        done.update(((i, j), (j, i)))
        # criterion: coprime lead terms reduce to zero
        if m == (packed[i][0] + packed[j][0]) & p.emask:
            record.coprime += 1
            continue
        # chain criterion: some k with lt_k | lcm and both pairs already
        # done; (i, i) is never done, so k is neither i nor j
        mg, g = m | p.guard, p.guard
        if any(
            (mg - b[0]) & g == g and (i, k) in done and (j, k) in done
            for k, b in enumerate(packed)
        ):
            record.chain += 1
            continue
        record.pairs += 1
        r = _divide(ring, *_s_pair(basis[i], basis[j]), packed, None, first)
        record.zeros += r.is_zero()
        if not r.is_zero():
            append(r)

    reduced = _reduce_basis(ring, basis)
    record.largest = max(record.largest, len(reduced))
    return reduced


def _reduce_basis(ring, basis):
    # minimalize: drop members whose lead term another member's divides;
    # no two leads are equal, since each new member is a remainder
    leads = set(_minimalize(g.lead_exp for g in basis))
    minimal = [g for g in basis if g.lead_exp in leads]
    # inter-reduce tails against all of minimal: a lead divides no term below
    # it, so g's own never applies to g's tail and the reducers are those of
    # normal_form(g, the others); the list is fixed, so one memo serves all
    reducers, first = [_packed(g) for g in minimal], {}
    reduced = []
    for g, (_, L, tail, _) in zip(minimal, reducers):
        r = _divide(ring, L, dict(tail), reducers, None, first)
        reduced.append(Polynomial(ring, g.terms[:1] + r.terms))
    reduced.sort(key=lambda p: ring.order.key(p.lead_exp))
    return tuple(reduced)


@_budgeted
def is_groebner(G):
    """Directly verify that every S-polynomial of G reduces to zero."""
    polys = list(G)
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            s = s_polynomial(polys[i], polys[j])
            if not normal_form(s, polys).is_zero():
                return False
    return True
