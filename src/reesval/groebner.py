"""Buchberger's algorithm, multivariate division, reduced Groebner bases.

Pair selection is fixed (normal strategy: minimal lcm degree first,
lexicographic tie-break on pair indices) so output is deterministic.
Pairs come off a heap keyed that way, and division takes the terms of
the working polynomial off a heap of negated order keys, largest first;
neither rescans what it has already ranked. Order keys are flat int
tuples, so negating one entry by entry reverses its comparison.
Over QQ, division runs on integer numerators over one common denominator,
with each reducer cleared of denominators once (Fp: residues over 1).
A global reduction-step budget converts runaway inputs into a clean
BudgetExceededError rather than a wrong answer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd
from operator import add, le, neg, sub

from .errors import BudgetExceededError, OrderError, RingMismatchError

DEFAULT_BUDGET = 10**6

_budget = [DEFAULT_BUDGET]


def set_default_budget(n):
    """Set the reduction-step budget of later calls; returns the previous one."""
    previous, _budget[0] = _budget[0], n
    return previous


def _divides(a, b):
    return all(map(le, a, b))


def _lcm(a, b):
    return tuple(map(max, a, b))


def _sub_exp(a, b):
    return tuple(map(sub, a, b))


@dataclass(frozen=True)
class GroebnerBasis:
    ring: object
    polys: tuple
    reduced: bool = False

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)


class _Counter:
    __slots__ = ("left",)

    def __init__(self, budget):
        self.left = budget if budget is not None else _budget[0]

    def tick(self, n=1):
        self.left -= n
        if self.left < 0:
            raise BudgetExceededError("reduction-step budget exhausted")


def _check_ring(ring, polys):
    for p in polys:
        if p.ring != ring:
            raise RingMismatchError("polynomial from a different ring")
    if not ring.order.all_weights_positive:
        raise OrderError("Groebner computations need an order with 1 <= m for all monomials")


def normal_form(f, G, budget=None, selector=None, _counter=None):
    """Remainder of f on division by G; no term divisible by any lead term of G.

    selector(candidates) picks the reducer among applicable divisor indices;
    default takes the first. Against a reduced basis the result does not
    depend on this choice.
    """
    polys = G.polys if isinstance(G, GroebnerBasis) else tuple(G)
    if polys:
        _check_ring(polys[0].ring, (f,) + tuple(polys))
    ring = f.ring
    field = ring.field
    fadd, fmul = field.add, field.mul
    counter = _counter or _Counter(budget)
    # monic g is (L*lead + tail) / L; the work is numerators over den
    reducers = [g.cleared() for g in polys if not g.is_zero()]
    order_key = ring.order.key
    den, work = field.clear(f.terms)
    heap = [(tuple(map(neg, order_key(e))), e) for e in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        e = heapq.heappop(heap)[1]
        if e not in work:  # cancelled after it was pushed
            continue
        c = work.pop(e)
        if selector is None:
            r = next((r for r in reducers if _divides(r[0], e)), None)
        else:
            candidates = [i for i, r in enumerate(reducers) if _divides(r[0], e)]
            r = reducers[selector(candidates)] if candidates else None
        if r is None:
            # terms leave largest first, so this one is final
            remainder[e] = field.fraction(c, den)
            continue
        lt, L, tail = r
        counter.tick()
        # scale the work by s = L/h so that (c/h)*(L*lead + tail) cancels c;
        # L = 1 over Fp, so s = 1 there
        h = gcd(c, L)
        s, q = L // h, -(c // h)
        if s != 1:
            den *= s
            for k in work:
                work[k] = fmul(work[k], s)
        shift = _sub_exp(e, lt)
        for ge, gc in tail:
            ne = tuple(map(add, ge, shift))
            if ne not in work:
                heapq.heappush(heap, (tuple(map(neg, order_key(ne))), ne))
                work[ne] = fmul(gc, q)
            else:
                t = fadd(work[ne], fmul(gc, q))
                if t:
                    work[ne] = t
                else:
                    del work[ne]
    return ring.poly_from_dict(remainder)


def s_polynomial(f, g):
    lcm = _lcm(f.lead_exp, g.lead_exp)
    field = f.ring.field
    mf = f.mul_term(_sub_exp(lcm, f.lead_exp), field.inv(f.lead_coeff))
    mg = g.mul_term(_sub_exp(lcm, g.lead_exp), field.inv(g.lead_coeff))
    return mf - mg


def buchberger(gens, budget=None):
    """Reduced Groebner basis of the ideal generated by gens.

    Both standard criteria are applied: coprime lead terms, and the chain
    criterion against already-processed pairs.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    ring = gens[0].ring
    _check_ring(ring, gens)
    counter = _Counter(budget)

    basis, pairs, done = [], [], set()

    def append(r):
        # (lcm degree, i, j) keys are unique, so popping the least pair is
        # the same choice as a min over every pending pair
        t, lt = len(basis), r.lead_exp
        for k, b in enumerate(basis):
            heapq.heappush(pairs, (sum(_lcm(b.lead_exp, lt)), k, t))
        basis.append(r.monic())

    for g in sorted(gens, key=lambda p: ring.order.key(p.lead_exp)):
        r = normal_form(g, basis, _counter=counter)
        if not r.is_zero():
            append(r)

    while pairs:
        _, i, j = heapq.heappop(pairs)
        done.add((i, j))
        fi, fj = basis[i], basis[j]
        lcm = _lcm(fi.lead_exp, fj.lead_exp)
        # criterion: coprime lead terms reduce to zero
        if lcm == tuple(map(add, fi.lead_exp, fj.lead_exp)):
            continue
        # chain criterion: some k with lt_k | lcm and both pairs already done
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _divides(basis[k].lead_exp, lcm):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in done and pjk in done:
                    skip = True
                    break
        if skip:
            continue
        r = normal_form(s_polynomial(fi, fj), basis, _counter=counter)
        if not r.is_zero():
            append(r)

    return _reduce_basis(ring, basis, counter)


def _reduce_basis(ring, basis, counter):
    # minimalize: drop members whose lead term another member's divides
    minimal = []
    for i, g in enumerate(basis):
        lead = g.lead_exp
        if any(
            _divides(h.lead_exp, lead) and (h.lead_exp != lead or j < i)
            for j, h in enumerate(basis)
            if j != i
        ):
            continue
        minimal.append(g)
    # inter-reduce tails
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        reduced.append(normal_form(g, others, _counter=counter).monic())
    reduced.sort(key=lambda p: ring.order.key(p.lead_exp))
    return GroebnerBasis(ring=ring, polys=tuple(reduced), reduced=True)


def contains(G, polys, budget=None):
    """True iff every element of polys reduces to zero against G."""
    counter = _Counter(budget)
    return all(normal_form(p, G, _counter=counter).is_zero() for p in polys)


def is_groebner(G, budget=None):
    """Directly verify that every S-polynomial of G reduces to zero."""
    counter = _Counter(budget)
    polys = list(G)
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            s = s_polynomial(polys[i], polys[j])
            if not normal_form(s, polys, _counter=counter).is_zero():
                return False
    return True
