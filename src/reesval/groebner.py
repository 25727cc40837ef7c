"""Buchberger's algorithm, multivariate division, reduced Groebner bases.

A reduced basis is a plain tuple of monic polynomials in increasing term
order, () for the zero ideal. It is unique (Cox-Little-O'Shea, ch. 2
section 7), so two ideals are equal iff their bases compare equal, and the
unit ideal's basis is exactly (1,).

Pair selection is fixed (normal strategy: minimal lcm degree first,
lexicographic tie-break on pair indices) so output is deterministic.
Pairs come off a heap keyed that way, and division takes the terms of
the working polynomial off a heap of negated order keys, largest first;
neither rescans what it has already ranked. Order keys are flat int
tuples, so negating one entry by entry reverses its comparison.
Over QQ, division runs on integer numerators over one common denominator,
with each reducer cleared of denominators once (Fp: residues over 1).
Buchberger forms each S-pair on integer numerators straight from the two
cleared reducers and divides it in the same loop as normal_form;
s_polynomial, in field arithmetic, is the independent route is_groebner
takes.
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
from functools import wraps
from math import gcd
from operator import add, le, neg, sub

from .errors import BudgetExceededError, RingMismatchError

DEFAULT_BUDGET = 10**6


class Work:
    """The reduction steps a budget scope allows, and the work done in it."""

    __slots__ = ("budget", "pairs", "divisions", "steps")

    def __init__(self, budget):
        self.budget = budget
        self.pairs = 0  # S-pairs reduced
        self.divisions = 0  # runs of the division loop
        self.steps = 0  # reduction steps taken


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


def _divides(a, b):
    return all(map(le, a, b))


def _minimalize(exps):
    """The exponents no other one divides, each once, by degree then exponent."""
    exps = sorted(set(exps), key=lambda e: (sum(e), e))
    out = []
    for e in exps:
        if not any(_divides(m, e) for m in out):
            out.append(e)
    return out


def _lcm(a, b):
    return tuple(map(max, a, b))


def _sub_exp(a, b):
    return tuple(map(sub, a, b))


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
    return _divide(f.ring, *f.ring.field.clear(f.terms), polys, selector)


def _divide(ring, den, work, polys, selector):
    """Remainder of work/den on division by polys; work maps exponents to numerators."""
    field = ring.field
    fadd, fmul = field.add, field.mul
    record = _work.get()
    record.divisions += 1
    # monic g is (L*lead + tail) / L; the work is numerators over den
    reducers = [g.cleared() for g in polys if not g.is_zero()]
    order_key = ring.order.key
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
        record.steps += 1
        if record.steps > record.budget:
            raise BudgetExceededError("reduction-step budget exhausted")
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


def _s_pair(f, g):
    """S-polynomial of monic f and g as (den, numerators), from their cleared tails.

    With den = lcm(L_f, L_g), each tail is shifted to the lcm of the leads and
    scaled by +-den/L; the leads cancel by construction.
    """
    (ef, lf, tf), (eg, lg, tg) = f.cleared(), g.cleared()
    m, den = _lcm(ef, eg), lf // gcd(lf, lg) * lg
    fadd, fmul = f.ring.field.add, f.ring.field.mul
    work = {}
    for lt, q, tail in ((ef, den // lf, tf), (eg, -(den // lg), tg)):
        shift = _sub_exp(m, lt)
        for e, c in tail:
            ne = tuple(map(add, e, shift))
            t = fadd(work.pop(ne), fmul(c, q)) if ne in work else fmul(c, q)
            if t:
                work[ne] = t
    return den, work


def s_polynomial(f, g):
    lcm = _lcm(f.lead_exp, g.lead_exp)
    field = f.ring.field
    mf = f.mul_term(_sub_exp(lcm, f.lead_exp), field.inv(f.lead_coeff))
    mg = g.mul_term(_sub_exp(lcm, g.lead_exp), field.inv(g.lead_coeff))
    return mf - mg


@_budgeted
def buchberger(gens):
    """Reduced Groebner basis of the ideal generated by gens.

    Both standard criteria are applied: coprime lead terms, and the chain
    criterion against already-processed pairs. When every generator is one
    term, the basis is the monic minimal generators, found with no
    reduction steps. The zero ideal's basis is ().
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return ()
    ring = gens[0].ring
    _check_ring(ring, gens)
    if all(len(g.terms) == 1 for g in gens):
        leads = sorted(_minimalize(g.lead_exp for g in gens), key=ring.order.key)
        return tuple(map(ring.monomial, leads))

    basis, pairs, done = [], [], set()

    def append(r):
        # (lcm degree, i, j) keys are unique, so popping the least pair is
        # the same choice as a min over every pending pair
        t, lt = len(basis), r.lead_exp
        for k, b in enumerate(basis):
            heapq.heappush(pairs, (sum(_lcm(b.lead_exp, lt)), k, t))
        basis.append(r.monic())

    for g in sorted(gens, key=lambda p: ring.order.key(p.lead_exp)):
        r = normal_form(g, basis)
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
        _work.get().pairs += 1
        r = _divide(ring, *_s_pair(fi, fj), basis, None)
        if not r.is_zero():
            append(r)

    return _reduce_basis(ring, basis)


def _reduce_basis(ring, basis):
    # minimalize: drop members whose lead term another member's divides;
    # no two leads are equal, since each new member is a remainder
    leads = set(_minimalize(g.lead_exp for g in basis))
    minimal = [g for g in basis if g.lead_exp in leads]
    # inter-reduce tails
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        reduced.append(normal_form(g, others).monic())
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
