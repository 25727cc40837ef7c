"""Symbolic powers of primes via saturation by a separator element.

The separator stands in for the multiplicative set complementary to the
associated primes: P^(n) = (P^n : separator^infinity). An "auto" separator
is derived only where provably valid; every saturated result is screened:
each random probe outside P must be a nonzerodivisor on R/result.

Results are cached on the prime's own Ideal handle, as its Groebner basis
is, so they live as long as that handle: repeated calls with the same
handle reuse them, and a re-parsed session starts with none.
"""

from __future__ import annotations

import random

from .errors import PreconditionError
from .ideals import Ideal
from .multiplicity import krull_dim
from .poly import Polynomial

DEFAULT_NMAX = 12
SCREEN_PROBES = 3


def sweep_range(name, bound):
    """1..bound; an empty sweep would pass vacuously, so bound < 1 is refused."""
    if bound < 1:
        raise PreconditionError(f"{name} must be at least 1, got {bound}")
    return range(1, bound + 1)


def clear_cache():
    """No-op kept for existing callers: the cache lives on each prime's handle."""


def first_variable_outside(P):
    """The first ring variable not in P, or None when every one lies in P."""
    return next((x for x in P.algebra.ring.gens() if not P.contains_poly(x)), None)


def auto_separator(P):
    """Separator for the powers of P, or None when no saturation is needed.

    dim(R/P) = 0: the powers are already primary to the maximal ideal at
    the origin, nothing to remove. Homogeneous P with dim(R/P) = 1: the
    only possible embedded prime is the irrelevant ideal, so any variable
    outside P separates. Other shapes need an explicit element.
    """
    d = krull_dim(P)
    if d == 0:
        return None
    if d == 1 and all(g.is_homogeneous() for g in P.gb()):
        x = first_variable_outside(P)
        if x is None:
            raise PreconditionError("every variable lies in P")
        return x
    raise PreconditionError(
        "no automatic separator for this prime; supply one explicitly"
    )


def _random_elements(P, count, seed):
    """Low-degree random elements outside P, for the primariness screen."""
    rng = random.Random(seed)
    ring = P.algebra.ring
    exps = [e for e in ring.monomials_up_to_degree(2) if sum(e) > 0]
    out = []
    attempts = 0
    while len(out) < count and attempts < 60 * count:
        attempts += 1
        g = ring.zero
        for e in rng.sample(exps, min(3, len(exps))):
            g = g + ring.monomial(e, rng.randint(1, 5))
        g = P.algebra.reduce(g)
        if not g.is_zero() and not P.contains_poly(g):
            out.append(g)
    return out


def symbolic_power(P, n, separator="auto", seed=0):
    """n-th symbolic power of the (asserted) prime P, with a certificate.

    The separator is "auto" or a polynomial. Returns (ideal, certificate).
    The certificate records the separator, the saturation exponent, a
    radical-membership check on the result and the primariness screen (a
    probe passes when the result saturated by it has depth 0); a failure
    gives "upper bound candidate", never an error.
    """
    if n < 0:
        raise PreconditionError("negative symbolic power")
    if separator != "auto" and not isinstance(separator, Polynomial):
        raise PreconditionError('separator must be "auto" or a polynomial')
    if n <= 1:
        power = P if n else Ideal(P.algebra, (P.algebra.ring.one,))
        return power, {"separator": None, "saturation_steps": 0, "status": "exact"}
    key = (n, str(separator), seed)
    if key in P._symbolic_powers:
        return P._symbolic_powers[key]
    Pn = P.power(n)
    if separator == "auto":
        separator = auto_separator(P)
    if separator is None:
        result, steps = Pn, 0
    else:
        if P.contains_poly(separator):
            raise PreconditionError("separator lies in the prime")
        result, steps = Pn.saturate(separator)
    radical_ok = all(P.radical_contains(g) for g in result.gens)
    screened = 0
    screen_ok = True
    if separator is not None:
        for g in _random_elements(P, SCREEN_PROBES, seed):
            screened += 1
            if result.saturate(g)[1]:
                screen_ok = False
                break
    status = "exact" if (radical_ok and screen_ok) else "upper bound candidate"
    cert = {
        "separator": str(separator) if separator is not None else None,
        "saturation_steps": steps,
        "radical_ok": radical_ok,
        "screen_probes": screened,
        "screen_ok": screen_ok,
        "status": status,
    }
    P._symbolic_powers[key] = (result, cert)
    return result, cert


def exact_power(P, n, separator="auto", seed=0):
    """P^(n) from symbolic_power; one whose certificate is not exact is refused."""
    power, cert = symbolic_power(P, n, separator=separator, seed=seed)
    if cert["status"] != "exact":
        raise PreconditionError(f"symbolic power downgraded: {cert}")
    return power


def ord_at(P, f, nmax=DEFAULT_NMAX, separator="auto", seed=0):
    """(largest n <= nmax with f in P^(n), confirmed_flag).

    confirmed_flag is False only when the sweep hit nmax while f was still
    a member, so the true order may exceed the reported value. A power
    whose certificate is not exact is refused (see exact_power).
    """
    f = P.algebra.reduce(f)
    if f.is_zero():
        raise PreconditionError("ord of zero")
    for k in sweep_range("nmax", nmax):
        if not exact_power(P, k, separator=separator, seed=seed).contains_poly(f):
            return k - 1, True
    return nmax, False


def symbolic_order_along(Q, g, seed=0):
    """Valuation of g read off as the Q-symbolic order, Q a height-1 prime.

    The height-1 hypothesis is screened by dimension; the separator is the
    first variable outside Q (validity is left to the primariness screen
    inside symbolic_power). The sweep stops at DEFAULT_NMAX.
    """
    ambient_dim = krull_dim(Ideal(Q.algebra, ()))
    if krull_dim(Q) != ambient_dim - 1:
        raise PreconditionError("Q does not have height 1 in the algebra")
    separator = first_variable_outside(Q)
    if separator is None:
        raise PreconditionError("every variable lies in Q")
    return ord_at(Q, g, separator=separator, seed=seed)[0]
