"""Symbolic powers of primes via saturation by a proven separator element.

P^(n) = (P^n : s^infinity) for a separator s outside P that lies in the
radicals of J_R and J_{R/P}, the Jacobian ideals of the non-regular loci of
R and of R/P. At a prime Q containing P but not s, R_Q and (R/P)_Q are then
regular, so P^n R_Q is primary (Matsumura, Commutative Ring Theory, Thm.
14.2) and no embedded component of P^n survives the saturation. Over QQ
and Fp, perfect fields, J_{R/P} is P + M + the c x c minors of Jac(P + M),
c = nvars - dim R/P, and J_R the same for P = 0 (Eisenbud, Commutative
Algebra, Cor. 16.20); both need the modulus M prime, so R must be asserted
a domain or have no modulus.

The symbolic powers form a graded family, P^(a) * P^(b) inside P^(a+b),
so a cached lower power gives a smaller ideal with the same saturation.
Write A_m = (P^m : s^infinity), the cached result for every separator s,
proven or not. For g in A_k and h in A_(n-k), some s^a * g lies in P^k
and s^b * h in P^(n-k), so s^(a+b) * g * h lies in P^n. Hence P^n lies
in A_k * P^(n-k), which lies in A_k * A_(n-k), which lies in A_n.
Saturating any ideal between P^n and A_n gives A_n, whose reduced basis
the elimination returns: the result is the same, generator for
generator, whichever of them is saturated.

Results and proofs are cached on the prime's own Ideal handle, as its
Groebner basis is, so they live as long as that handle: repeated calls with
the same handle reuse them, and a re-parsed session starts with none.
J_{R/P} is cached there too, so each separator tried reuses it, and J_R is
cached the same way on the algebra's zero ideal, which all its primes
share. Only a certificate reports the saturation depth, so symbolic_power
measures it on first request and keeps it; exact_power never does.
"""

from __future__ import annotations

from itertools import combinations

from .errors import BudgetExceededError, PreconditionError
from .ideals import Ideal
from .multiplicity import krull_dim
from .poly import Polynomial

DEFAULT_NMAX = 12


def sweep_range(name, bound):
    """1..bound; an empty sweep would pass vacuously, so bound < 1 is refused."""
    if bound < 1:
        raise PreconditionError(f"{name} must be at least 1, got {bound}")
    return range(1, bound + 1)


def clear_cache():
    """No-op kept for existing callers: the cache lives on each prime's handle."""


def _det(m, one):
    """Determinant of a square matrix of polynomials by cofactor expansion
    along its first row; the empty matrix has determinant one."""
    if not m:
        return one
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]], one)
        for j in range(len(m))
    )


def _jacobian_ideal(alg, gens, dim):
    """gens + modulus + the c x c minors of their Jacobian matrix, where
    c = nvars - dim and dim is the dimension of their quotient."""
    ring = alg.ring
    jac = [[g.diff(i) for i in range(ring.nvars)] for g in tuple(gens) + alg.modulus]
    c = ring.nvars - dim
    minors = tuple(
        _det([[row[k] for k in cols] for row in rows], ring.one)
        for rows in combinations(jac, c)
        for cols in combinations(range(ring.nvars), c)
    )
    return Ideal(alg, tuple(gens) + minors)


def _prove(P, separator):
    """(separator, proven) for the powers of P. At dim R/P = 0, P is maximal
    and its powers primary: "auto" needs no separator and any other is
    proven. Otherwise "auto" is the first proven variable outside P, else
    the product of the first basis elements of J_R and of J_{R/P} outside
    P, else refused."""
    alg = P.algebra
    d = krull_dim(P)
    if d == 0:
        return (None if separator == "auto" else separator), True
    if "domain" not in alg.asserted and alg.modulus:
        if separator == "auto":
            raise PreconditionError("no proven separator: R is not asserted a domain")
        return separator, False
    for I in (alg.zero_ideal, P):
        if I._jacobian is None:
            I._jacobian = _jacobian_ideal(alg, I.gens, krull_dim(I))
    loci = (alg.zero_ideal._jacobian, P._jacobian)
    if separator != "auto":
        return separator, all(J.radical_contains(separator) for J in loci)
    for x in alg.ring.gens():
        if not P.contains_poly(x) and all(J.radical_contains(x) for J in loci):
            return x, True
    outside = [next((g for g in J.gb() if not P.contains_poly(g)), None) for J in loci]
    if None in outside:
        raise PreconditionError(
            "no proven separator: P lies in the singular locus of R"
        )
    return outside[0] * outside[1], True


def symbolic_power(P, n, separator="auto"):
    """n-th symbolic power of the (asserted) prime P, with a certificate.

    The separator is "auto" or a polynomial. Returns (ideal, certificate).
    The certificate records the separator, the saturation exponent, a
    radical-membership check on the result and whether the separator is
    proven; a result that fails either gives "upper bound candidate",
    never an error.

    The elimination saturates P^(k) * P^(n-k) for the largest k < n cached
    on P by the same separator, else P^n (see the module docstring). Only
    the certificate's saturation exponent, P^n's depth, reads P^n itself.
    """
    entry = _saturated(P, n, separator)
    if entry[2] is None:
        entry[2] = P.power(n).saturation_depth(entry[1], entry[0])
    return entry[0], _certificate(*entry[1:])


def _saturated(P, n, separator):
    """P^(n)'s entry [ideal, separator, depth, radical_ok, proven], cached on
    P for n >= 2; the depth stays None until symbolic_power measures it."""
    if n < 0:
        raise PreconditionError("negative symbolic power")
    if separator != "auto" and not isinstance(separator, Polynomial):
        raise PreconditionError('separator must be "auto" or a polynomial')
    if n <= 1:
        return [P if n else P.power(0), None, 0, True, True]
    key = (n, str(separator))
    if key in P._symbolic_powers:
        return P._symbolic_powers[key]
    if separator != "auto" and P.contains_poly(separator):
        raise PreconditionError("separator lies in the prime")
    if str(separator) not in P._separators:
        P._separators[str(separator)] = _prove(P, separator)
    separator, proven = P._separators[str(separator)]
    if separator is None:
        result, depth = P.power(n), 0
    else:
        result, depth = _lower_product(P, key).saturation(separator), None
    radical_ok = all(P.radical_contains(g) for g in result.gens)
    P._symbolic_powers[key] = [result, separator, depth, radical_ok, proven]
    return P._symbolic_powers[key]


def _lower_product(P, key):
    """What P^(n)'s elimination saturates: P^(k) * P^(n-k) for the largest
    cached k < n, k >= 2, under the same separator text, the cofactor the
    cached P^(n-k) or else the ordinary power; P^n when no k is cached."""
    n, text = key
    k = max((k for k in range(2, n) if (k, text) in P._symbolic_powers), default=None)
    if k is None:
        return P.power(n)
    cofactor = P._symbolic_powers.get((n - k, text))
    return P._symbolic_powers[k, text][0].product(cofactor[0] if cofactor else P.power(n - k))


def _certificate(separator, steps, radical_ok, proven):
    return {
        "separator": str(separator) if separator is not None else None,
        "saturation_steps": steps,
        "radical_ok": radical_ok,
        "proven": proven,
        "status": "exact" if radical_ok and proven else "upper bound candidate",
    }


def exact_power(P, n):
    """P^(n) by "auto", its depth unmeasured; a power not exact is refused."""
    power, _, _, radical_ok, proven = _saturated(P, n, "auto")
    if not (radical_ok and proven):
        raise PreconditionError(f"symbolic power downgraded: {symbolic_power(P, n)[1]}")
    return power


def ord_at(P, f, nmax=DEFAULT_NMAX):
    """(largest n <= nmax with f in P^(n), confirmed_flag).

    confirmed_flag is False only when the sweep hit nmax while f was still
    a member, so the true order may exceed the reported value. A power
    whose certificate is not exact is refused (see exact_power).
    """
    f = P.algebra.reduce(f)
    if f.is_zero():
        raise PreconditionError("ord of zero")
    for k in sweep_range("nmax", nmax):
        if not exact_power(P, k).contains_poly(f):
            return k - 1, True
    return nmax, False


def _order_along(Q, g):
    """ord_at(Q, g) for Q a height-1 prime. The height is screened by
    ht Q = dim A - dim A/Q, exact in a domain (Eisenbud, Commutative
    Algebra, Cor. 13.4), so an algebra with a modulus must be asserted one."""
    alg = Q.algebra
    if alg.modulus and "domain" not in alg.asserted:
        raise PreconditionError("no height screen: the algebra is not asserted a domain")
    if krull_dim(alg.zero_ideal) - 1 != krull_dim(Q):
        raise PreconditionError("Q does not have height 1 in the algebra")
    return ord_at(Q, g)


def symbolic_order_along(Q, g):
    """Valuation of g read off as the Q-symbolic order, Q a height-1 prime.

    The powers use the proven "auto" separator. The sweep stops at
    DEFAULT_NMAX; an order it does not confirm raises BudgetExceededError.
    """
    order, confirmed = _order_along(Q, g)
    if not confirmed:
        raise BudgetExceededError(f"order of g along Q exceeds {DEFAULT_NMAX}")
    return order
