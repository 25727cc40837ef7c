"""Hilbert series, Hilbert-Samuel multiplicity, and the length sampler.

Every count reads one source: the cached Groebner basis of an ideal (an
algebra's is that of its zero ideal), whose leading-term ideal goes
through a pivot recursion on monomial ideals that keeps every list of
generators it passes down minimal. A homogeneous ideal has the Hilbert
function of its initial ideal under any term order (Cox-Little-O'Shea,
ch. 9 section 3), so graded multiplicity and dimension read the ideal's
basis in its ring's own order. Local multiplicities at the origin go
through the associated graded ring of the extended Rees presentation,
cross-checkable against finite differences of a length table, which
refuses a quotient with a point other than the origin, and whose readers
refuse a reading of e <= 0, the sign of a Krull dimension larger than
the local one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb

from .errors import NotHomogeneousError, PreconditionError
from .groebner import _minimalize
from .ideals import AffineAlgebra, Ideal
from .rings import associated_graded, extended_rees_presentation


# ---------------------------------------------------------------------------
# Hilbert series of monomial quotients


@dataclass(frozen=True)
class HilbertSeries:
    """numerator / (1-t)^nvars with integer numerator coefficients."""

    numerator: tuple  # coefficient i belongs to t^i
    nvars: int

    def reduced(self):
        """(numerator with all (1-t) factors cancelled, number cancelled)."""
        coeffs = list(self.numerator)
        cancelled = 0
        while coeffs and sum(coeffs) == 0:
            # divide by (1-t): partial sums, the last (the zero sum) drops off
            coeffs = list(accumulate(coeffs))[:-1]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            cancelled += 1
        return tuple(coeffs), cancelled

    @property
    def dim(self):
        """Krull dimension of the graded quotient; -1 for the zero ring."""
        coeffs, cancelled = self.reduced()
        if not coeffs:
            return -1
        return self.nvars - cancelled

    @property
    def multiplicity(self):
        coeffs, _ = self.reduced()
        return sum(coeffs)

    def coefficients(self, upto):
        """Dimensions of the graded pieces in degrees 0..upto."""
        # expand numerator * sum binom(n-1+k, k) t^k
        out = [0] * (upto + 1)
        for i, c in enumerate(self.numerator):
            if c == 0 or i > upto:
                continue
            for k in range(upto - i + 1):
                out[i + k] += c * comb(self.nvars - 1 + k, k)
        return out


def _numerator(exps, nvars):
    """Numerator of HS(k[x]/(exps)) over (1-t)^nvars, as a coeff dict, for a
    minimal list exps: no member divides another."""
    if not exps:
        return {0: 1}
    if not any(exps[0]):  # the zero exponent, which a minimal list holds alone
        return {}
    mixed = [e for e in exps if sum(1 for p in e if p) > 1]
    if not mixed:  # pure powers of distinct variables: the product of (1 - t^a)
        coeffs = {0: 1}
        for a in map(sum, exps):
            for d, c in list(coeffs.items()):  # the old coefficients, shifted by a
                coeffs[d + a] = coeffs.get(d + a, 0) - c
        return {d: c for d, c in coeffs.items() if c}
    # pivot: pure power of the first supported variable of the
    # largest-degree mixed generator (deterministic)
    g = max(mixed, key=lambda e: (sum(e), e))
    j = next(i for i, p in enumerate(g) if p)
    pivot = tuple(g[j] if i == j else 0 for i in range(nvars))
    # without the pivot's multiples the list stays minimal: a generator that
    # divided the pivot would divide g
    out = _numerator([e for e in exps if e[j] < g[j]] + [pivot], nvars)
    colon = _minimalize(tuple(max(p - q, 0) for p, q in zip(e, pivot)) for e in exps)
    for d, c in _numerator(colon, nvars).items():
        out[d + g[j]] = out.get(d + g[j], 0) + c
    return {d: c for d, c in out.items() if c}


def hilbert_series_monomial(nvars, exps):
    """Hilbert series of k[x1..x_nvars]/(x^e for e in exps)."""
    exps = set(exps)
    if any(len(e) != nvars for e in exps):
        raise PreconditionError(f"an exponent is not of length nvars = {nvars}")
    num = _numerator(_minimalize(exps), nvars)
    top = max(num) if num else 0
    coeffs = tuple(num.get(i, 0) for i in range(top + 1))
    return HilbertSeries(numerator=coeffs, nvars=nvars)


# ---------------------------------------------------------------------------
# graded and local multiplicity


def graded_invariants(I):
    """(multiplicity, Krull dimension) of the standard graded algebra
    k[x]/(I + modulus), read off I's basis, which is homogeneous iff
    I + modulus is."""
    gb = I.gb()
    if any(not g.is_homogeneous() for g in gb):
        raise NotHomogeneousError("defining ideal is not homogeneous")
    hs = hilbert_series_monomial(I.algebra.ring.nvars, [g.lead_exp for g in gb])
    e = hs.multiplicity
    if e <= 0:
        raise PreconditionError("algebra is the zero ring")
    return e, hs.dim


def multiplicity_graded(S):
    """Hilbert-Samuel multiplicity of a standard graded algebra."""
    return graded_invariants(Ideal(S, ()))[0]


def krull_dim(I):
    """Dimension of k[x]/(I + modulus) via the leading-term ideal."""
    exps = [g.lead_exp for g in I.gb()]
    return hilbert_series_monomial(I.algebra.ring.nvars, exps).dim


def local_multiplicity_via_gr(R, f=None):
    """e of the local ring at the origin of R (or of R/(f)).

    Route: extended Rees presentation of the ideal of the variables,
    associated graded ring, graded multiplicity.
    """
    for m in R.modulus:
        if m.constant_term() != R.ring.field.zero:
            raise PreconditionError("origin is not on the variety")
    modulus = R.modulus
    if f is not None:
        f = R.reduce(f)
        if f.is_zero():
            raise PreconditionError("f is zero in the algebra")
        if f.constant_term() != R.ring.field.zero:
            raise PreconditionError("f does not vanish at the origin")
        modulus = modulus + (f,)
    base = AffineAlgebra(R.ring, modulus)
    maximal = Ideal(base, tuple(base.ring.gens()))
    pres = extended_rees_presentation(base, maximal)
    gr = associated_graded(pres)
    return multiplicity_graded(gr)


# ---------------------------------------------------------------------------
# length sampler


def length_sampler(R, I, f=None, N=5):
    """Lengths of R/(I^n + (f) + modulus) for n = 1..N, at the origin.

    Every sampled quotient must be zero-dimensional; lengths are counts
    of standard monomials of the reduced Groebner basis, read off the
    Hilbert series of its leading-term ideal. Such a length sums the
    lengths at every point, so a quotient with a point other than the
    origin is refused: every variable must lie in rad(I + (f) + modulus).
    That is tested once, at n = 1, on the basis already built: a variable
    lies in the radical of a quotient of length L iff its L-th power is 0.
    """
    if N < 1:  # an empty table has no multiplicity to read
        raise PreconditionError(f"N must be at least 1, got {N}")
    extra = (f,) if f is not None else ()
    table = []
    for n in range(1, N + 1):
        J = Ideal(R, I.power(n).gens + extra)
        hs = hilbert_series_monomial(R.ring.nvars, [g.lead_exp for g in J.gb()])
        if hs.dim > 0:
            raise PreconditionError("quotient is not zero-dimensional")
        if n == 1 and not all(J.contains_poly(x**hs.multiplicity) for x in R.ring.gens()):
            raise PreconditionError("quotient has a point other than the origin")
        table.append((n, hs.multiplicity))
    return table


def multiplicity_from_table(table, dim):
    """(e, stabilized) from a length table of (n, length) pairs.

    e is the dim-th finite difference of the lengths (equivalently dim!
    times the leading coefficient of the Hilbert-Samuel polynomial);
    dim is the dimension of the ring the lengths are measured in.
    stabilized means the last three dim-th differences agree.
    """
    lengths = [length for _, length in table]
    if len(lengths) < dim + 2:
        raise PreconditionError("table too short for the requested dimension")
    diffs = lengths
    for _ in range(dim):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    stabilized = len(diffs) >= 3 and diffs[-1] == diffs[-2] == diffs[-3]
    return diffs[-1], stabilized


def _read_at_origin(table, dim):
    """multiplicity_from_table with dim a Krull dimension, read as the
    dimension at the origin. It may be larger: a component of positive
    dimension away from the origin leaves the local lengths alone, so
    their dim-th differences settle at 0. A stabilized e <= 0 is refused."""
    e, stabilized = multiplicity_from_table(table, dim)
    if stabilized and e <= 0:
        raise PreconditionError(
            f"length table reads e = {e} in dimension {dim}: "
            "the dimension at the origin is smaller"
        )
    return e, stabilized


def local_multiplicity_via_table(R, I, f=None, N=6):
    """Sampler route to the local multiplicity at the origin; refuses
    unstabilized tables, readings of e <= 0 and, through the sampler,
    quotients with another point."""
    extra = (f,) if f is not None else ()
    dim = krull_dim(Ideal(R, extra))
    table = length_sampler(R, I, f=f, N=max(N, dim + 4))
    e, stabilized = _read_at_origin(table, dim)
    if not stabilized:
        raise PreconditionError("length table did not stabilize; raise N")
    return e
