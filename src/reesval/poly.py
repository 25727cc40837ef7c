"""Exact multivariate polynomials: coefficient fields, term orders, rings, parsing.

Coefficients are exact: rationals by default, or residues modulo a configured
prime. Exponents are dense tuples of naturals, one entry per ring variable.
Terms are kept sorted strictly descending in the ring's active order, so the
leading term is always terms[0]. Polynomials move between rings by variable
name (`to_ring`, and `substitute` with images keyed by name), so no caller
writes down where a variable sits in another ring.

Polynomial text is read by one grammar, stated above `_parse_poly` and
written as regular expressions: signed terms, each a product of numbers
(`3`, `1/2`) and powers (`x`, `x^2`), with `*` or plain juxtaposition
between factors (`2x y` is `2*x*y`); a number needs a `*` before it unless
it opens the term. Variable names are `[A-Za-z_][A-Za-z_0-9]*`, always read
whole, and a ring refuses any other name.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from itertools import product
from math import lcm
from operator import add, neg

from .errors import PreconditionError, RingMismatchError


# ---------------------------------------------------------------------------
# coefficient fields
# Division adds and multiplies int numerators over one denominator: clear(terms)
# gives them, residue(n) reduces one (mod p over Fp), fraction(n, den) maps it back.


class RationalField:
    """The field of exact rationals."""

    name = "QQ"

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into QQ")

    zero = Fraction(0)
    one = Fraction(1)
    add, mul, neg = operator.add, operator.mul, operator.neg
    residue = operator.pos
    fraction = Fraction

    def inv(self, a):
        return 1 / a

    def clear(self, terms):
        den = lcm(*(c.denominator for _, c in terms))
        return den, {e: c.numerator * (den // c.denominator) for e, c in terms}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base above; below it the test is exact
_MR_BOUND = 3317044064679887385961981


def _is_prime(p):
    """Deterministic Miller-Rabin, exact for p < _MR_BOUND."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Integers modulo a prime p < _MR_BOUND, residues reduced to [0, p)."""

    def __init__(self, p):
        if p >= _MR_BOUND:
            raise ValueError(f"{p} is too large: primality is exact below {_MR_BOUND}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"Fp({p})"
        self.zero = 0
        self.one = 1 % p
        self.residue = p.__rmod__

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise PreconditionError(f"{x} has no value in {self.name}")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)

    def clear(self, terms):
        return 1, dict(terms)

    def fraction(self, n, den):
        return self.mul(n, self.inv(den))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()


# ---------------------------------------------------------------------------
# monomial orders
#
# Each order maps an exponent tuple to a sort key; exponents compare by key.
# Bigger key = bigger monomial. Keys are flat int tuples of one length per
# ring, linear in the exponent, so groebner packs each key into one int
# (exponents below 2^24) and its division heap holds the negated ints.


class MonomialOrder:
    def key(self, exp):
        raise NotImplementedError

    def __eq__(self, other):
        return repr(self) == repr(other)

    def __hash__(self):
        return hash(repr(self))


class Lex(MonomialOrder):
    def key(self, exp):
        return exp

    def __repr__(self):
        return "lex"


def _grevlex(exp):
    return (sum(exp),) + tuple(map(neg, reversed(exp)))


class GrevLex(MonomialOrder):
    key = staticmethod(_grevlex)

    def __repr__(self):
        return "grevlex"


class Block(MonomialOrder):
    """Split the variables at position k; compare the front block first,
    grevlex inside each block.

    Used for elimination: variables to be dropped go in the front block.
    """

    def __init__(self, k):
        self.k = k

    def key(self, exp):
        return _grevlex(exp[: self.k]) + _grevlex(exp[self.k :])

    def __repr__(self):
        return f"block({self.k},grevlex,grevlex)"


# ---------------------------------------------------------------------------
# rings and polynomials


class PolyRing:
    """A polynomial ring: named variables, coefficient field, term order."""

    def __init__(self, names, field=QQ, order=None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for name in names:
            if not re.fullmatch(_NAME, name):
                raise ValueError(f"{name!r} is not a name [A-Za-z_][A-Za-z_0-9]*")
        self.names = names
        self.field = field
        self.order = order or GrevLex()
        self.nvars = len(names)
        self._index = {n: i for i, n in enumerate(names)}
        self._packing = None  # groebner's packing constants, filled there

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PolyRing)
            and self.names == other.names
            and self.field == other.field
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.names, self.field, self.order))

    def __repr__(self):
        return f"{self.field}[{','.join(self.names)}; {self.order!r}]"

    def var_index(self, name):
        if name not in self._index:
            raise RingMismatchError(f"{self} has no variable {name!r}")
        return self._index[name]

    def fresh_names(self, *wanted):
        """Auxiliary names the ring does not use: each wanted name becomes the
        first of name, name_, name__, ... that neither the ring nor an
        earlier one of them takes."""
        taken = set(self.names)
        out = []
        for name in wanted:
            while name in taken:
                name += "_"
            taken.add(name)
            out.append(name)
        return tuple(out)

    @property
    def zero(self):
        return Polynomial(self, ())

    @property
    def one(self):
        return self.monomial((0,) * self.nvars)

    def monomial(self, exp, coeff=1):
        c = self.field.coerce(coeff)
        if c == self.field.zero:
            return self.zero
        return Polynomial(self, ((tuple(exp), c),))

    def gens(self):
        out = []
        for i in range(self.nvars):
            e = [0] * self.nvars
            e[i] = 1
            out.append(self.monomial(e))
        return out

    def gen(self, name):
        e = [0] * self.nvars
        e[self.var_index(name)] = 1
        return self.monomial(e)

    def poly_from_dict(self, d):
        f = self.field
        terms = [(e, c) for e, c in d.items() if c != f.zero]
        terms.sort(key=lambda t: self.order.key(t[0]), reverse=True)
        return Polynomial(self, tuple(terms))

    def parse(self, text):
        return _parse_poly(self, text)

    def monomials_up_to_degree(self, d):
        """All exponent tuples of total degree <= d."""
        out = []
        for exp in product(range(d + 1), repeat=self.nvars):
            if sum(exp) <= d:
                out.append(exp)
        return out


class Polynomial:
    """Immutable canonical polynomial: terms sorted strictly descending."""

    # _packed: this polynomial as a reducer in groebner's packed form, set there
    __slots__ = ("ring", "terms", "_packed")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- queries ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    @property
    def lead_exp(self):
        if not self.terms:
            raise PreconditionError("zero polynomial has no leading term")
        return self.terms[0][0]

    @property
    def lead_coeff(self):
        if not self.terms:
            raise PreconditionError("zero polynomial has no leading term")
        return self.terms[0][1]

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e, _ in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e, _ in self.terms}
        return len(degs) <= 1

    def constant_term(self):
        zero_exp = (0,) * self.ring.nvars
        for e, c in self.terms:
            if e == zero_exp:
                return c
        return self.ring.field.zero

    def uses_var(self, i):
        return any(e[i] > 0 for e, _ in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.monomial((0,) * self.ring.nvars, other)
        self._check(other)
        f = self.ring.field
        d = dict(self.terms)
        for e, c in other.terms:
            s = f.add(d.get(e, f.zero), c)
            if s == f.zero:
                d.pop(e, None)
            else:
                d[e] = s
        return self.ring.poly_from_dict(d)

    __radd__ = __add__

    def __neg__(self):
        f = self.ring.field
        return Polynomial(self.ring, tuple((e, f.neg(c)) for e, c in self.terms))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.monomial((0,) * self.ring.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.monomial((0,) * self.ring.nvars, other)
        self._check(other)
        # a one-term factor shifts the other's terms and keeps their order
        if len(other.terms) == 1:
            return self.mul_term(*other.terms[0])
        if len(self.terms) == 1:
            return other.mul_term(*self.terms[0])
        f = self.ring.field
        d = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(map(add, e1, e2))
                s = f.add(d.get(e, f.zero), f.mul(c1, c2))
                if s == f.zero:
                    d.pop(e, None)
                else:
                    d[e] = s
        return self.ring.poly_from_dict(d)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise PreconditionError("negative power")
        out = self.ring.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def monic(self):
        f = self.ring.field
        if self.is_zero() or self.lead_coeff == f.one:
            return self
        inv = f.inv(self.lead_coeff)
        return Polynomial(self.ring, tuple((e, f.mul(c, inv)) for e, c in self.terms))

    def mul_term(self, exp, coeff):
        f = self.ring.field
        return Polynomial(
            self.ring,
            tuple((tuple(map(add, e, exp)), f.mul(c, coeff)) for e, c in self.terms),
        )

    def diff(self, i):
        """Partial derivative with respect to variable i."""
        f = self.ring.field
        d = {}
        for e, c in self.terms:
            if e[i]:
                d[e[:i] + (e[i] - 1,) + e[i + 1 :]] = f.mul(c, f.coerce(e[i]))
        return self.ring.poly_from_dict(d)

    # -- structure ---------------------------------------------------------

    def substitute(self, target_ring, images):
        """Map this polynomial into target_ring through var -> images[name];
        a variable with no image goes to the target variable of its name."""
        out = target_ring.zero
        for e, c in self.terms:
            term = target_ring.monomial((0,) * target_ring.nvars, c)
            for name, p in zip(self.ring.names, e):
                if p:
                    image = images[name] if name in images else target_ring.gen(name)
                    term = term * image**p
            out = out + term
        return out

    def to_ring(self, target_ring):
        """This polynomial in target_ring, each variable sent to the target
        variable of the same name; a variable it uses must exist there."""
        d = {}
        for e, c in self.terms:
            ne = [0] * target_ring.nvars
            for name, p in zip(self.ring.names, e):
                if p:
                    ne[target_ring.var_index(name)] = p
            d[tuple(ne)] = target_ring.field.coerce(c)
        return target_ring.poly_from_dict(d)

    # -- equality / display --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            if other == 0:
                return self.is_zero()
            other = self.ring.monomial((0,) * self.ring.nvars, other)
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __repr__(self):
        return f"<{self}>"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for i, (e, c) in enumerate(self.terms):
            mono = "*".join(
                f"{self.ring.names[j]}^{p}" if p > 1 else self.ring.names[j]
                for j, p in enumerate(e)
                if p > 0
            )
            neg = isinstance(c, Fraction) and c < 0
            mag = -c if neg else c
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if i == 0:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)


# ---------------------------------------------------------------------------
# parsing, with any spaces between two tokens:
#   poly   = '-'? term (('+' | '-') term)*
#   term   = factor ('*' factor | power)*      so 2x, x y and x*2 all read
#   factor = number | power,   power = name ('^' digits)?
#   number = digits ('/' digits)?,   name = [A-Za-z_][A-Za-z_0-9]*, longest
# Each \s* is followed by a token or the end, and a name takes all its letters,
# so a failed match gives back each character a bounded number of times: the
# match stays linear (a name without the lookahead backtracks exponentially).

_NAME = r"[A-Za-z_][A-Za-z_0-9]*(?![A-Za-z_0-9])"
_POWER = rf"{_NAME}(?:\s*\^\s*\d+)?"
_FACTOR = rf"(?:\d+(?:/\d+)?|{_POWER})"
_TERM = rf"{_FACTOR}(?:\s*(?:\*\s*{_FACTOR}|{_POWER}))*"
_POLY = re.compile(rf"\s*(?:-\s*)?{_TERM}(?:\s*[+-]\s*{_TERM})*\s*")
_SIGNED_TERM = re.compile(rf"(?:^\s*|([+-])\s*)({_TERM})")
_FACTORS = re.compile(rf"(\d+)(?:/(\d+))?|({_NAME})(?:\s*\^\s*(\d+))?")


def _parse_poly(ring, text):
    if not _POLY.fullmatch(text):
        raise PreconditionError(f"not a polynomial: {text!r}")
    field, terms = ring.field, {}
    for sign, term in _SIGNED_TERM.findall(text):
        coeff, exp = Fraction(-1 if sign == "-" else 1), [0] * ring.nvars
        for num, den, name, power in _FACTORS.findall(term):
            if name:
                if name not in ring._index:
                    raise PreconditionError(f"unknown variable {name!r}")
                exp[ring._index[name]] += int(power or 1)
            elif den and not int(den):
                raise PreconditionError(f"zero denominator in {num}/{den}")
            else:
                coeff *= Fraction(int(num), int(den or 1))
        e = tuple(exp)
        terms[e] = field.add(terms.get(e, field.zero), field.coerce(coeff))
    return ring.poly_from_dict(terms)
