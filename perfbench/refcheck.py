"""Reference computations that do not use reesval.

The benchmark checks reesval's answers against these. Polynomials here
are plain dicts mapping exponent tuples to Fractions; nothing is shared
with the code under test except the text format of its reports.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product

_SPLIT = re.compile(r"\s+([+-])\s+")
_POWER = re.compile(r"([A-Za-z_]\w*)(?:\^(\d+))?$")


def parse_terms(text, names):
    """Parse a reesval polynomial string ("x^2*y - 3/2*z + 1") into a dict."""
    index = {n: i for i, n in enumerate(names)}
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:].strip()
    pieces = _SPLIT.split(text)
    out = {}
    for k in range(0, len(pieces), 2):
        if k:
            sign = -1 if pieces[k - 1] == "-" else 1
        coeff = Fraction(sign)
        exp = [0] * len(names)
        for factor in pieces[k].split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
                continue
            m = _POWER.match(factor)
            if not m or m.group(1) not in index:
                raise ValueError(f"cannot read factor {factor!r} of {text!r}")
            exp[index[m.group(1)]] += int(m.group(2) or 1)
        exp = tuple(exp)
        out[exp] = out.get(exp, 0) + coeff
    return {e: c for e, c in out.items() if c}


def poly_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_add(f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def poly_str(f, names):
    """Render a dict polynomial in the syntax reesval's parser reads."""
    parts = []
    for e, c in sorted(f.items(), key=lambda t: (-sum(t[0]), t[0])):
        mono = "*".join(
            f"{names[i]}^{p}" if p > 1 else names[i] for i, p in enumerate(e) if p
        )
        mag = abs(c)
        body = mono if mag == 1 and mono else (f"{mag}*{mono}" if mono else str(mag))
        parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    first = parts[0]
    return (first[2:] if first[0] == "+" else "-" + first[2:]) + "".join(
        " " + p for p in parts[1:]
    )


def derivative(f, var):
    out = {}
    for e, c in f.items():
        if e[var]:
            ne = list(e)
            ne[var] -= 1
            out[tuple(ne)] = c * e[var]
    return out


def vanishes_on_monomial_curve(f, weights, order):
    """True iff every partial derivative of f of order < `order` vanishes on
    the curve var_i = t^weights[i].

    In characteristic 0 this is membership of f in the order-th symbolic
    power of the curve's prime (Zariski-Nagata at its smooth points).
    """
    n = len(weights)
    layer = [f]
    for _ in range(order):
        for g in layer:
            on_curve = {}
            for e, c in g.items():
                d = sum(w * p for w, p in zip(weights, e))
                on_curve[d] = on_curve.get(d, 0) + c
            if any(on_curve.values()):
                return False
        layer = [derivative(g, i) for g in layer for i in range(n)]
    return True


def standard_monomial_count(lead_exps):
    """Monomials divisible by no lead exponent; None if there are infinitely many."""
    n = len(lead_exps[0])
    bounds = []
    for i in range(n):
        pure = [e[i] for e in lead_exps if all(p == 0 for j, p in enumerate(e) if j != i)]
        if not pure:
            return None
        bounds.append(min(pure))
    return sum(
        1
        for exp in product(*(range(b) for b in bounds))
        if not any(all(a <= b for a, b in zip(le, exp)) for le in lead_exps)
    )



_REF_PRIME = 32003


def reference_job():
    """Fixed exact polynomial arithmetic, with no reesval code in it.

    The benchmark times it beside every pass and states pass times in
    units of it. It does the same kinds of work as the code under test
    (dicts keyed by exponent tuples, Fraction and mod-p coefficients), so
    a change in the machine's speed moves both alike.
    """
    q = {}
    for i in range(5):
        e = [0] * 5
        e[i] = 1
        q[tuple(e)] = Fraction(i + 1, 7 - i)
    q[(0,) * 5] = Fraction(-3, 5)
    f = q
    for _ in range(4):
        f = poly_mul(f, q)
    g = {e: c.numerator * pow(c.denominator, -1, _REF_PRIME) % _REF_PRIME for e, c in f.items()}
    return len(f) + len({e: c % _REF_PRIME for e, c in poly_mul(g, g).items()})
