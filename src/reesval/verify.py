"""Theorem harness: each desk-checkable statement becomes a parameterized
sweep that emits a report.

No check ever claims a proof. By one rule (_verdict) each verdict is "pass"
or "fail" as the statement holds on the swept range of the fixture, or
"budget" when the evidence ran out; by another (CheckReport.verdict) the
whole check fails if any verdict fails, else is "budget" if any ran out.
Every report (_report) echoes each assertion its verdict leans on: its
claims, then the words asserted of its ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import permutations

from .errors import PreconditionError
from .ideals import AffineAlgebra, Ideal
from .monomial import rees_valuations_monomial
from .multiplicity import (
    graded_invariants,
    local_multiplicity_via_gr,
    read_length_table,
)
from .poly import Polynomial
from .rings import homogenize_ideal, lift_to_rees
from .symbolic import _order_along, exact_power, ord_at, sweep_range

CHEVALLEY_C_CAP = 8  # largest C_emp tried; past it the verdict is "budget"
ORDER_IDEAL_N = 7  # length-table depth of the order-ideal check


@dataclass
class CheckReport:
    name: str
    inputs: dict
    n_range: tuple
    verdicts: dict  # n -> "pass" | "fail" | "budget"
    relied_on: tuple
    details: dict = field(default_factory=dict)

    @property
    def verdict(self):
        """The whole check's: fail if any n fails, else budget if any ran out."""
        return next((v for v in ("fail", "budget") if v in self.verdicts.values()), "pass")

    @property
    def passed(self):
        return self.verdict == "pass"

    def to_dict(self):
        return {
            "check": self.name,
            "inputs": self.inputs,
            "n_range": list(self.n_range),
            "verdicts": {str(k): v for k, v in sorted(self.verdicts.items())},
            "relied_on": list(self.relied_on),
            "details": self.details,
            "passed": self.passed,
        }


def _verdict(holds):
    """pass if holds, fail if not, budget if holds is None: the evidence ran out."""
    return "budget" if holds is None else ("pass" if holds else "fail")


def _sweep(name, bound, holds):
    """The verdict of holds(n) for each n in sweep_range(name, bound)."""
    return {n: _verdict(holds(n)) for n in sweep_range(name, bound)}


def _text(value):
    """An Ideal as the text of its generators, polynomials as text."""
    if isinstance(value, Ideal):
        value = value.gens
    if isinstance(value, (list, tuple)):
        return [str(f) for f in value]
    return str(value) if isinstance(value, Polynomial) else value


def _report(name, claims, algebra, inputs, **fields):
    """The one constructor of CheckReport: each input shown by _text, and
    relied_on the claims followed by the words asserted of algebra."""
    inputs = {key: _text(value) for key, value in inputs.items()}
    relied_on = claims + tuple(sorted(algebra.asserted))
    return CheckReport(name, inputs, relied_on=relied_on, **fields)


def _require_fs(fs):
    # a check over no polynomials would pass vacuously
    if not fs:
        raise PreconditionError("fs must list at least one polynomial")


def graded_multiplicity_of_closure(R):
    """e(S) for S the projective closure of Spec R, read off the basis the
    closure ideal (the homogenized modulus, saturated) carries."""
    return graded_invariants(homogenize_ideal(Ideal(AffineAlgebra(R.ring), R.modulus)))[0]


def verify_exceptional_certificate(pres, primes, multiplicities):
    """Check candidate exceptional primes Q_i of a presentation, with
    multiplicities m_i: valid iff u lies in every Q_i and the intersection of
    the symbolic powers Q_i^(m_i) equals (u). Each power saturates by the
    proven automatic separator. Primality of the Q_i and normality of the
    presentation are assertions, not conclusions."""
    if not primes or len(primes) != len(multiplicities):
        raise PreconditionError(
            "a certificate needs one or more primes, each with a multiplicity: "
            f"got {len(primes)} primes, {len(multiplicities)} multiplicities"
        )
    if "normal" not in pres.base.asserted:
        raise PreconditionError("certificate check requires an asserted-normal base")
    alg = pres.algebra
    u = alg.ring.gen(pres.u_name)
    pieces = []
    for Q, m in zip(primes, multiplicities):
        if not Q.contains_poly(u):
            return False
        pieces.append(exact_power(Q, m))
    return reduce(Ideal.intersect, pieces).equals(Ideal(alg, (u,)))


def check_local_zariski_nagata(p, q, nmax):
    """p^(n) inside q^(n) for nonsingular-fixture primes p inside q."""
    sweep_range("nmax", nmax)  # an empty sweep is refused before any work
    if not q.contains_ideal(p):
        raise PreconditionError("p is not contained in q")

    def holds(n):
        pn = exact_power(p, n)
        return exact_power(q, n).contains_ideal(pn)

    return _report(
        "local-zariski-nagata", ("p prime", "q prime"), p.algebra, {"p": p, "q": q},
        n_range=(1, nmax), verdicts=_sweep("nmax", nmax, holds),
    )


def check_main_theorem_A(p, q, nmax):
    """p^(e(S)n+1) inside q^(n), and the chain p^(2e(S)n) inside p^(e(S)n+1),
    where S is the projective closure of p's ring and all powers are symbolic."""
    sweep_range("nmax", nmax)  # an empty sweep is refused before any work
    eS = graded_multiplicity_of_closure(p.algebra)

    def holds(n):
        big = exact_power(p, eS * n + 1)
        qn = exact_power(q, n)
        chain = exact_power(p, 2 * eS * n)
        return qn.contains_ideal(big) and big.contains_ideal(chain)

    return _report(
        "main-theorem-a", ("p prime", "q prime", "closure normal"), p.algebra,
        {"p": p, "q": q, "e(S)": eS}, n_range=(1, nmax),
        verdicts=_sweep("nmax", nmax, holds), details={"e(S)": eS},
    )


def check_uniform_izumi_multiplicity(q, fs):
    """e(R/fR at the origin) <= C * ord_q(f) for each listed f, R the ring
    of q, C = e(S) for S its projective closure, with ord_q swept up to
    symbolic.DEFAULT_NMAX."""
    _require_fs(fs)
    R = q.algebra
    C = graded_multiplicity_of_closure(R)
    verdicts, details = {}, {}
    for i, f in enumerate(fs):
        e_f = local_multiplicity_via_gr(R, f)
        order, confirmed = ord_at(q, f)
        if confirmed:
            details[str(f)] = {"e": e_f, "ord": order, "bound": C * order}
        verdicts[i] = _verdict(e_f <= C * order if confirmed else None)
    return _report(
        "uniform-izumi-multiplicity", ("q prime",), R, {"q": q, "C": C, "fs": fs},
        n_range=(0, len(fs) - 1), verdicts=verdicts, details=details,
    )


def valuation_data_from_presentation(pres, primes):
    """(nu, d) for a presentation with certified exceptional primes Q_i:
    nu(i, f) is the order of f's lift along Q_i, None where its sweep does
    not confirm it, and d[i] the graded multiplicity of the presentation
    modulo Q_i."""
    d = [graded_invariants(Q)[0] for Q in primes]

    def nu(i, f):
        order, confirmed = _order_along(primes[i], lift_to_rees(pres, f))
        return order if confirmed else None

    return nu, d


def check_order_ideal_theorem_presentation(I, f, pres, primes):
    """e(R/fR) = sum over exceptional primes of nu_i(f) * d_i, R the ring of
    I, with the left side computed by the length sampler on the I-adic
    filtration up to ORDER_IDEAL_N."""
    R = I.algebra
    nu, d = valuation_data_from_presentation(pres, primes)
    values = [nu(i, f) for i in range(len(primes))]
    rhs = None if None in values else sum(v * di for v, di in zip(values, d))
    table, _dim, e_lhs, stabilized = read_length_table(R, I, f=f, N=ORDER_IDEAL_N)
    ran_out = rhs is None or not stabilized
    return _report(
        "order-ideal-theorem", ("presentation normal", "Q_i prime"), R,
        {"f": f, "I": I}, n_range=(1, ORDER_IDEAL_N),
        verdicts={1: _verdict(None if ran_out else e_lhs == rhs)},
        details={"nu": values, "d": d, "e_sampler": e_lhs, "table": table, "sum": rhs},
    )


def check_order_ideal_theorem_graded(S, F):
    """Single-valuation graded form: e(S/FS) = e(S) * (degree order of F)."""
    eS, _dim = graded_invariants(S.zero_ideal)
    F = S.reduce(F)
    if F.is_zero():
        raise PreconditionError("F is zero in S")
    if not F.is_homogeneous():
        raise PreconditionError("F must be homogeneous")
    order = min(sum(e) for e, _ in F.terms)
    e_quot, _dim = graded_invariants(Ideal(S, (F,)))
    return _report(
        "order-ideal-theorem-graded", ("S normal domain",), S, {"F": F},
        n_range=(1, 1), verdicts={1: _verdict(e_quot == eS * order)},
        details={"e(S)": eS, "ord": order, "e(S/F)": e_quot},
    )


def check_izumi_valuation_bound(pres, primes, fs, E):
    """nu_i(f) <= E * nu_j(f) for all prime pairs and listed f."""
    _require_fs(fs)
    if len(primes) < 2:
        raise PreconditionError("need at least two exceptional primes")
    nu, _d = valuation_data_from_presentation(pres, primes)
    verdicts, details = {}, {}
    for k, f in enumerate(fs):
        values = [nu(i, f) for i in range(len(primes))]
        pairs = permutations(values, 2)
        holds = None if None in values else all(a <= E * b for a, b in pairs)
        verdicts[k] = _verdict(holds)
        details[str(f)] = values
    return _report(
        "izumi-valuation-bound", ("presentation normal", "Q_i prime"), pres.algebra,
        {"E": E, "fs": fs}, n_range=(0, len(fs) - 1),
        verdicts=verdicts, details=details,
    )


def check_fixed_power_lemma(p, m, E, e, tmax):
    """p^(E*t*e^2) inside m^t for t <= tmax (powers of m taken integrally
    closed by fixture assertion)."""

    def holds(t):
        lhs = exact_power(p, E * t * e * e)
        return m.power(t).contains_ideal(lhs)

    return _report(
        "fixed-power-lemma", ("p prime", "powers of m integrally closed"), p.algebra,
        {"E": E, "e": e, "p": p}, n_range=(1, tmax),
        verdicts=_sweep("tmax", tmax, holds),
    )


def check_improved_chevalley(p, q, nmax, *, A, B, C, E, e):
    """Find t = max t' with p inside q^(t'), sweep c = 1..CHEVALLEY_C_CAP for
    the least C_emp with p^(C_emp n) inside q^(t n), and assert the formula
    constant C*E*(A+1)^2*e^2*(B+1) dominates C_emp.

    A: Artin-Rees, B: Briancon-Skoda, C: multiplicity/order ratio,
    E: Izumi bound, e: max local multiplicity.
    """
    sweep = sweep_range("nmax", nmax)
    for t in reversed(sweep):
        if exact_power(q, t).contains_ideal(p):
            break
    else:
        raise PreconditionError("p is not contained in q")
    c_emp = None
    for c in range(1, CHEVALLEY_C_CAP + 1):
        if all(
            exact_power(q, t * n).contains_ideal(exact_power(p, c * n))
            for n in sweep
        ):
            c_emp = c
            break
    formula = C * E * (A + 1) ** 2 * e * e * (B + 1)
    return _report(
        "improved-chevalley", ("p prime", "q prime"), p.algebra,
        {"p": p, "q": q, "constants": {"A": A, "B": B, "C": C, "E": E, "e": e}},
        n_range=(1, nmax),
        verdicts={1: _verdict(None if c_emp is None else formula >= c_emp)},
        details={"t": t, "C_emp": c_emp, "formula_constant": formula},
    )


def compute_normalized_ord(I, q):
    """Largest t with I inside the closure of q^t: min over the Rees
    valuations of q of floor(nu(I) / nu(q))."""
    valuations = rees_valuations_monomial(q)
    if not valuations:
        raise PreconditionError("no valuations available for q")
    # a monomial valuation takes its least value over all of a polynomial's terms
    exps = [e for g in I.gens for e, _ in g.terms]
    if not exps:
        raise PreconditionError("I has no nonzero generator")
    return min(min(map(v.value, exps)) // v.value_on_ideal for v in valuations)
