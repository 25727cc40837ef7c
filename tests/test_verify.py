import pytest

from reesval import (
    AffineAlgebra,
    GrevLex,
    PolyRing,
    QQ,
    check_fixed_power_lemma,
    check_improved_chevalley,
    check_izumi_valuation_bound,
    check_local_zariski_nagata,
    check_main_theorem_A,
    check_order_ideal_theorem_graded,
    check_order_ideal_theorem_presentation,
    check_uniform_izumi_multiplicity,
    compute_normalized_ord,
    extended_rees_presentation,
    groebner,
)
from reesval.errors import PreconditionError
from reesval.ideals import Ideal, kernel_of_map
from reesval.rings import homogenize_ideal
from reesval import verify
from reesval.verify import graded_multiplicity_of_closure


@pytest.fixture
def paper_setup(paper_ring, paper_m):
    pres = extended_rees_presentation(paper_ring, paper_m)
    alg = pres.algebra
    u, y1, y2 = alg.ring.gen("u"), alg.ring.gen("y1"), alg.ring.gen("y2")
    Q1 = Ideal(alg, (u, y1))
    Q2 = Ideal(alg, (u, y2))
    x1, x3 = paper_ring.ring.gen("x1"), paper_ring.ring.gen("x3")
    p = Ideal(paper_ring, (x1, x3))
    return pres, (Q1, Q2), p


def test_closure_multiplicity(paper_ring):
    assert graded_multiplicity_of_closure(paper_ring) == 3
    closure = homogenize_ideal(Ideal(AffineAlgebra(paper_ring.ring), paper_ring.modulus))
    assert all(g.is_homogeneous() for g in closure.gens)


def test_zariski_nagata_variable_primes(poly_xyz):
    x, y, z = poly_xyz.ring.gens()
    p = Ideal(poly_xyz, (x, y))
    q = Ideal(poly_xyz, (x, y, z))
    report = check_local_zariski_nagata(p, q, 4)
    assert report.passed
    assert report.verdicts == {n: "pass" for n in range(1, 5)}


def test_zariski_nagata_curve_prime():
    tring = PolyRing(("t",), QQ, GrevLex())
    t = tring.gen("t")
    P = kernel_of_map(("x", "y", "z"), AffineAlgebra(tring), [t**3, t**4, t**5])
    alg = P.algebra
    x, y, z = alg.ring.gens()
    M = Ideal(alg, (x, y, z))
    report = check_local_zariski_nagata(P, M, 3)
    assert report.passed


def test_zariski_nagata_precondition(poly_xyz):
    x, y, z = poly_xyz.ring.gens()
    p = Ideal(poly_xyz, (x, y))
    q = Ideal(poly_xyz, (x, z))
    with pytest.raises(PreconditionError):
        check_local_zariski_nagata(p, q, 2)


@pytest.mark.parametrize("bound", [0, -1])
def test_empty_sweeps_are_refused(poly_xyz, bound):
    x, y, z = poly_xyz.ring.gens()
    p = Ideal(poly_xyz, (x, y))
    m = Ideal(poly_xyz, (x, y, z))
    # each is refused before any Groebner work
    with groebner.budget(0) as work:
        with pytest.raises(PreconditionError, match="nmax must be at least 1"):
            check_local_zariski_nagata(p, m, bound)
        with pytest.raises(PreconditionError, match="nmax must be at least 1"):
            check_main_theorem_A(p, m, bound)
        with pytest.raises(PreconditionError, match="nmax must be at least 1"):
            check_improved_chevalley(p, m, bound, A=0, B=0, C=1, E=1, e=1)
        with pytest.raises(PreconditionError, match="tmax must be at least 1"):
            check_fixed_power_lemma(p, m, E=1, e=1, tmax=bound)
    assert work.divisions == 0


def test_main_theorem_a_sweep(paper_ring, paper_m, paper_setup):
    _, _, p = paper_setup
    report = check_main_theorem_A(p, paper_m, 3)
    assert report.passed
    assert report.details["e(S)"] == 3
    # monotone by construction: passing at nmax means every smaller n passed
    assert set(report.verdicts) == {1, 2, 3}
    # p = q degenerate case
    same = check_main_theorem_A(paper_m, paper_m, 1)
    assert same.passed


def test_main_theorem_a_measures_no_saturation_depth(paper_m, paper_setup, monkeypatch):
    # tripwire: the sweep reads p^(4)..p^(18) through exact_power, which
    # leaves each saturation depth unmeasured, so it builds no basis of an
    # ordinary power p^n for one. Past p^(4), each p^(n) saturates a cached
    # lower product, whose ordinary cofactors reach p^5 at most (p^(12) is
    # p^(7) * p^5 saturated), so no layer of p past p^5 is built
    _, _, p = paper_setup
    depths = []
    real = Ideal.saturation_depth
    monkeypatch.setattr(
        Ideal, "saturation_depth", lambda *args: depths.append(args) or real(*args)
    )
    with groebner.budget(groebner.DEFAULT_BUDGET) as work:
        assert check_main_theorem_A(p, paper_m, 3).passed
    assert not depths
    assert work.calls == 13
    assert len(p._powers) == 6  # layers p^0..p^5


def test_izumi_multiplicity_bound(paper_ring, paper_m):
    ring = paper_ring.ring
    x1, x2, x3 = ring.gens()
    fs = [x1, x2, x3, x3**2, x1 + x3, x1 * x2]
    report = check_uniform_izumi_multiplicity(paper_m, fs)
    assert report.passed
    assert report.details["x1"] == {"e": 3, "ord": 1, "bound": 3}  # tight
    assert report.details["x1*x2"] == {"e": 6, "ord": 3, "bound": 9}


def test_empty_fs_is_refused(paper_m, paper_setup):
    # a check over no polynomials would pass vacuously; both refuse before
    # any Groebner work
    pres, primes, _ = paper_setup
    with groebner.budget(0) as work:
        with pytest.raises(PreconditionError, match="fs must list"):
            check_uniform_izumi_multiplicity(paper_m, [])
        with pytest.raises(PreconditionError, match="fs must list"):
            check_izumi_valuation_bound(pres, list(primes), [], E=2)
    assert work.divisions == 0


def test_order_ideal_theorem_presentation_route(paper_ring, paper_m, paper_setup):
    pres, primes, _ = paper_setup
    x1 = paper_ring.ring.gen("x1")
    report = check_order_ideal_theorem_presentation(paper_m, x1, pres, list(primes))
    assert report.passed
    assert report.details["nu"] == [2, 1]
    assert report.details["d"] == [1, 1]
    assert report.details["e_sampler"] == 3


def test_order_ideal_theorem_presentation_work_count(
    paper_ring, paper_m, paper_setup, monkeypatch
):
    # tripwire: each prime's basis gives both its d_i and its orders, so no
    # Groebner input repeats
    pres, primes, _ = paper_setup
    calls = []
    real = groebner.buchberger
    monkeypatch.setattr(
        groebner, "buchberger", lambda gens: calls.append(frozenset(gens)) or real(gens)
    )
    x1 = paper_ring.ring.gen("x1")
    with groebner.budget(groebner.DEFAULT_BUDGET) as work:
        assert check_order_ideal_theorem_presentation(paper_m, x1, pres, list(primes)).passed
    assert len(calls) == len(set(calls)) == work.calls == 17


def test_order_ideal_theorem_graded_route():
    hring = PolyRing(("X0", "X1", "X2", "X3"), QQ, GrevLex())
    X0, X1, X2, X3 = hring.gens()
    S = AffineAlgebra(
        hring,
        (X0 * X1 * X2 + X3**3,),
        asserted=("standard_graded", "normal", "domain"),
    )
    r1 = check_order_ideal_theorem_graded(S, X3)
    assert r1.passed and r1.details == {"e(S)": 3, "ord": 1, "e(S/F)": 3}
    r2 = check_order_ideal_theorem_graded(S, X0 * X1 * X2)
    assert r2.passed and r2.details == {"e(S)": 3, "ord": 3, "e(S/F)": 9}


def test_izumi_valuation_bound_tight(paper_ring, paper_setup):
    pres, primes, _ = paper_setup
    ring = paper_ring.ring
    x1, x3 = ring.gen("x1"), ring.gen("x3")
    report = check_izumi_valuation_bound(pres, list(primes), [x1, x3, x1**2], E=2)
    assert report.passed
    assert report.details["x1"] == [2, 1]  # achieves nu1 = (e(S)-1) * nu2
    assert report.details["x3"] == [1, 1]
    assert report.details["x1^2"] == [4, 2]
    # E = 1 is too small: the bound must fail on x1
    tight = check_izumi_valuation_bound(pres, list(primes), [x1], E=1)
    assert not tight.passed


def test_multiplicity_bound_implies_valuation_bound(paper_ring, paper_m, paper_setup):
    # C = 3 passes as a multiplicity bound and E = C - 1 = 2 passes as a
    # valuation bound, both tight on f = x1
    pres, primes, _ = paper_setup
    x1 = paper_ring.ring.gen("x1")
    mult = check_uniform_izumi_multiplicity(paper_m, [x1])
    val = check_izumi_valuation_bound(pres, list(primes), [x1], E=2)
    assert mult.passed and val.passed
    assert mult.details["x1"]["e"] == mult.details["x1"]["bound"]
    nu = val.details["x1"]
    assert nu[0] == 2 * nu[1]


def test_fixed_power_lemma(poly_xyz, paper_ring, paper_m, paper_setup):
    x, y, z = poly_xyz.ring.gens()
    p = Ideal(poly_xyz, (x, y))
    m = Ideal(poly_xyz, (x, y, z))
    trivial = check_fixed_power_lemma(p, m, E=1, e=1, tmax=3)
    assert trivial.passed
    _, _, pp = paper_setup
    singular = check_fixed_power_lemma(pp, paper_m, E=2, e=2, tmax=1)
    assert singular.passed
    # negative control: E = e = 1 (exponent t instead of E*t*e^2) fails on
    # the singular fixture (x1 lies in p^(2) but not in m^2)
    control = check_fixed_power_lemma(pp, paper_m, E=1, e=1, tmax=2)
    assert control.verdicts[2] == "fail"


def test_improved_chevalley(paper_ring, paper_m, paper_setup):
    _, _, p = paper_setup
    constants = dict(A=1, B=1, C=3, E=2, e=2)
    report = check_improved_chevalley(p, paper_m, 3, **constants)
    assert report.passed
    assert report.details["t"] == 1
    assert report.details["C_emp"] is not None
    assert report.details["formula_constant"] >= report.details["C_emp"]
    # p = q degenerate case: t = 1 and C_emp = 1
    same = check_improved_chevalley(paper_m, paper_m, 2, **constants)
    assert same.passed and same.details["C_emp"] == 1
    # regular fixture: C_emp bounded by the dimension
    plane_ring = PolyRing(("x", "y", "z"), QQ, GrevLex())
    plane = AffineAlgebra(plane_ring)
    xx, yy, zz = plane_ring.gens()
    reg = check_improved_chevalley(
        Ideal(plane, (xx, yy)),
        Ideal(plane, (xx, yy, zz)),
        3,
        **constants,
    )
    assert reg.passed and reg.details["C_emp"] <= 3


def test_compute_normalized_ord(poly_xy):
    x, y = poly_xy.ring.gens()
    q = Ideal(poly_xy, (x, y))
    assert compute_normalized_ord(Ideal(poly_xy, (x**3, y**3)), q) == 3
    assert compute_normalized_ord(Ideal(poly_xy, (x**2, y**3)), q) == 2
    assert compute_normalized_ord(q, q) == 1
    # x + y^2 is not in (x, y)^2: every term counts, not the lead term alone
    assert compute_normalized_ord(Ideal(poly_xy, (x + y**2,)), q) == 1
    assert compute_normalized_ord(Ideal(poly_xy, (poly_xy.ring.zero, x**2)), q) == 2
    with pytest.raises(PreconditionError):
        compute_normalized_ord(Ideal(poly_xy, (poly_xy.ring.zero,)), q)


def test_report_serialization(poly_xyz):
    x, y, z = poly_xyz.ring.gens()
    p, q = Ideal(poly_xyz, (x,)), Ideal(poly_xyz, (x, y))
    report = check_local_zariski_nagata(p, q, 2)
    blob = report.to_dict()
    assert blob["check"] == "local-zariski-nagata"
    assert blob["passed"] == report.passed
    assert set(blob["verdicts"]) == {"1", "2"}


def _fixture_reports(poly_xyz, paper_ring, paper_m, paper_setup):
    """Each check on the fixture its tests above use, keyed by report name."""
    x, y, z = poly_xyz.ring.gens()
    plane_p, plane_m = Ideal(poly_xyz, (x, y)), Ideal(poly_xyz, (x, y, z))
    x1, x2, x3 = paper_ring.ring.gens()
    pres, primes, p = paper_setup
    hring = PolyRing(("X0", "X1", "X2", "X3"), QQ, GrevLex())
    X0, X1, X2, X3 = hring.gens()
    S = AffineAlgebra(
        hring, (X0 * X1 * X2 + X3**3,), asserted=("standard_graded", "normal", "domain")
    )
    fs = [x1, x2, x3, x3**2, x1 + x3, x1 * x2]
    return {
        "local-zariski-nagata": lambda: check_local_zariski_nagata(plane_p, plane_m, 4),
        "main-theorem-a": lambda: check_main_theorem_A(p, paper_m, 3),
        "uniform-izumi-multiplicity": lambda: check_uniform_izumi_multiplicity(
            paper_m, fs
        ),
        "order-ideal-theorem": lambda: check_order_ideal_theorem_presentation(
            paper_m, x1, pres, list(primes)
        ),
        "order-ideal-theorem-graded": lambda: check_order_ideal_theorem_graded(S, X3),
        "izumi-valuation-bound": lambda: check_izumi_valuation_bound(
            pres, list(primes), [x1, x3, x1**2], E=2
        ),
        "fixed-power-lemma": lambda: check_fixed_power_lemma(
            plane_p, plane_m, E=1, e=1, tmax=3
        ),
        "improved-chevalley": lambda: check_improved_chevalley(
            p, paper_m, 3, A=1, B=1, C=3, E=2, e=2
        ),
    }


PAPER_ASSERTED = ["domain", "normal"]
PINNED_REPORTS = {
    "local-zariski-nagata": {
        "inputs": {"p": ["x", "y"], "q": ["x", "y", "z"]},
        "n_range": [1, 4],
        "verdicts": {"1": "pass", "2": "pass", "3": "pass", "4": "pass"},
        "relied_on": ["p prime", "q prime"],
        "details": {},
    },
    "main-theorem-a": {
        "inputs": {"p": ["x1", "x3"], "q": ["x1", "x2", "x3"], "e(S)": 3},
        "n_range": [1, 3],
        "verdicts": {"1": "pass", "2": "pass", "3": "pass"},
        "relied_on": ["p prime", "q prime", "closure normal"] + PAPER_ASSERTED,
        "details": {"e(S)": 3},
    },
    "uniform-izumi-multiplicity": {
        "inputs": {
            "q": ["x1", "x2", "x3"],
            "C": 3,
            "fs": ["x1", "x2", "x3", "x3^2", "x1 + x3", "x1*x2"],
        },
        "n_range": [0, 5],
        "verdicts": {str(i): "pass" for i in range(6)},
        "relied_on": ["q prime"] + PAPER_ASSERTED,
        "details": {
            "x1": {"e": 3, "ord": 1, "bound": 3},
            "x2": {"e": 3, "ord": 1, "bound": 3},
            "x3": {"e": 2, "ord": 1, "bound": 3},
            "x3^2": {"e": 4, "ord": 2, "bound": 6},
            "x1 + x3": {"e": 2, "ord": 1, "bound": 3},
            "x1*x2": {"e": 6, "ord": 3, "bound": 9},
        },
    },
    "order-ideal-theorem": {
        "inputs": {"f": "x1", "I": ["x1", "x2", "x3"]},
        "n_range": [1, 7],
        "verdicts": {"1": "pass"},
        "relied_on": ["presentation normal", "Q_i prime"] + PAPER_ASSERTED,
        "details": {
            "nu": [2, 1],
            "d": [1, 1],
            "e_sampler": 3,
            "table": [(1, 1), (2, 3), (3, 6), (4, 9), (5, 12), (6, 15), (7, 18)],
            "sum": 3,
        },
    },
    "order-ideal-theorem-graded": {
        "inputs": {"F": "X3"},
        "n_range": [1, 1],
        "verdicts": {"1": "pass"},
        "relied_on": ["S normal domain"] + PAPER_ASSERTED + ["standard_graded"],
        "details": {"e(S)": 3, "ord": 1, "e(S/F)": 3},
    },
    "izumi-valuation-bound": {
        "inputs": {"E": 2, "fs": ["x1", "x3", "x1^2"]},
        "n_range": [0, 2],
        "verdicts": {"0": "pass", "1": "pass", "2": "pass"},
        # the words asserted of the presentation, as every other check echoes
        "relied_on": ["presentation normal", "Q_i prime"] + PAPER_ASSERTED,
        "details": {"x1": [2, 1], "x3": [1, 1], "x1^2": [4, 2]},
    },
    "fixed-power-lemma": {
        "inputs": {"E": 1, "e": 1, "p": ["x", "y"]},
        "n_range": [1, 3],
        "verdicts": {"1": "pass", "2": "pass", "3": "pass"},
        "relied_on": ["p prime", "powers of m integrally closed"],
        "details": {},
    },
    "improved-chevalley": {
        "inputs": {
            "p": ["x1", "x3"],
            "q": ["x1", "x2", "x3"],
            "constants": {"A": 1, "B": 1, "C": 3, "E": 2, "e": 2},
        },
        "n_range": [1, 3],
        "verdicts": {"1": "pass"},
        "relied_on": ["p prime", "q prime"] + PAPER_ASSERTED,
        "details": {"t": 1, "C_emp": 3, "formula_constant": 192},
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_report_on_its_fixture_is_pinned(
    name, poly_xyz, paper_ring, paper_m, paper_setup
):
    report = _fixture_reports(poly_xyz, paper_ring, paper_m, paper_setup)[name]()
    expected = {"check": name, **PINNED_REPORTS[name], "passed": True}
    assert report.to_dict() == expected


def test_pins_cover_every_check():
    assert len(PINNED_REPORTS) == len(
        [name for name in dir(verify) if name.startswith("check_")]
    )


def test_izumi_multiplicity_reports_budget_for_an_unconfirmed_order(
    paper_ring, paper_m
):
    # x1^13 is still in the 12th symbolic power of m, where the ord sweep stops
    x1 = paper_ring.ring.gen("x1")
    report = check_uniform_izumi_multiplicity(paper_m, [x1**13, x1])
    assert report.to_dict() == {
        "check": "uniform-izumi-multiplicity",
        "inputs": {"q": ["x1", "x2", "x3"], "C": 3, "fs": ["x1^13", "x1"]},
        "n_range": [0, 1],
        "verdicts": {"0": "budget", "1": "pass"},
        "relied_on": ["q prime"] + PAPER_ASSERTED,
        "details": {"x1": {"e": 3, "ord": 1, "bound": 3}},
        "passed": False,
    }


def test_unconfirmed_valuations_give_budget(paper_ring, paper_setup):
    # nu(x1^k) = (2k, k) and each order sweep stops at DEFAULT_NMAX = 12, so
    # neither value of x1^13 confirms (the true 26, 13 would fail E = 1) and
    # only the second of x1^7 does
    pres, primes, _ = paper_setup
    x1 = paper_ring.ring.gen("x1")
    high = check_izumi_valuation_bound(pres, list(primes), [x1**13], E=1)
    assert high.verdicts == {0: "budget"}
    assert high.details == {"x1^13": [None, None]}
    mixed = check_izumi_valuation_bound(pres, list(primes), [x1**7], E=1)
    assert mixed.verdicts == {0: "budget"}
    assert mixed.details == {"x1^7": [None, 7]}


def test_order_ideal_check_sums_no_unconfirmed_valuation(
    paper_ring, paper_m, paper_setup
):
    pres, primes, _ = paper_setup
    x1 = paper_ring.ring.gen("x1")
    report = check_order_ideal_theorem_presentation(paper_m, x1**7, pres, list(primes))
    assert report.verdicts == {1: "budget"}
    assert report.details["nu"] == [None, 7]
    assert report.details["sum"] is None


@pytest.mark.parametrize(
    "verdicts, whole",
    [
        ((), "pass"),
        (("pass", "pass"), "pass"),
        (("pass", "budget"), "budget"),
        (("budget", "fail", "pass"), "fail"),
        (("fail", "budget"), "fail"),
    ],
)
def test_one_rule_gives_the_check_verdict_and_passed(verdicts, whole):
    report = verify.CheckReport("c", {}, (0, 0), dict(enumerate(verdicts)), ())
    assert report.verdict == whole
    assert report.passed == (whole == "pass")
