"""The one simplex on hand tableaux, and the positive weights that grade a
set of polynomials, against sympy's LP.

`simplex(tableau, basis, stop)` is pinned pivot by pivot on tableaux small
enough to follow by hand. `positive_null_vector(rows, n)` returns an integer
w >= 1 with rows . w = 0 or None. For the exponent differences of each
polynomial's terms, w makes every polynomial w-homogeneous; sympy's `lpmin`
minimizes sum(w) over the same constraints, and raises InfeasibleLPError
exactly when no w exists.
"""

from itertools import product
from math import gcd
from operator import mul, sub

import pytest

from reesval import linalg
from reesval.linalg import positive_null_vector, simplex
from reesval.monomial import membership_oracle_caratheodory


def _recorded_pivots(monkeypatch):
    """The (row, column) of every pivot from here on."""
    seen, pivot = [], linalg.pivot

    def recorded(rows, r, col, d):
        seen.append((r, col))
        return pivot(rows, r, col, d)

    monkeypatch.setattr(linalg, "pivot", recorded)
    return seen


def _two_pivot_tableau():
    # max x + y with 2x <= 3, y <= 3 from the slack basis: x enters at row 0
    # over d = 2, for 3/2, then y at row 1, for 9/2
    return [[1, 0, 2, 0, 3], [0, 1, 0, 1, 3], [0, 0, -1, -1, 0]], [0, 1]


def test_simplex_stops_at_once_at_an_optimum(monkeypatch):
    seen = _recorded_pivots(monkeypatch)
    tableau = [[1, 0, 2, 3], [0, 1, 1, 4], [0, 0, 1, 0]]  # no negative reduced cost
    before, basis = [row[:] for row in tableau], [0, 1]

    def stop(v, d):
        raise AssertionError("stop is tested only after a pivot")

    assert simplex(tableau, basis, stop) is False
    assert (seen, tableau, basis) == ([], before, [0, 1])


def test_simplex_runs_to_the_optimum_while_stop_does_not_hold(monkeypatch):
    seen = _recorded_pivots(monkeypatch)
    tableau, basis = _two_pivot_tableau()
    calls = []
    assert simplex(tableau, basis, lambda v, d: calls.append((v, d)) or False) is False
    assert (seen, basis, calls) == ([(0, 2), (1, 3)], [2, 3], [(3, 2), (9, 2)])
    assert tableau == [[1, 0, 2, 0, 3], [0, 2, 0, 2, 6], [1, 2, 0, 0, 9]]


def test_simplex_stops_right_after_the_pivot_that_reaches_the_stop(monkeypatch):
    seen = _recorded_pivots(monkeypatch)
    tableau, basis = _two_pivot_tableau()
    calls = []
    assert simplex(tableau, basis, lambda v, d: calls.append((v, d)) or v >= d) is True
    assert (seen, basis, calls) == ([(0, 2)], [2, 1], [(3, 2)])
    assert tableau[-1] == [1, 0, 0, -2, 3]


def test_simplex_breaks_a_ratio_tie_to_the_least_basic_column(monkeypatch):
    # the oracle row "two rows tie": lam_(1,1) enters with ratio 1 in both
    # slack rows, and row 0, basic in slack column 0, leaves
    seen = _recorded_pivots(monkeypatch)
    assert not membership_oracle_caratheodory([(1, 1), (2, 0), (0, 2)], 2, (1, 1), 2)
    assert seen == [(0, 2), (1, 4)]


def _differences(polys):
    """The rows e - e' for the exponents e, e' of two terms of one polynomial."""
    return [tuple(map(sub, e, p[0])) for p in polys for e in p[1:]]


def _weights(polys, n):
    return positive_null_vector(_differences(polys), n)


def _homogeneous(w, polys):
    return all(len({sum(map(mul, w, e)) for e in p}) == 1 for p in polys)


@pytest.mark.parametrize(
    "polys, n, want",
    [
        ([], 3, [1, 1, 1]),  # nothing to grade
        ([[(1, 1, 0), (0, 0, 3)]], 3, [2, 1, 1]),  # xy + z^3, also graded by (1, 2, 1)
        ([[(0, 2, 0), (1, 0, 1)], [(2, 1, 0), (0, 0, 2)], [(3, 0, 0), (0, 1, 1)]], 3, [3, 4, 5]),
        ([[(2, 0), (1, 0)], [(1, 1)]], 2, None),  # x^2 - x: 2w = w has no w >= 1
        ([[(1, 0), (0, 0)]], 2, None),  # x - 1
        ([[(1, 1, 0, 0), (0, 0, 1, 1)]], 4, [1, 1, 1, 1]),  # the node xy - zw
    ],
)
def test_hand_rows(polys, n, want):
    w = _weights(polys, n)
    assert w == want
    if w is not None:
        assert _homogeneous(w, polys) and min(w) >= 1 and gcd(*w) == 1


def test_weights_agree_with_sympy_feasibility():
    # sympy 1.14's lpmin can leave its phase 1 on an oscillation and return a
    # point outside the constraints: for w0 = w1, w1 = 2 w0, w >= 1 it gives
    # (1, 2). So its InfeasibleLPError is believed, and so is a point that
    # meets every constraint; the verdict itself comes from max t over
    # D w = 0, w >= t, sum(w) <= 1, which starts feasible at 0 and needs no
    # phase 1: a grading exists iff that maximum is positive
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    from sympy.solvers.simplex import InfeasibleLPError, lpmax, lpmin

    st = hypothesis.strategies

    @st.composite
    def systems(draw):
        # polynomials homogeneous for a drawn w0, then each term possibly
        # moved, so that some systems have a grading and some have none
        n = draw(st.integers(1, 4))
        w0 = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        exps = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
        polys = []
        for _ in range(draw(st.integers(0, 4))):
            first = draw(exps)
            degree = sum(map(mul, w0, first))
            same = [e for e in product(range(7), repeat=n) if sum(map(mul, w0, e)) == degree]
            terms = [first] + draw(st.lists(st.sampled_from(same), max_size=3))
            if draw(st.integers(0, 3)) == 0:
                terms.append(draw(exps))
            polys.append(terms)
        return n, polys

    found = {True: 0, False: 0}

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @hypothesis.given(systems())
    def agrees(system):
        n, polys = system
        w = _weights(polys, n)
        ws, t = sympy.symbols(f"w0:{n}"), sympy.Symbol("t")
        eqs = [sympy.Eq(sum(d * v for d, v in zip(row, ws)), 0) for row in _differences(polys)]
        graded = lpmax(t, eqs + [t >= 0, sum(ws) <= 1] + [v >= t for v in ws])[0] > 0
        assert (w is not None) == graded, polys
        if w is not None:
            assert min(w) >= 1 and _homogeneous(w, polys), (polys, w)
        bounds = [v >= 1 for v in ws]
        try:
            _, point = lpmin(sum(ws), eqs + bounds)
        except InfeasibleLPError:
            assert w is None, polys
        else:
            if all(c.subs(point) for c in eqs + bounds):
                assert w is not None, polys
        found[graded] += 1

    agrees()
    assert min(found.values()) >= 10, found
