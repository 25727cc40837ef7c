"""Exact integer linear algebra: one fraction-free pivot (Bareiss).

Every routine here runs on `pivot`, so no `Fraction` or float arithmetic
runs in it: eliminations come out as integer rows over one denominator,
nullspace vectors as integer vectors, simplex tableaux as integers over
one denominator. `monomial` runs its packing LP on `simplex`, the one
Bland's-rule loop, and `ideals` the phase 1 that finds grading weights.
"""

from __future__ import annotations

from math import gcd


def pivot(rows, r, col, d):
    """Fraction-free pivot on p = rows[r][col] (Bareiss): each other row becomes
    (p * row - row[col] * rows[r]) / d, an exact division. Returns p, the next d."""
    prow = rows[r]
    p = prow[col]
    for i, row in enumerate(rows):
        if i != r:
            f = row[col]
            rows[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
    return p


def row_reduce(rows):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of an integer matrix.

    Returns (a, pivots, d): pivot row i of a holds d in column pivots[i]
    and 0 in every other pivot column, and the rows past the pivots are
    zero. Every entry is up to sign a minor of the input, so each division
    is exact, and at full rank a square input has determinant +-d. Rows
    are replaced, never mutated, so the input rows may be tuples.
    """
    a = list(rows)
    pivots = []
    d = 1
    for col in range(len(a[0]) if a else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        d = pivot(a, r, col, d)
        pivots.append(col)
    return a, pivots, d


def nullspace(rows, n):
    """Integer basis of the nullspace of the given rows, vectors of length n."""
    a, pivots, d = row_reduce(rows)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [0] * n
        v[fc] = d
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][fc]
        basis.append(v)
    return basis


def simplex(tableau, basis, stop=None):
    """Run Bland's rule on a bounded LP's integer tableau, in place.

    Rows end in their right sides, basis[r] is row r's basic column and the
    last row holds the reduced costs. The least column with a negative one
    enters, the least-ratio row (cross-multiplied, ties to the least
    basic[r]) leaves (Bland, Math. Oper. Res. 2, 1977). From d = 1, each
    basic column holds d in its row. stop(v, d), v the last right side, is
    tested after each pivot: True when it ends the run, False at optimum.
    """
    d = 1
    while True:
        col = next((c for c, x in enumerate(tableau[-1][:-1]) if x < 0), None)
        if col is None:
            return False
        r = None
        for i in sorted(range(len(basis)), key=basis.__getitem__):
            x = tableau[i][col]
            if x > 0 and (r is None or tableau[i][-1] * tableau[r][col] < tableau[r][-1] * x):
                r = i
        d = pivot(tableau, r, col, d)
        basis[r] = col
        if stop is not None and stop(tableau[-1][-1], d):
            return True


def positive_null_vector(rows, n):
    """The primitive integer w >= 1 with rows . w = 0 that an exact phase-1
    simplex finds, or None when there is none.

    With the rows reduced to independent ones A and w = 1 + v, it solves
    A v = -A . 1 (each row signed to a right side >= 0), v >= 0, from a
    basis of one artificial variable per row, and `simplex` drives their
    sum, bounded by 0, down: w exists iff the least sum is 0. Pivots are
    positive, so d * w is an integer vector >= d for the denominator d.
    """
    a, pivots, _ = row_reduce(rows)
    m = len(pivots)
    if not m:
        return [1] * n
    tableau = []
    for i, row in enumerate(a[:m]):
        s = -1 if sum(row) > 0 else 1
        tableau.append([s * x for x in row] + [int(k == i) for k in range(m)] + [-s * sum(row)])
    # d * (the reduced costs, minus the artificials' sum)
    costs = [-sum(col) for col in zip(*tableau)]
    tableau.append(costs[:n] + [0] * m + costs[-1:])
    basis = [n + i for i in range(m)]
    simplex(tableau, basis)
    if tableau[-1][-1]:
        return None
    w = [tableau[0][basis[0]]] * n  # d, held by a basic column
    for i, j in enumerate(basis):
        if j < n:
            w[j] += tableau[i][-1]
    g = gcd(*w)
    return [x // g for x in w]
