"""Exact integer and rational linear algebra.

One fraction-free elimination serves everything here.  A Bareiss pass
(Bareiss, Math. Comp. 22, 1968) over the integer-scaled rows of [A | B]
leaves the determinant d as its last pivot (up to sign and row scaling), and
an integer back-substitution with exact `//` division yields X = d A^{-1} B.
det, solve and adjugate all read their answer off that (det, X) pair, so no
Fraction arithmetic runs inside either loop and results stay exact for
arbitrarily large entries (cofactors of Laplacians grow fast even on small
graphs).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul


def _as_int_rows(matrix):
    """Copy a matrix into integer rows, clearing denominators row by row.

    Row scaling by a positive integer preserves determinant sign, singularity
    and solution sets of [A | B] systems; the returned scale is the product
    of the factors applied to the rows (needed to undo it in determinants).
    """
    rows = []
    scale = 1
    for row in matrix:
        mult = lcm(*(int(x.denominator) for x in row))
        # int() turns numpy integers into Python ints, which cannot overflow
        rows.append([int(x.numerator) * (mult // int(x.denominator)) for x in row])
        scale *= mult
    return rows, scale


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _eliminate(matrix, rhs_columns):
    """(det(A), det(A) A^{-1} B): ints when [A | B] is integral, Fractions
    otherwise; (0, None) when A is singular."""
    n = len(matrix)
    k = len(rhs_columns[0]) if n else 0
    a, scale = _as_int_rows([list(r) + list(b) for r, b in zip(matrix, rhs_columns)])
    sign = 1
    prev = 1
    for c in range(n):
        if a[c][c] == 0:
            pivot = next((i for i in range(c + 1, n) if a[i][c] != 0), None)
            if pivot is None:
                return 0, None
            a[c], a[pivot] = a[pivot], a[c]
            sign = -sign
        top = a[c]
        p = top[c]
        for i in range(c + 1, n):
            row = a[i]
            f = row[c]
            rest = zip(row[c + 1 :], top[c + 1 :])
            a[i] = row[:c] + [0] + [(p * x - f * y) // prev for x, y in rest]
        prev = p
    # d = scale det(A); row i reads sum_t a[i][t] X[t] = d a[i][n + j], and
    # X = d A^{-1} B is integral (Cramer), so each division is exact
    d = sign * prev
    cols = [[0] * n for _ in range(k)]
    for i in range(n - 1, -1, -1):
        row = a[i]
        tail = row[i + 1 : n]
        for j, col in enumerate(cols):
            col[i] = (d * row[n + j] - sum(map(mul, tail, col[i + 1 :]))) // row[i]
    x = [list(r) for r in zip(*cols)] if k else [[] for _ in range(n)]
    if scale == 1:
        return d, x
    return Fraction(d, scale), [[Fraction(v, scale) for v in row] for row in x]


def det(matrix):
    """Exact determinant of a square matrix with int or Fraction entries."""
    return Fraction(_eliminate(matrix, [[] for _ in matrix])[0])


def solve(matrix, rhs_columns):
    """Solve A X = B exactly; returns X as rows of Fractions.

    `matrix` is square n x n, `rhs_columns` is an n x k right-hand side.
    Raises ValueError on a singular matrix.
    """
    d, x = _eliminate(matrix, rhs_columns)
    if x is None:
        raise ValueError("singular matrix")
    return [[Fraction(v, d) for v in row] for row in x]


def adjugate(matrix):
    """(det(A), det(A) A^{-1}): ints for an integral A; ValueError if singular."""
    d, x = _eliminate(matrix, _identity(len(matrix)))
    if x is None:
        raise ValueError("singular matrix")
    return d, x


def mat_vec(matrix, vec):
    """Matrix-vector product over exact scalars."""
    return [sum(row[j] * vec[j] for j in range(len(vec))) for row in matrix]
