"""Exact integer linear algebra.

One fraction-free elimination serves everything here.  A Bareiss pass
(Bareiss, Math. Comp. 22, 1968) over the integer rows of [A | B] leaves
det(A) as its last pivot (up to sign), and an integer back-substitution with
exact `//` division yields X = det(A) A^{-1} B.  solve returns the pair
(det, X) as ints and det its first item, so no Fraction is built and results
stay exact for entries of any size.  A caller divides once, where its answer
leaves the library (solve(A, I) is the adjugate pair).  Entries must be
integers (Python or numpy); a Fraction or a float raises TypeError, so a
caller with rational data scales it to integers first.
"""

from __future__ import annotations

from operator import index, mul


def _eliminate(matrix, rhs_columns):
    """(det(A), det(A) A^{-1} B) as ints; (0, None) when A is singular."""
    n = len(matrix)
    k = len(rhs_columns[0]) if len(rhs_columns) else 0
    if (
        len(rhs_columns) != n
        or any(len(r) != n for r in matrix)
        or any(len(b) != k for b in rhs_columns)
    ):
        raise ValueError(
            f"need an n x n matrix and n right-hand-side rows of one width, n = {n}"
        )
    # index() turns numpy integers into Python ints, which cannot overflow
    a = [[index(x) for x in (*r, *b)] for r, b in zip(matrix, rhs_columns)]
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
    # row i reads sum_t a[i][t] X[t] = d a[i][n + j], and X = d A^{-1} B is
    # integral (Cramer), so each division is exact
    d = sign * prev
    cols = [[0] * n for _ in range(k)]
    for i in range(n - 1, -1, -1):
        row = a[i]
        tail = row[i + 1 : n]
        for j, col in enumerate(cols):
            col[i] = (d * row[n + j] - sum(map(mul, tail, col[i + 1 :]))) // row[i]
    return d, [list(r) for r in zip(*cols)] if k else [[] for _ in range(n)]


def det(matrix):
    """Exact determinant of a square integer matrix, as an int."""
    return _eliminate(matrix, [[] for _ in matrix])[0]


def solve(matrix, rhs_columns):
    """(det(A), det(A) A^{-1} B) as ints for an integer n x n `matrix` A and
    n x k `rhs_columns` B; ValueError if A is singular."""
    d, x = _eliminate(matrix, rhs_columns)
    if x is None:
        raise ValueError("singular matrix")
    return d, x
