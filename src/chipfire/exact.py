"""Exact integer linear algebra.

One fraction-free elimination serves everything here.  factor runs a Bareiss
pass (Bareiss, Math. Comp. 22, 1968) over the integer rows of A and keeps
its steps; its last pivot is det(A) up to sign.  substitute replays them on
B, as the pass over [A | B] would, and an integer back-substitution with
exact `//` division yields X = det(A) A^{-1} B, so a caller with several
right-hand sides for one A factors it once.  solve, factor then
substitute, returns the pair (det, X) as ints, so no Fraction is built and
results stay exact for entries of any size.  A caller divides once, where
its answer leaves the library (solve(A, I) is the adjugate pair).  Entries must be integers (Python or
numpy); a Fraction or a float raises TypeError, so a caller with rational
data scales it to integers first.
"""

from __future__ import annotations

from operator import index, mul

_SHAPE = "need an n x n matrix and n right-hand-side rows of one width, n = {}"


class Factor:
    """factor's Bareiss pass on A: det(A), each step's (swap row or None,
    pivot, previous pivot, column below the pivot) and the upper rows from
    the diagonal on; steps and upper are None when det(A) is 0."""

    __slots__ = ("n", "det", "steps", "upper", "__weakref__")

    def __init__(self, n, det, steps, upper):
        self.n = n
        self.det = det
        self.steps = steps
        self.upper = upper


def factor(matrix):
    """The Factor of a square integer matrix; ValueError if it is not square."""
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise ValueError(_SHAPE.format(n))
    # index() turns numpy integers into Python ints, which cannot overflow;
    # from step c on, a[i] holds row i from column c, so a[c] ends as U's row
    a = [[index(x) for x in r] for r in matrix]
    sign = 1
    prev = 1
    steps = []
    for c in range(n):
        swap = None
        if a[c][0] == 0:
            swap = next((i for i in range(c + 1, n) if a[i][0] != 0), None)
            if swap is None:
                return Factor(n, 0, None, None)
            a[c], a[swap] = a[swap], a[c]
            sign = -sign
        p, *top = a[c]
        below = []
        for i in range(c + 1, n):
            f, *row = a[i]
            below.append(f)
            a[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        steps.append((swap, p, prev, below))
        prev = p
    return Factor(n, sign * prev, steps, a)


def substitute(fac, rhs_columns):
    """(det(A), det(A) A^{-1} B) as ints for the Factor `fac` of A and the
    n x k `rhs_columns` B; ValueError if A is singular."""
    n = fac.n
    k = len(rhs_columns[0]) if len(rhs_columns) else 0
    if len(rhs_columns) != n or any(len(b) != k for b in rhs_columns):
        raise ValueError(_SHAPE.format(n))
    b = [[index(x) for x in r] for r in rhs_columns]
    if fac.steps is None:
        raise ValueError("singular matrix")
    # the row operations of the pass over [A | B], on B's rows alone
    for c, (swap, p, prev, below) in enumerate(fac.steps):
        if swap is not None:
            b[c], b[swap] = b[swap], b[c]
        top = b[c]
        for i, f in enumerate(below, c + 1):
            b[i] = [(p * x - f * y) // prev for x, y in zip(b[i], top)]
    # row i reads sum_t U[i][t] X[t] = d b[i][j], and X = d A^{-1} B is
    # integral (Cramer), so each division is exact
    d = fac.det
    cols = [[0] * n for _ in range(k)]
    for i in range(n - 1, -1, -1):
        u, *tail = fac.upper[i]
        for j, col in enumerate(cols):
            col[i] = (d * b[i][j] - sum(map(mul, tail, col[i + 1 :]))) // u
    return d, [list(r) for r in zip(*cols)] if k else [[] for _ in range(n)]


def det(matrix):
    """Exact determinant of a square integer matrix, as an int."""
    return factor(matrix).det


def solve(matrix, rhs_columns):
    """(det(A), det(A) A^{-1} B) as ints for an integer n x n `matrix` A and
    n x k `rhs_columns` B; ValueError if A is singular."""
    return substitute(factor(matrix), rhs_columns)
