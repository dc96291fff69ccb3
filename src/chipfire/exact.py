"""Exact integer linear algebra.

One fraction-free elimination serves every det and solve here.  factor runs
a Bareiss pass (Bareiss, Math. Comp. 22, 1968) over the integer rows of A
and keeps its steps; its last pivot is det(A) up to sign.  substitute
replays them on B, as the pass over [A | B] would, and an integer
back-substitution with exact `//` division yields X = det(A) A^{-1} B, so a
caller with several right-hand sides for one A factors it once.  solve,
factor then substitute, returns the pair (det, X) as ints, so no Fraction
is built and results stay exact for entries of any size.  A caller divides
once, where its answer leaves the library (solve(A, I) is the adjugate
pair).  Entries must be integers (Python or numpy); a Fraction or a float
raises TypeError, so a caller with rational data scales it to integers
first.

A private unit phase runs ahead of the pass on matrices with many +-1
entries, such as a reduced Laplacian.  It eliminates +-1 pivots by row
operations, each pivot of least Markowitz cost (Markowitz, Management Sci.
3, 1957), so every entry stays an integer, and leaves the Schur block B of
the rows and columns that never held a pivot.  The row operations are
unimodular, so |det(A)| = |det(B)| and the Smith form of A is I + that of B
(Dumas, Saunders and Villard, J. Symbolic Comput. 32, 2001).  A solve
whose right-hand side is zero on the pivot rows substitutes into the
factor of B that its caller holds, then back through the pivot rows in
integers.
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


class _UnitPhase:
    """_unit_phase's result on an n x n matrix A: the Schur block B (a list
    of integer rows), its rows R' and columns C' in A, and the pivots as
    (column, pivot row as {column: entry}) in elimination order;
    |det(A)| = |det(B)|."""

    __slots__ = ("n", "block", "rows", "cols", "pivots")

    def __init__(self, n, block, rows, cols, pivots):
        self.n = n
        self.block = block
        self.rows = rows
        self.cols = cols
        self.pivots = pivots


def _unit_phase(matrix):
    """The _UnitPhase of a square integer matrix; ValueError if not square.

    Each step takes the +-1 entry of least Markowitz cost (r - 1)(c - 1),
    where r and c count the nonzero entries of its row and column among
    those not yet eliminated, with ties to the lowest (row, column).  It
    subtracts multiples of the pivot row from every other row with an entry
    in the pivot column, then drops that row and column.  The phase ends
    when no +-1 entry is left.
    """
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise ValueError(_SHAPE.format(n))
    rows = {}  # row -> {column: nonzero entry}; rows stay in ascending order
    cols = {j: set() for j in range(n)}  # column -> rows with an entry there
    for i, r in enumerate(matrix):
        row = {j: x for j, x in enumerate(map(index, r)) if x}
        for j in row:
            cols[j].add(i)
        rows[i] = row
    pivots = []
    while True:
        best = -1
        for i, row in rows.items():
            ri = len(row) - 1
            for j, x in row.items():
                if x == 1 or x == -1:
                    cost = ri * (len(cols[j]) - 1)
                    # a later row wins on cost alone
                    if best < 0 or cost < best or (cost == best and i == r and j < c):
                        best, r, c = cost, i, j
            if best == 0:
                break
        if best < 0:
            break
        prow = rows.pop(r)
        for j in prow:
            cols[j].discard(r)
        p = prow[c]
        rest = [(j, x) for j, x in prow.items() if j != c]
        for i in cols.pop(c):
            row = rows[i]
            k = row.pop(c) * p  # row_i -= k * row_r clears column c: p * p = 1
            for j, x in rest:
                y = row.get(j, 0) - k * x
                if y:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = y
                else:
                    del row[j]
                    cols[j].discard(i)
        pivots.append((c, prow))
    keep_c = list(cols)
    block = [[row.get(j, 0) for j in keep_c] for row in rows.values()]
    return _UnitPhase(n, block, list(rows), keep_c, pivots)


def _unit_solve(units, rhs_columns, fac):
    """(|det(A)|, |det(A)| A^{-1} B) as ints for the _UnitPhase `units` of A,
    the Factor `fac` of its block and an n x k B that is zero on every pivot
    row; ValueError if A is singular or B is not.

    The row operations leave such a B as it is, so its rows R' are a solve
    with the block, and pivot row r with pivot p in column c reads
    p x_c + sum of row_r[j] x_j over j != c = 0, whose x_j are known once
    the later pivots are substituted.
    """
    n = units.n
    k = len(rhs_columns[0]) if len(rhs_columns) else 0
    if len(rhs_columns) != n or any(len(b) != k for b in rhs_columns):
        raise ValueError(_SHAPE.format(n))
    kept = set(units.rows)
    if any(any(b) for i, b in enumerate(rhs_columns) if i not in kept):
        raise ValueError("right-hand side is not zero on the pivot rows")
    d, X = substitute(fac, [rhs_columns[i] for i in units.rows])
    if d < 0:
        d = -d
        X = [[-x for x in r] for r in X]
    x = [None] * n
    for c, r in zip(units.cols, X):
        x[c] = r
    for c, prow in reversed(units.pivots):
        acc = [0] * k
        for j, a in prow.items():
            if j != c:
                acc = [s + a * y for s, y in zip(acc, x[j])]
        p = prow[c]
        x[c] = [-p * s for s in acc]
    return d, x


def det(matrix):
    """Exact determinant of a square integer matrix, as an int."""
    return factor(matrix).det


def solve(matrix, rhs_columns):
    """(det(A), det(A) A^{-1} B) as ints for an integer n x n `matrix` A and
    n x k `rhs_columns` B; ValueError if A is singular."""
    return substitute(factor(matrix), rhs_columns)
