"""Exact integer linear algebra.

One fraction-free elimination serves every det and solve here.  factor
first runs a unit phase, for matrices with many +-1 entries such as a
reduced Laplacian: it eliminates +-1 pivots by row operations, each pivot
of least Markowitz cost (Markowitz, Management Sci. 3, 1957), so every
entry stays an integer, and leaves the Schur block of the rows and columns
that never held a pivot.  The row operations are unimodular, so det(A) is
the block's det times the pivots and the parities of the pivot order, and
the Smith form of A is I + the block's (Dumas, Saunders and Villard,
J. Symbolic Comput. 32, 2001).  A Bareiss pass (Bareiss, Math. Comp. 22,
1968) then runs over the integer rows of the block.  factor keeps the
steps of both phases; substitute replays them on a right-hand side B, as
the elimination over [A | B] would, and an integer back-substitution with
exact `//` division, through the block and then the pivot rows, yields
X = det(A) A^{-1} B, so a caller with several right-hand sides for one A
factors it once.  substitute runs the unit phase's row operations and both
back-substitutions on each column of B alone, in scalar integer steps that
skip a row operation whose pivot-row entry is 0 in that column, and the
Bareiss steps on the block rows across all of B's columns at once, so a
one-column solve costs scalar steps and a wide B pays only in the block.
solve, factor then substitute, returns the pair (det, X) as ints, so no
Fraction is built and results stay exact for entries of any size.  A caller
divides once, where its answer leaves the library (solve(A, I) is the
adjugate pair).  Entries must be integers (Python or
numpy); a Fraction or a float raises TypeError, so a caller with rational
data scales it to integers first.

factor turns its dense rows into {column: entry} dicts and hands them to
_factor_rows, the one entry to the unit phase and the Bareiss pass.  Every
caller in the library builds those rows itself and calls _factor_rows, so
none builds an n x n matrix: a graph's PotentialTable factors Q_(q) from
graph._reduced_rows once and keeps the Factor for the j-table, step 1's
exact fallback, the Jacobian, the sampler and the tree count, and a metric
model factors its grounded Laplacian's rows.  factor, det and solve take a
dense matrix for a caller that holds one.
"""

from __future__ import annotations

from operator import index, mul

_SHAPE = "need an n x n matrix and n right-hand-side rows of one width, n = {}"


class Factor:
    """factor's elimination of an n x n matrix A.

    det is det(A).  pivots holds the unit phase's steps in order, each as
    (row r, column c, pivot row as {column: entry}, and the (row i, multiple
    m) of each row operation row_i -= m row_r).  block is the Schur block
    they leave, on the rows `rows` and columns `cols` of A.  steps holds the
    Bareiss pass on the block, each step as (swap row or None, pivot,
    previous pivot, column below the pivot), and upper holds its upper rows
    from the diagonal on; steps and upper are None when det(A) is 0.
    """

    __slots__ = (
        "n", "det", "pivots", "rows", "cols", "block", "steps", "upper", "__weakref__",
    )

    def __init__(self, n, det, pivots, rows, cols, block, steps, upper):
        self.n = n
        self.det = det
        self.pivots = pivots
        self.rows = rows
        self.cols = cols
        self.block = block
        self.steps = steps
        self.upper = upper


def _parity(perm):
    """The sign, +1 or -1, of a permutation of range(len(perm))."""
    seen = [False] * len(perm)
    sign = 1
    for j in perm:
        # the walk from j marks one cycle; each of its steps but the last
        # is a transposition
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            if not seen[j]:
                sign = -sign
    return sign


def factor(matrix):
    """The Factor of a square integer matrix; ValueError if it is not square.

    The unit phase takes, at each step, the +-1 entry of least Markowitz
    cost (r - 1)(c - 1), where r and c count the nonzero entries of its row
    and column among those not yet eliminated, with ties to the lowest
    (row, column).  It subtracts multiples of the pivot row from every
    other row with an entry in the pivot column, then drops that row and
    column, and it ends when no +-1 entry is left.  The Bareiss pass then
    runs on the block.
    """
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise ValueError(_SHAPE.format(n))
    # index() turns numpy integers into Python ints, which cannot overflow
    return _factor_rows(n, [{j: x for j, x in enumerate(map(index, r)) if x} for r in matrix])


def _factor_rows(n, sparse):
    """factor of the n x n matrix whose row i is sparse[i], a {column:
    nonzero entry} dict of Python ints; the dicts are consumed.  A caller
    with sparse rows at hand, such as a reduced Laplacian built from its
    edges, comes here without a dense matrix."""
    rows = dict(enumerate(sparse))  # rows stay in ascending order
    cols = {j: set() for j in range(n)}  # column -> rows with an entry there
    for i, row in rows.items():
        for j in row:
            cols[j].add(i)
    pivots = []
    sign = 1
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
        ops = []
        for i in cols.pop(c):
            row = rows[i]
            k = row.pop(c) * p  # row_i -= k * row_r clears column c: p * p = 1
            ops.append((i, k))
            for j, x in rest:
                y = row.get(j, 0) - k * x
                if y:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = y
                else:
                    del row[j]
                    cols[j].discard(i)
        pivots.append((r, c, prow, ops))
        sign *= p
    keep_r = list(rows)
    keep_c = list(cols)
    block = [[row.get(j, 0) for j in keep_c] for row in rows.values()]
    # with rows r_1..r_k, R' and columns c_1..c_k, C' in that order the
    # eliminated matrix is block upper triangular: the pivots, then B
    sign *= _parity([r for r, *_ in pivots] + keep_r)
    sign *= _parity([c for _, c, *_ in pivots] + keep_c)
    # from step c on, a[i] holds B's row i from column c, so a[c] ends as
    # U's row
    a = list(block)
    m = len(a)
    prev = 1
    steps = []
    for c in range(m):
        swap = None
        if a[c][0] == 0:
            swap = next((i for i in range(c + 1, m) if a[i][0] != 0), None)
            if swap is None:
                return Factor(n, 0, pivots, keep_r, keep_c, block, None, None)
            a[c], a[swap] = a[swap], a[c]
            sign = -sign
        p, *top = a[c]
        below = []
        for i in range(c + 1, m):
            f, *row = a[i]
            below.append(f)
            a[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        steps.append((swap, p, prev, below))
        prev = p
    return Factor(n, sign * prev, pivots, keep_r, keep_c, block, steps, a)


def substitute(fac, rhs_columns):
    """(det(A), det(A) A^{-1} B) as ints for the Factor `fac` of A and the
    n x k `rhs_columns` B; ValueError if A is singular.

    The row operations of the elimination over [A | B] run on B alone: the
    unit phase's on one column at a time, in scalar steps, skipping the
    operations of a pivot whose row is 0 in that column, then the Bareiss
    pass's on the block rows, across all columns.  With d = det(A),
    X = d A^{-1} B is integral (Cramer), so the block's back-substitution
    divides exactly, and pivot row r with pivot p in column c reads
    p x_c + sum of prow[j] x_j over j != c = d b_r, whose x_j are known once
    the later pivots are substituted; both run one column at a time, in
    scalars, so x_c = p (d b_r - sum over j != c of prow[j] x_j).
    """
    n = fac.n
    k = len(rhs_columns[0]) if len(rhs_columns) else 0
    if len(rhs_columns) != n or any(len(b) != k for b in rhs_columns):
        raise ValueError(_SHAPE.format(n))
    bs = [list(map(index, col)) for col in zip(*rhs_columns)]  # B's columns
    if fac.steps is None:
        raise ValueError("singular matrix")
    pivots = fac.pivots
    for b in bs:
        for r, _c, _prow, ops in pivots:
            y = b[r]
            if y:  # row_i -= m row_r changes nothing in this column
                for i, m in ops:
                    b[i] -= m * y
    w = [[b[i] for b in bs] for i in fac.rows]
    for c, (swap, p, prev, below) in enumerate(fac.steps):
        if swap is not None:
            w[c], w[swap] = w[swap], w[c]
        top = w[c]
        for i, f in enumerate(below, c + 1):
            w[i] = [(p * x - f * y) // prev for x, y in zip(w[i], top)]
    d = fac.det
    m = len(w)
    upper = fac.upper
    xs = []
    for j, b in enumerate(bs):
        # row i of the block reads sum_t U[i][t] y[t] = d w[i][j], U[i] from
        # the diagonal on; y[i] is still 0 here, so the sum over all of U[i]
        # is the sum past the diagonal
        y = [0] * m
        for i in range(m - 1, -1, -1):
            u = upper[i]
            y[i] = (d * w[i][j] - sum(map(mul, u, y[i:]))) // u[0]
        x = [0] * n
        for i, c in enumerate(fac.cols):
            x[c] = y[i]
        # likewise x[c] is still 0 when pivot row r is read
        for r, c, prow, _ops in reversed(pivots):
            s = d * b[r]
            for t, a in prow.items():
                s -= a * x[t]
            x[c] = prow[c] * s
        xs.append(x)
    return d, [[x[i] for x in xs] for i in range(n)]


def det(matrix):
    """Exact determinant of a square integer matrix, as an int."""
    return factor(matrix).det


def solve(matrix, rhs_columns):
    """(det(A), det(A) A^{-1} B) as ints for an integer n x n `matrix` A and
    n x k `rhs_columns` B; ValueError if A is singular."""
    return substitute(factor(matrix), rhs_columns)
