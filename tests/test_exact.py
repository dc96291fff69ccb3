"""Fraction-free exact linear algebra.

Core claims:
    - det agrees with known values and with numpy (rounded) on random
      integer matrices, and handles numpy int64 entries exactly, without
      int64 overflow; Fraction and float entries raise TypeError.
    - solve returns the pair (det A, det A * A^{-1} B) of ints, whose
      quotient is the exact rational solution of an integer system, and
      raises on singular systems.
    - Property (hypothesis, sympy as the oracle): on integer matrices, with
      zero leading pivots, negative determinants, singular, 0 x 0 and 1 x 1
      input, det equals sympy's det as an int; a nonsingular A gives
      solve(A, I) = (det A, sympy's adjugate) and X = det(A) A^{-1} B with
      A X = d B; a singular A makes solve raise ValueError.
    - A wide, tall or ragged matrix, or a right-hand side whose height is
      not n or whose rows differ in width, raises ValueError in det, solve
      and the Smith form, also when the Smith form is given d.
    - factor's unit phase, on the same systems: its block's rows and
      columns and the pivots' partition A's, each pivot is +-1, the block
      holds no +-1 entry, |det(A)| = |det(block)|, the invariant factors of
      A are those of the block after one 1 per pivot, and substitute gives
      (det A, X) with A X = det(A) B, for B and for B made zero on the
      pivot rows.  On K3's reduced Laplacian the tie-break
      takes the pivot at (0, 1), and a right-hand side that is nonzero on
      that pivot row is solved.  det's sign is pinned on matrices that are
      all pivots, that need a row swap in the block after a unit pivot, and
      that are a signed permutation.  factor refuses what det refuses.
    - factor then substitute gives solve's pair, sympy's det and adjugate
      times B, on the same systems and on row-swap matrices, for 0, 1 and 3
      right-hand-side columns and with one factor reused on several
      right-hand sides; det is the factor's det; substitute refuses a
      singular factor, a right-hand side of the wrong height and a Fraction
      entry, and factor a non-square matrix.
    - substitute works column by column: on the same systems, with 0-4
      right-hand-side columns among which some are zero or zero on every
      pivot row (so the unit phase skips their row operations), its X is
      the one-column solves of B's columns side by side, and A X = d B.
"""

from fractions import Fraction
from math import lcm

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from chipfire.exact import det, factor, solve, substitute
from chipfire.jacobian import smith_normal_form


def test_det_known_values():
    assert det([[2, -1], [-1, 2]]) == 3
    assert det([[1, 0], [0, 1]]) == 1
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[5]]) == 5


def test_det_needs_row_swap():
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1


@pytest.mark.parametrize(
    "entry",
    [Fraction(1, 2), Fraction(4, 2), 0.5, 2.0],
    ids=["fraction", "integral_fraction", "float", "integral_float"],
)
def test_non_integer_entries_are_refused(entry):
    # the elimination takes integer rows only: a caller with rational data
    # scales it to integers first, so a Fraction or float is a caller's bug
    with pytest.raises(TypeError):
        det([[entry, 1], [1, 3]])
    with pytest.raises(TypeError):
        solve([[2, 1], [1, 3]], [[entry], [1]])
    with pytest.raises(TypeError):
        solve([[1, 0], [0, entry]], _identity(2))
    with pytest.raises(TypeError):
        factor([[1, entry], [1, 3]])


@pytest.mark.parametrize(
    "call",
    [
        lambda: det([[1, 2, 3], [4, 5, 6]]),
        lambda: solve([[1, 2, 3], [4, 5, 6]], _identity(2)),
        lambda: smith_normal_form([[1, 2, 3], [4, 5, 6]], 0),
        lambda: smith_normal_form([[1, 2, 3], [4, 5, 6]], 3),
        lambda: smith_normal_form([[2, 0]], 2),
        lambda: solve([[2, 0], [0, 3]], [[1], [1], [1]]),
        lambda: det([[1, 2], [3, 4], [5, 6]]),
        lambda: det([[1, 2], [3]]),
        lambda: solve([[2, 0], [0, 3]], [[2], [3, 9]]),
        lambda: factor([[1, 2, 3], [4, 5, 6]]),
        lambda: factor([[1, 2], [3]]),
    ],
    ids=[
        "det_wide", "adjugate_wide", "smith_wide", "smith_wide_given_d",
        "smith_one_row_given_d", "solve_extra_rhs_row",
        "det_tall", "det_ragged", "solve_ragged_rhs", "unit_phase_wide",
        "unit_phase_ragged",
    ],
)
def test_non_square_input_is_refused(call):
    # neither an answer for the leading square block nor an IndexError
    with pytest.raises(ValueError, match="n x n matrix"):
        call()


def test_numpy_int64_entries_are_accepted():
    M = np.array([[2, -1], [-1, 2]], dtype=np.int64)
    d = det(M)
    assert d == 3 and type(d) is int
    assert solve(M, np.array([[1], [1]], dtype=np.int64)) == (3, [[3], [3]])
    assert solve(M, np.eye(2, dtype=np.int64)) == (3, [[2, 1], [1, 2]])


def test_det_numpy_int64_entries_do_not_overflow():
    # the Bareiss products of 2**40 entries pass 2**63: they must run on
    # Python ints, not on the numpy scalars they came in as
    M = np.array([[2**40, 0], [0, 2**40]], dtype=np.int64)
    assert det(M) == 2**80
    assert det(list(M)) == 2**80


def test_det_hilbert_matrix():
    # Hilbert matrices are the classic ill-conditioned case; exact arithmetic
    # must get the tiny determinant right where floats cannot.  Scaling H by
    # L = lcm(1, ..., 2n - 1) makes it integral and multiplies det by L^n.
    n = 6
    L = lcm(*range(1, 2 * n))
    H = [[L // (i + j + 1) for j in range(n)] for i in range(n)]
    d = det(H)
    assert type(d) is int
    assert Fraction(d, L**n) == Fraction(1, 186313420339200000)


def test_det_matches_numpy_on_random_int_matrices():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        M = rng.integers(-9, 10, size=(n, n))
        want = round(float(np.linalg.det(M.astype(float))))
        assert det([[int(x) for x in row] for row in M]) == want


def test_solve_exact():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        while True:
            M = [[int(x) for x in row] for row in rng.integers(-6, 7, size=(n, n))]
            if det(M) != 0:
                break
        b = [int(x) for x in rng.integers(-9, 10, size=n)]
        d, X = solve(M, [[bi] for bi in b])
        x = [row[0] for row in X]
        assert type(d) is int and all(type(xi) is int for xi in x)
        assert [sum(a * xi for a, xi in zip(row, x)) for row in M] == [d * bi for bi in b]


def test_solve_multiple_rhs():
    M = [[2, 1], [1, 3]]
    d, X = solve(M, [[1, 0], [0, 1]])
    # columns of the inverse, over the determinant
    assert d == 5
    assert Fraction(X[0][0], d) == Fraction(3, 5) and Fraction(X[1][0], d) == Fraction(-1, 5)
    assert Fraction(X[0][1], d) == Fraction(-1, 5) and Fraction(X[1][1], d) == Fraction(2, 5)


def test_solve_singular_raises():
    with pytest.raises(ValueError):
        solve([[1, 2], [2, 4]], [[1], [0]])


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _mul(A, B):
    cols = len(B[0]) if B else 0
    return [[sum(a * B[t][j] for t, a in enumerate(row)) for j in range(cols)] for row in A]


def _sympy(A):
    return sympy.Matrix(len(A), len(A), [x for row in A for x in row])


_SCALARS = st.integers(-6, 6)


@st.composite
def _systems(draw):
    """(A, B): a square A of size 0-5 and an n x k B, k in 0-3.

    A has its leading entry zeroed (a row swap if nonsingular) or a row made
    a multiple of another (singular) with fair probability.
    """
    n = draw(st.integers(0, 5))
    k = draw(st.integers(0, 3))
    A = [[draw(_SCALARS) for _ in range(n)] for _ in range(n)]
    B = [[draw(_SCALARS) for _ in range(k)] for _ in range(n)]
    tweak = draw(st.sampled_from(["none", "zero_pivot", "dependent"]))
    if n and tweak == "zero_pivot":
        A[0][0] = 0
    if n >= 2 and tweak == "dependent":
        c = draw(_SCALARS)
        A[n - 1] = [c * x for x in A[0]]
    return A, B


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_systems())
@example(([], []))
@example(([[0]], [[1]]))
@example(([[5]], [[2, -3]]))
@example(([[0, 1], [1, 0]], [[1], [2]]))
@example(([[0, 2, 1], [3, 0, 0], [1, 1, 0]], [[1], [0], [0]]))
@example(([[0, -1, 0], [0, 0, 1], [1, 0, 0]], [[1], [2], [3]]))
@example(([[1, 0, 0], [0, 0, 2], [0, 3, 0]], [[1], [2], [3]]))
@example(([[0, 1], [-1, 0]], [[1], [2]]))
def test_elimination_matches_sympy(system):
    A, B = system
    n = len(A)
    d = det(A)
    assert type(d) is int and d == _sympy(A).det()
    if d == 0:
        with pytest.raises(ValueError):
            solve(A, B)
        with pytest.raises(ValueError):
            solve(A, _identity(n))
        return
    d2, adj = solve(A, _identity(n))
    assert d2 == d
    assert all(type(x) is int for row in adj for x in row)
    if n:
        assert adj == _sympy(A).adjugate().tolist()
    assert _mul(A, adj) == [[d if i == j else 0 for j in range(n)] for i in range(n)]
    d3, X = solve(A, B)
    assert d3 == d and all(type(x) is int for row in X for x in row)
    assert X == _mul(adj, B)
    assert _mul(A, X) == [[d * x for x in row] for row in B]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_systems())
@example(([], []))
@example(([[0]], [[1]]))
@example(([[0, 1], [1, 0]], [[1], [2]]))
@example(([[0, 2, 1], [3, 0, 0], [1, 1, 0]], [[1], [0], [0]]))
def test_unit_phase_keeps_det_smith_form_and_solves(system):
    A, B = system
    n = len(A)
    F = factor(A)
    pivot_rows = [r for r, _c, _prow, _ops in F.pivots]
    pivot_cols = [c for _r, c, _prow, _ops in F.pivots]
    assert sorted(F.rows + pivot_rows) == list(range(n))
    assert sorted(F.cols + pivot_cols) == list(range(n))
    assert len(F.rows) == len(F.cols) == len(F.block)
    assert all(len(row) == len(F.cols) for row in F.block)
    assert all(x not in (1, -1) for row in F.block for x in row)
    assert all(prow[c] in (1, -1) for _r, c, prow, _ops in F.pivots)
    d = det(A)
    assert abs(det(F.block)) == abs(d)
    if d == 0:
        return
    ones = (1,) * len(F.pivots)
    block = smith_normal_form(F.block, abs(det(F.block)))[0]
    assert smith_normal_form(A, abs(d))[0] == ones + block
    # a right-hand side that is zero on the pivot rows, and B itself
    rhs = [row if i in F.rows else [0] * len(row) for i, row in enumerate(B)]
    # A X = d C with d != 0 fixes X, and needs no second elimination
    for C in (rhs, B):
        d2, X = substitute(F, C)
        assert d2 == d and _mul(A, X) == [[d * x for x in row] for row in C]


def test_unit_phase_tie_break_on_k3():
    # every +-1 entry of [[2, -1], [-1, 2]] costs 1: the pivot is (0, 1)
    F = factor([[2, -1], [-1, 2]])
    assert [(r, c, prow) for r, c, prow, _ops in F.pivots] == [(0, 1, {0: 2, 1: -1})]
    assert (F.block, F.rows, F.cols) == ([[3]], [1], [0])
    assert substitute(F, [[0], [1]]) == (3, [[1], [2]])
    # a right-hand side that is nonzero on the pivot row
    assert substitute(F, [[1], [0]]) == (3, [[2], [1]])
    with pytest.raises(ValueError, match="n x n matrix"):
        substitute(F, [[1]])


@st.composite
def _factored_systems(draw):
    """(A, [B0, B1, B3]): an A as _systems draws it and right-hand sides of
    0, 1 and 3 columns."""
    A, _ = draw(_systems())
    n = len(A)
    return A, [[[draw(_SCALARS) for _ in range(k)] for _ in range(n)] for k in (0, 1, 3)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_factored_systems())
@example(([], [[], [], []]))
@example(([[0, 1], [1, 0]], [[[], []], [[1], [2]], [[1, 0, 3], [0, 1, -2]]]))
@example(([[0, 0, 1], [0, 1, 0], [1, 0, 0]], [[[]] * 3, [[1], [0], [5]], _identity(3)]))
def test_one_factor_serves_every_right_hand_side(system):
    A, rhs = system
    F = factor(A)
    d = _sympy(A).det() if A else 1
    assert F.det == det(A) == d and type(F.det) is int
    for B in rhs:
        if d == 0:
            with pytest.raises(ValueError, match="singular matrix"):
                substitute(F, B)
            continue
        want = (d, _mul(_sympy(A).adjugate().tolist(), B) if A else [])
        assert substitute(F, B) == solve(A, B) == want
    if d:
        # the factor is left as it was: a second pass gives the same answers
        assert [substitute(F, B) for B in rhs] == [solve(A, B) for B in rhs]


def test_factor_and_substitute_refuse_what_solve_refuses():
    with pytest.raises(ValueError, match="n x n matrix"):
        factor([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match="n x n matrix"):
        factor([[1, 2], [3]])
    F = factor([[2, 0], [0, 3]])
    for B in ([[1], [1], [1]], [[2], [3, 9]], [[1]]):
        with pytest.raises(ValueError, match="n x n matrix"):
            substitute(F, B)
    with pytest.raises(TypeError):
        substitute(F, [[Fraction(1, 2)], [1]])
    with pytest.raises(TypeError):
        factor([[1, 0], [0, 0.5]])
    singular = factor([[1, 2], [2, 4]])
    assert singular.det == 0
    with pytest.raises(ValueError, match="singular matrix"):
        substitute(singular, [[1], [0]])
    with pytest.raises(ValueError, match="singular matrix"):
        solve([[1, 2], [2, 4]], [[1], [0]])


_COLUMN_KINDS = st.sampled_from(["drawn", "zero", "zero on the pivot rows"])


@st.composite
def _column_systems(draw):
    """(A, columns, kinds): an A as _systems draws it, 0-4 columns of
    length n, and for each column whether the test keeps it, zeroes it or
    zeroes it on the pivot rows of factor(A)."""
    A, _ = draw(_systems())
    k = draw(st.integers(0, 4))
    columns = [[draw(_SCALARS) for _ in A] for _ in range(k)]
    return A, columns, [draw(_COLUMN_KINDS) for _ in columns]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_column_systems())
@example(([], [[], []], ["drawn", "zero"]))
@example(([[2, -1], [-1, 2]], [], []))
# K3's reduced Laplacian pivots on row 0: the second column is zero there
@example(([[2, -1], [-1, 2]], [[0, 0], [4, 5], [3, -2]], ["zero", "zero on the pivot rows", "drawn"]))
@example(([[0, -1, 0], [0, 0, 1], [1, 0, 0]], [[1, 2, 3], [4, 5, 6]], ["zero on the pivot rows", "drawn"]))
def test_substitution_is_column_by_column(system):
    A, columns, kinds = system
    n = len(A)
    F = factor(A)
    pivot_rows = {r for r, _c, _prow, _ops in F.pivots}
    for col, kind in zip(columns, kinds):
        for i in range(n):
            if kind == "zero" or (kind == "zero on the pivot rows" and i in pivot_rows):
                col[i] = 0
    B = [[col[i] for col in columns] for i in range(n)]
    if F.det == 0:
        with pytest.raises(ValueError, match="singular matrix"):
            substitute(F, B)
        return
    d, X = substitute(F, B)
    singles = [substitute(F, [[b] for b in col]) for col in columns]
    assert all(d1 == d for d1, _ in singles)
    assert X == [[Xc[i][0] for _d, Xc in singles] for i in range(n)]
    assert all(type(x) is int for row in X for x in row)
    assert _mul(A, X) == [[d * b for b in row] for row in B]
