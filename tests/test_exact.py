"""Fraction-free exact linear algebra.

Core claims:
    - det agrees with known values and with numpy (rounded) on random
      integer matrices, and handles Fraction and numpy int64 entries
      exactly, without int64 overflow.
    - solve returns the exact rational solution and raises on singular
      systems.
    - Property (hypothesis, sympy as the oracle): on integer and Fraction
      matrices, with zero leading pivots, negative determinants, singular,
      0 x 0 and 1 x 1 input, det equals sympy's det; a nonsingular A gives
      an adjugate equal to sympy's and X = det(A) A^{-1} B with A X = d B;
      a singular A makes solve and adjugate raise ValueError.
"""

from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from chipfire.exact import adjugate, det, mat_vec, solve


def test_det_known_values():
    assert det([[2, -1], [-1, 2]]) == 3
    assert det([[1, 0], [0, 1]]) == 1
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[5]]) == 5


def test_det_needs_row_swap():
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1


def test_det_fraction_entries():
    M = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]]
    assert det(M) == Fraction(1, 2) * Fraction(1, 5) - Fraction(1, 3) * Fraction(1, 4)


def test_det_numpy_int64_entries_do_not_overflow():
    # the Bareiss products of 2**40 entries pass 2**63: they must run on
    # Python ints, not on the numpy scalars they came in as
    M = np.array([[2**40, 0], [0, 2**40]], dtype=np.int64)
    assert det(M) == 2**80
    assert det(list(M)) == 2**80


def test_det_hilbert_matrix():
    # Hilbert matrices are the classic ill-conditioned case; exact arithmetic
    # must get the tiny determinant right where floats cannot.
    n = 6
    H = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    d = det(H)
    assert d > 0
    assert d == Fraction(1, 186313420339200000)


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
        x = [Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4))) for _ in range(n)]
        b = mat_vec(M, x)
        sol = solve(M, [[bi] for bi in b])
        assert [row[0] for row in sol] == x


def test_solve_multiple_rhs():
    M = [[2, 1], [1, 3]]
    sol = solve(M, [[1, 0], [0, 1]])
    # columns of the inverse
    assert sol[0][0] == Fraction(3, 5) and sol[1][0] == Fraction(-1, 5)
    assert sol[0][1] == Fraction(-1, 5) and sol[1][1] == Fraction(2, 5)


def test_solve_singular_raises():
    with pytest.raises(ValueError):
        solve([[1, 2], [2, 4]], [[1], [0]])


def test_mat_vec():
    assert mat_vec([[1, 2], [3, 4]], [1, 1]) == [3, 7]


def _mul(A, B):
    cols = len(B[0]) if B else 0
    return [[sum(a * B[t][j] for t, a in enumerate(row)) for j in range(cols)] for row in A]


def _sympy(A):
    return sympy.Matrix(len(A), len(A), [x for row in A for x in row])


_SCALARS = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
)


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
@example(([[5]], [[2, Fraction(1, 3)]]))
@example(([[0, 1], [1, 0]], [[1], [2]]))
@example(([[0, 2, 1], [3, 0, 0], [1, 1, 0]], [[1], [0], [0]]))
def test_elimination_matches_sympy(system):
    A, B = system
    n = len(A)
    d = det(A)
    assert d == _sympy(A).det()
    if d == 0:
        with pytest.raises(ValueError):
            solve(A, B)
        with pytest.raises(ValueError):
            adjugate(A)
        return
    d2, adj = adjugate(A)
    assert d2 == d
    if all(isinstance(x, int) for row in A for x in row):
        assert type(d2) is int and all(type(x) is int for row in adj for x in row)
    if n:
        assert adj == _sympy(A).adjugate().tolist()
    assert _mul(A, adj) == [[d if i == j else 0 for j in range(n)] for i in range(n)]
    X = [[d * x for x in row] for row in solve(A, B)]
    assert X == _mul(adj, B)
    assert _mul(A, X) == [[d * x for x in row] for row in B]
