"""Step 2's borrowing from a guess against the one-borrow-at-a-time loop.

Core claims:
    - On connected multigraphs with 2-40 vertices, parallel edges and a
      shuffled edge order, borrow_until_effective returns the reference's
      (chips, borrow counts, total) from every starting guess: none (the
      zero guess), the float guess `reduce` reads off step 1's inverse,
      random counts in 0..50, and 10x the float guess.
    - The float guess survives an inverse of zeros, NaN or +-inf entries
      (no OverflowError) and is corrected from an inverse 1000x too large;
      `reduce` with a non-finite or zero inverse returns the same report as
      with the true one, apart from its path fields.  A non-finite float
      solve sends step 1 straight to the exact floor, with no cast of NaN or
      inf to an integer.
    - On a 2000-vertex path, whose Q_(q) is ill-conditioned, the rounded
      float guess is off at some vertices and is corrected to the borrow
      counts of the zero guess.

The reference below borrows once at the lowest-index negative vertex off q
and rescans from index 0, so it costs O(n) per borrow.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chipfire import _kernels, exact, potential
from chipfire.graph import Divisor, Graph, reduced_laplacian
from chipfire.potential import j_function
from chipfire.reduction import _borrow_guess, _refined_floor, reduce as reduce_divisor

from corpus import random_multigraph


# -- Reference implementation ---------------------------------------------------

def _borrow_reference(G, dvals, q):
    d = list(dvals)
    counts = [0] * G.n
    while True:
        v = next((v for v in G.vertices if v != q and d[v] < 0), None)
        if v is None:
            return d, counts, sum(counts)
        counts[v] += 1
        d[v] += G.deg[v]
        for w in G.neighbors(v):
            d[w] -= 1


def _float_guess(G, q, d):
    return _borrow_guess(G, q, Divisor(d), j_function(G, q).float_inverse())


# -- Properties -----------------------------------------------------------------

@st.composite
def _cases(draw):
    """(G, q, chips off step 1's range, a random guess in 0..50)."""
    n = draw(st.integers(2, 40))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    for _ in range(draw(st.integers(0, 2 * n))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 2))
        edges.append((u, v + (v >= u)))
    G = Graph(n, draw(st.permutations(edges)))
    q = draw(st.integers(0, n - 1))
    chips = [draw(st.integers(-G.deg[v], G.deg[v])) for v in G.vertices]
    guess = draw(st.lists(st.integers(0, 50), min_size=n, max_size=n))
    guess[q] = 0
    return G, q, chips, guess


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_cases())
def test_every_guess_is_corrected_to_the_reference_borrows(case):
    G, q, chips, random_guess = case
    want = _borrow_reference(G, chips, q)
    guess = _float_guess(G, q, chips)
    for g in (None, guess, random_guess, [10 * c for c in guess]):
        d, counts, total, unborrows = _kernels.borrow_until_effective(G, chips, q, g)
        assert (d, counts, total) == want
        if g is None or not any(g):
            assert unborrows == 0


def test_descent_fires_back_what_the_guess_overshot_in_one_round():
    # q = 0 joined to vertex 1 by two edges: chips (0, 0) need no borrows,
    # and a guess of 5 at vertex 1 leaves it 10 chips, so {1} fires back
    # min(5, 10 // 2) = 5 times at once
    G = Graph(2, [(0, 1), (0, 1)])
    assert _kernels.borrow_until_effective(G, [0, 0], 0, [0, 5]) == (
        [0, 0], [0, 0], 0, 1
    )


# -- Degenerate inverses ---------------------------------------------------------

def _bad_inverses(size):
    inf_nan = np.full((size, size), np.inf)
    inf_nan[::2] = np.nan
    inf_nan[:, ::3] = -np.inf
    return [np.zeros((size, size)), np.full((size, size), np.nan), inf_nan]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0 in the matvec
def test_a_degenerate_inverse_gives_a_guess_that_is_still_corrected():
    rng = np.random.default_rng(1201)
    G = random_multigraph(12, 20, rng)
    too_large = 1000 * j_function(G, 0).float_inverse()
    chips = [int(rng.integers(-G.deg[v], G.deg[v] + 1)) for v in G.vertices]
    want = _borrow_reference(G, chips, 0)
    for inv in _bad_inverses(G.n - 1) + [too_large]:
        guess = _borrow_guess(G, 0, Divisor(chips), inv)
        assert all(isinstance(c, int) and c >= 0 for c in guess)
        d, counts, total, _unborrows = _kernels.borrow_until_effective(
            G, chips, 0, guess
        )
        assert (d, counts, total) == want


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the float solves
def test_reduce_with_a_degenerate_inverse_matches_the_true_one(monkeypatch):
    rng = np.random.default_rng(1202)
    G = random_multigraph(20, 30, rng)
    D = Divisor(int(x) for x in rng.integers(-30, 31, size=G.n))
    want = reduce_divisor(G, 0, D)
    for inv in _bad_inverses(G.n - 1):
        monkeypatch.setattr(potential.PotentialTable, "float_inverse", lambda t: inv)
        rep = reduce_divisor(G, 0, D)
        assert dataclasses.replace(
            rep,
            floor_path=want.floor_path,
            floor_rounds=want.floor_rounds,
            step2_unborrow_sets=want.step2_unborrow_sets,
        ) == want


def test_a_non_finite_float_solve_goes_to_the_exact_floor_without_a_cast():
    rng = np.random.default_rng(1204)
    G = random_multigraph(20, 30, rng)
    b = [0] + [int(x) for x in rng.integers(-30, 31, size=G.n - 1)]
    keep = range(1, G.n)
    sol = exact.solve(reduced_laplacian(G, 0).tolist(), [[b[v]] for v in keep])
    want = [0] + [x.numerator // x.denominator for (x,) in sol]
    for inv in _bad_inverses(G.n - 1)[1:]:  # all NaN, then NaN and +-inf
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            floors, path, _rounds = _refined_floor(G, 0, inv, b)
        assert (floors, path) == (want, "exact")
        messages = [str(w.message) for w in caught]
        assert not [m for m in messages if "invalid value encountered in cast" in m]


def test_a_2000_vertex_path_is_corrected_to_the_zero_guess_borrows():
    # on a tree step 1 already leaves no chips off q, so the chips are set
    # by hand: -1 at ten vertices near q and +1 at ten far from it
    n = 2000
    G = Graph(n, [(v, v + 1) for v in range(n - 1)])
    rng = np.random.default_rng(1203)
    chips = [0] * n
    for v in rng.choice(np.arange(1, 200), size=10, replace=False):
        chips[int(v)] = -1
    for v in rng.choice(np.arange(200, n - 1), size=10, replace=False):
        chips[int(v)] = 1
    guess = _float_guess(G, 0, chips)
    d, counts, total, _unborrows = _kernels.borrow_until_effective(G, chips, 0, guess)
    assert (d, counts, total) == _kernels.borrow_until_effective(G, chips, 0)[:3]
    # the rounded float solve is off at some vertices, so the guess needed
    # correcting
    assert guess != counts
