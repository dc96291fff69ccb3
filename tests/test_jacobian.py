"""Smith normal form, the critical group, sampling and ranks.

Core claims:
    - smith_normal_form, on a square nonsingular M with d = |det M|,
      returns a diagonal with product d in a divisibility chain and u_inv
      whose columns present Z^k / M Z^k, by an exact certificate (s_i u_i
      in M Z^k, det u_inv a unit mod d) on hypothesis matrices and on
      10-, 20- and 40-vertex multigraphs, where the factors match sympy's;
      singular input raises ValueError.
    - The critical group order equals the spanning-tree count and the
      element map (exponents -> reduced divisor) is a bijection.  The
      invariant factors of every (G, q) in SMALL and RANDOM are pinned by
      one digest; generators are not, since a presentation is not unique.
    - group_add realizes the group law on reduced representatives.
    - The seeded sampler is reproducible, prefix-stable, and returns
      spanning trees; 600 draws on each of four small graphs are pinned by
      one digest, and 600 draws on a 10-vertex multigraph and 2000 on a
      60-vertex one, which runs step 2's float guess, match Kirchhoff's
      edge marginals r(u, v).  Its raw Philox words give the draws of
      Generator.integers, and its trees are those of the unreduced element
      on a 40-vertex multigraph with an 88-bit invariant factor.  The
      step-1 floor it reads off one exact solve per call is _refined_floor's,
      and leaves reduce's after_step1, on every SMALL graph, K4 and that
      40-vertex multigraph.  A
      steps-1-2 core that returned an unreduced divisor trips the sampler's
      self-check (AssertionError).
    - The unit phase of exact.factor: on every SMALL and RANDOM (G, q) and
      on the 40-vertex multigraph with an 88-bit invariant factor,
      |det B| = det Q_(q) and B holds no +-1, the tree count is det Q_(0),
      and the sampler's (kappa, P) from one substitution into the Factor of
      Q_(q) satisfies Q_(q) P = kappa times the generators as an integer
      matrix product; on the 40-vertex case kappa equals the modular
      determinant below.  The graph's sparse rows of Q_(q) give, through
      exact's one sparse entry, the Factor that exact.factor gives from the
      dense matrix, field by field (each pivot's row operations as a set),
      on every SMALL and RANDOM (G, q), at 100 and 200 vertices and on the
      500-vertex path and cycle.  A sampler call on a fresh graph factors
      Q_(q) once, and a second call on that graph not at all.  K3,
      K4, C5 and the 5-vertex Kirchhoff multigraph keep, at q = 0, the
      generators of the Smith form of all of Q_(0).
    - Oracles apart from the unit phase: the invariant factors equal those
      of smith_normal_form on all of Q_(q) on SMALL, RANDOM and at 40, 50
      and 60 vertices; at 100 and 200 vertices the tree count equals a
      determinant by numpy int64 elimination modulo word-size primes,
      combined by CRT; at 100 and 200 vertices each generator's order, the
      least common denominator of L_(q) g_i from a full solve, is its
      factor; on SMALL, RANDOM and at 100 and 200 vertices, for each prime
      p < 50, the corank of Q_(q) mod p by the same int64 elimination is the
      number of invariant factors that p divides.
    - A float Smith-form entry, Jacobian exponent or sampler seed raises
      TypeError instead of being truncated; numpy integers are accepted.
      The sampler refuses a bad seed or count before it builds the Smith
      form.
    - winnable/rank agree with brute-force search on small graphs and with
      known values; rank_at_least enumerates the effective divisors of
      degree c in lexicographic order without recursion.  Above degree
      g - 1 rank and rank_at_least read r(K - D) by Riemann-Roch, so K on a
      genus-21 multigraph, whose own climb passes the cap, is answered; a
      divisor of degree g - 1 past the cap is refused.
"""

import hashlib
import json
import sys
from math import gcd, prod
from random import Random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.domains import ZZ

from chipfire import exact, reduction
from chipfire.exact import det, solve
from chipfire.graph import (
    Divisor,
    Graph,
    apply_laplacian,
    canonical_plus,
    complete_graph,
    cycle_graph,
    path_graph,
)
from chipfire.jacobian import (
    RANK_ENUMERATION_CAP,
    JacobianPresentation,
    _effective_divisors,
    _uniform_below,
    count_spanning_trees,
    group_add,
    jacobian,
    rank,
    rank_at_least,
    sample_spanning_tree,
    smith_normal_form,
    to_critical,
    winnable,
)
from chipfire.graph import _reduced_rows, reduced_laplacian
from chipfire.potential import j_function
from chipfire.reduction import dhar, is_reduced, reduce as reduce_divisor
from chipfire.treebij import divisor_to_tree, enumerate_spanning_trees, is_spanning_tree

from corpus import (
    RANDOM, SMALL, corank_mod, genus_21_multigraph, modular_det, random_divisor,
    tree_plus_edges,
)

JACOBIAN_DIGEST = "590298f05d477e9f4f78f57e9990e9057c349fa94cb8d90c3b9d8d7058bb8374"
SAMPLER_DIGEST = "be9617d309a7c26c5663bef22bf6d66732551c54ab946fdd873217e94d15a2ed"

# the benchmark's Kirchhoff multigraph: 5 vertices with a parallel pair
KIRCHHOFF = Graph(5, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (2, 4), (3, 4)])


def _digest(records):
    blob = json.dumps(records, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _check_snf(M):
    """Exact certificate that (diagonal, u_inv) presents Z^k / M Z^k.

    With d = |det M|: the product of the diagonal is d and it forms a
    divisibility chain; s_i u_i lies in M Z^k, so u_i has order dividing
    s_i; and u_inv is invertible mod d.  The u_i then generate the whole
    group of order d, so each has order exactly s_i and the sum is direct.
    """
    d = abs(det(M))
    diagonal, u_inv = smith_normal_form(M, d)
    k = len(M)
    assert len(diagonal) == k and all(s >= 1 for s in diagonal)
    assert prod(diagonal) == d
    for a, b in zip(diagonal, diagonal[1:]):
        assert b % a == 0
    scaled = [[s * x for s, x in zip(diagonal, row)] for row in u_inv]
    det_m, X = solve(M, scaled)
    assert all(x % det_m == 0 for row in X for x in row)
    assert gcd(int(det(u_inv)), int(d)) == 1
    return diagonal


_nonsingular = (
    st.integers(1, 4)
    .flatmap(lambda k: st.lists(
        st.lists(st.integers(-9, 9), min_size=k, max_size=k), min_size=k, max_size=k
    ))
    .filter(lambda M: det(M) != 0)
)


# -- Smith normal form ---------------------------------------------------------

def test_snf_oracle_2x2():
    assert _check_snf([[2, -1], [-1, 2]]) == (1, 3)


def test_snf_k4_reduced_laplacian():
    G = complete_graph(4)
    M = [[int(x) for x in row] for row in reduced_laplacian(G, 0)]
    assert _check_snf(M) == (1, 4, 4)


def test_snf_zero_and_identity():
    # the zero matrix is singular, as is any other: both are refused
    for M in ([[0, 0], [0, 0]], [[1, 2], [2, 4]]):
        with pytest.raises(ValueError):
            smith_normal_form(M, abs(det(M)))
    assert _check_snf([[1, 0], [0, 1]]) == (1, 1)


@settings(max_examples=200, deadline=None)
@given(_nonsingular)
def test_snf_random_matrices(M):
    _check_snf(M)


def test_snf_preserves_determinant_magnitude():
    rng = np.random.default_rng(131)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        M = [[int(x) for x in row] for row in rng.integers(-6, 7, size=(n, n))]
        if det(M) == 0:
            continue
        assert prod(smith_normal_form(M, abs(det(M)))[0]) == abs(det(M))


@pytest.mark.parametrize("n", [10, 20, 40])
def test_snf_matches_sympy_on_multigraphs(n):
    # random_multigraph(n, 3n) of the benchmark; sympy works over ZZ
    G = tree_plus_edges(n, 3 * n, Random(n))
    M = reduced_laplacian(G, 0).tolist()
    want = invariant_factors(sympy.Matrix(M), domain=ZZ)
    assert _check_snf(M) == tuple(int(x) for x in want)


def _check_kirchhoff_marginals(G, seed, draws):
    # P(e in T) = r(u, v) for a uniform tree T, with a z-score bound of 4.5
    # per edge, as in the benchmark; r(u, v) = L[u][u] + L[v][v] - 2 L[u][v]
    # off one j-table, as move_bounds reads it
    hits = [0] * G.m
    for tree in sample_spanning_tree(G, 0, seed, count=draws):
        for e in tree.tree_edges:
            hits[e] += 1
    table = j_function(G, 0)
    L = table.num
    for e, (u, v) in enumerate(G.edges):
        p = (L[u][u] + L[v][v] - 2 * L[u][v]) / table.den
        sd = (p * (1 - p) / draws) ** 0.5
        assert abs(hits[e] / draws - p) <= 4.5 * sd + 1e-9, (e, hits[e], p)


def test_kirchhoff_marginals_on_a_ten_vertex_multigraph():
    # 600 draws, fixed before the first run; at 10 vertices step 2 starts
    # from the zero guess
    _check_kirchhoff_marginals(tree_plus_edges(10, 30, Random(46)), 20110701, 600)


def test_kirchhoff_marginals_on_a_sixty_vertex_multigraph():
    # 2000 draws, fixed before the first run; from 16 vertices up step 2
    # starts from _borrow_guess's float guess, which the draws go through
    _check_kirchhoff_marginals(tree_plus_edges(60, 180, Random(60)), 20110701, 2000)


# -- Critical group ---------------------------------------------------------------

def test_invariant_factors_match_pinned_digest():
    records = [
        list(jacobian(G, q).invariant_factors)
        for G in SMALL + RANDOM
        for q in G.vertices
    ]
    assert _digest(records) == JACOBIAN_DIGEST


def test_tree_count_oracles():
    assert count_spanning_trees(complete_graph(3)) == 3
    assert count_spanning_trees(complete_graph(4)) == 16
    for k in (3, 4, 5, 6, 7, 8):
        assert count_spanning_trees(cycle_graph(k)) == k


def test_one_vertex_graph_takes_the_general_path():
    # the reduced Laplacian is 0 x 0: det 1, an empty Smith form, no factors
    G = Graph(1, [])
    assert jacobian(G, 0) == JacobianPresentation(0, 1, (), ())
    assert count_spanning_trees(G) == 1
    trees = sample_spanning_tree(G, 0, 20110701, count=2)
    assert [t.tree_edges for t in trees] == [frozenset(), frozenset()]


def test_jacobian_order_is_tree_count():
    for G in SMALL + RANDOM[:10]:
        pres = jacobian(G, 0)
        assert pres.order == count_spanning_trees(G)
        for f in pres.invariant_factors:
            assert f > 1
        for a, b in zip(pres.invariant_factors, pres.invariant_factors[1:]):
            assert b % a == 0


def test_jacobian_cycle_group_is_cyclic():
    pres = jacobian(cycle_graph(6), 0)
    assert pres.invariant_factors == (6,)


# -- The unit phase and its oracles --------------------------------------------------

# generators from the Smith form of the full Q_(0), before the unit phase:
# the tie-break to the lowest (row, column) keeps them
KEPT_GENERATORS = (
    (complete_graph(3), ((-1, 0, 1),)),
    (complete_graph(4), ((0, 0, -1, 1), (-1, 0, 0, 1))),
    (cycle_graph(5), ((-1, 0, 0, 0, 1),)),
    (KIRCHHOFF, ((0, 0, 0, -1, 1),)),
)


def _unit_cases():
    big = tree_plus_edges(40, 120, Random(1))  # an 88-bit invariant factor
    return [(G, q) for G in SMALL + RANDOM for q in G.vertices] + [(big, 7)]


def test_unit_phase_contract(monkeypatch):
    # |det B| is kappa and B holds no +-1, and the sampler's (kappa, P) from
    # one substitution into the Factor of Q_(q) is certified by Q_(q) P =
    # kappa times the generators, all in integers
    seen = []
    substitute = exact.substitute

    def spy(fac, rhs_rows):
        out = substitute(fac, rhs_rows)
        seen.append(out)
        return out

    monkeypatch.setattr(exact, "substitute", spy)
    cases = _unit_cases()
    assert max(jacobian(*cases[-1]).invariant_factors).bit_length() > 64
    for G, q in cases:
        Q = reduced_laplacian(G, q).tolist()
        fac = exact.factor(Q)
        kappa = fac.det
        assert kappa > 0 and abs(det(fac.block)) == kappa
        assert all(x not in (1, -1) for row in fac.block for x in row)
        if q == 0:
            assert count_spanning_trees(G) == kappa
        seen.clear()
        sample_spanning_tree(G, q, seed=3, count=0)
        [(d, P)] = seen
        keep = [v for v in G.vertices if v != q]
        gens = [[g[v] for g in jacobian(G, q).generators] for v in keep]
        assert d == kappa
        QP = [[sum(a * b for a, b in zip(row, col)) for col in zip(*P)] for row in Q]
        assert QP == [[kappa * x for x in row] for row in gens]
    G, q = cases[-1]
    assert kappa == modular_det(reduced_laplacian(G, q).tolist())


def test_a_sampler_call_factors_the_block_once(monkeypatch):
    # the Smith form takes |det Q_(q)| from the Factor that the solve
    # substitutes into; with the floor read off that solve, no reduction
    # factors again.  Every factor, dense or sparse, runs through the one
    # sparse entry, so counting it counts them all.  The graph's table keeps
    # the Factor, so each case runs on a fresh copy, which the shared graphs
    # of _unit_cases are not, and a second call on it factors nothing
    calls = []
    factor = exact._factor_rows

    def counting(n, rows):
        calls.append(n)
        return factor(n, rows)

    monkeypatch.setattr(exact, "_factor_rows", counting)
    for G, q in _unit_cases():
        G = Graph(G.n, G.edges)
        calls.clear()
        sample_spanning_tree(G, q, seed=3, count=4)
        assert calls == [G.n - 1]
        sample_spanning_tree(G, q, seed=4, count=4)
        assert calls == [G.n - 1]


def _same_factor(got, want):
    """Field by field; each pivot's row operations compared as a set, since
    the order in which the unit phase visits a column's rows is free."""
    assert (got.n, got.det) == (want.n, want.det)
    assert len(got.pivots) == len(want.pivots)
    for (r, c, prow, ops), (r2, c2, prow2, ops2) in zip(got.pivots, want.pivots):
        assert (r, c, prow) == (r2, c2, prow2)
        assert len(ops) == len(ops2) and set(ops) == set(ops2)
    assert (got.rows, got.cols, got.block) == (want.rows, want.cols, want.block)
    assert (got.steps, got.upper) == (want.steps, want.upper)


def test_the_sparse_rows_give_the_dense_factor():
    # the graph's sparse rows of Q_(q) are the dense matrix's nonzero
    # entries, and the one sparse entry of the unit phase gives from them the
    # Factor that exact.factor gives from the dense matrix
    cases = [(G, q) for G in SMALL + RANDOM for q in G.vertices]
    cases += [(tree_plus_edges(n, 3 * n, Random(1)), 0) for n in (100, 200)]
    cases += [(path_graph(500), 0), (cycle_graph(500), 0)]
    for G, q in cases:
        Q = reduced_laplacian(G, q).tolist()
        rows = _reduced_rows(G._nbrs, q)
        assert rows == [{j: x for j, x in enumerate(row) if x} for row in Q]
        _same_factor(exact._factor_rows(G.n - 1, rows), exact.factor(Q))


@pytest.mark.parametrize("G, want", KEPT_GENERATORS, ids=["K3", "K4", "C5", "KIRCHHOFF"])
def test_small_graphs_keep_their_generators(G, want):
    assert tuple(g.coeffs for g in jacobian(G, 0).generators) == want


def _full_matrix_factors(G, q):
    """The invariant factors above 1 of smith_normal_form on all of Q_(q)."""
    M = reduced_laplacian(G, q).tolist()
    diagonal = smith_normal_form(M, abs(det(M)))[0]
    return tuple(s for s in diagonal if s != 1)


def test_invariant_factors_match_the_full_matrix_smith_form():
    cases = [(G, q) for G in SMALL + RANDOM for q in G.vertices]
    cases += [(tree_plus_edges(n, 3 * n, Random(n)), 0) for n in (40, 50, 60)]
    for G, q in cases:
        assert jacobian(G, q).invariant_factors == _full_matrix_factors(G, q)


@pytest.mark.parametrize("n", [100, 200])
def test_tree_count_matches_a_modular_determinant(n):
    G = tree_plus_edges(n, 3 * n, Random(1))
    kappa = count_spanning_trees(G)
    assert kappa.bit_length() > 200
    assert kappa == modular_det(reduced_laplacian(G, 0).tolist())


@pytest.mark.parametrize("n", [100, 200])
def test_generator_orders_are_the_invariant_factors(n):
    # the order of g_i in Jac(G) is the least common denominator of
    # L_(q) g_i, which a full solve of Q_(q) gives as d / gcd(d, column i);
    # at n = 200 the group is Z/2 x Z/s, with s of 457 bits
    G = tree_plus_edges(n, 3 * n, Random(1))
    pres = jacobian(G, 0)
    d, X = solve(
        reduced_laplacian(G, 0).tolist(),
        [[g[v] for g in pres.generators] for v in range(1, G.n)],
    )
    orders = tuple(d // gcd(d, *col) for col in zip(*X))
    assert orders == pres.invariant_factors


def test_p_ranks_count_the_invariant_factors_divisible_by_p():
    # the corank of Q_(q) mod a prime p is the number of invariant factors
    # that p divides, by numpy int64 elimination with no Bareiss pass and no
    # Smith form; a prime below 50 that divides no factor gives corank 0
    cases = [(G, q) for G in SMALL + RANDOM for q in G.vertices]
    cases += [(tree_plus_edges(n, 3 * n, Random(1)), 0) for n in (100, 200)]
    primes = list(sympy.primerange(50))
    seen = set()
    for G, q in cases:
        factors = jacobian(G, q).invariant_factors
        Q = reduced_laplacian(G, q).tolist()
        for p in primes:
            count = sum(s % p == 0 for s in factors)
            assert corank_mod(Q, p) == count
            seen.add(count)
    assert {0, 1, 2} <= seen  # cyclic and non-cyclic p-parts are both checked


@pytest.mark.parametrize(
    "call",
    [
        lambda x: smith_normal_form([[x, 0], [0, 3]], 6),
        lambda x: jacobian(cycle_graph(5), 0).element([x]),
        lambda x: sample_spanning_tree(complete_graph(3), 0, x, count=3),
    ],
    ids=["smith_normal_form_entry", "element_exponent", "sampler_seed"],
)
def test_floats_are_refused_not_truncated(call):
    with pytest.raises(TypeError):
        call(2.5)
    assert call(np.int64(2)) == call(2)


def test_generators_have_degree_zero():
    for G in SMALL[2:12] + RANDOM[:6]:
        pres = jacobian(G, 0)
        assert len(pres.generators) == len(pres.invariant_factors)
        for gen in pres.generators:
            assert gen.degree == 0


def test_element_map_is_bijective():
    # the element sum followed by reduce is injective on the exponent box
    from itertools import product

    for G in SMALL[2:14]:
        q = 0
        pres = jacobian(G, q)
        ranges = [range(f) for f in pres.invariant_factors]
        seen = set()
        for expo in product(*ranges):
            D = pres.element(expo)
            assert D.degree == 0
            red = reduce_divisor(G, q, D).result
            assert is_reduced(G, q, red)
            seen.add(red)
        assert len(seen) == pres.order


def test_element_zero_is_zero_divisor():
    G = complete_graph(4)
    pres = jacobian(G, 0)
    zero = pres.element((0,) * len(pres.invariant_factors))
    assert zero == Divisor((0, 0, 0, 0))


def test_element_respects_factor_orders():
    # n_i times a generator is trivial in the group, i.e. after reduction
    G = complete_graph(4)
    pres = jacobian(G, 0)
    f = pres.invariant_factors
    full = reduce_divisor(G, 0, pres.element(f)).result
    assert full == pres.element((0,) * len(f))


def test_element_trivial_group_sizing():
    from chipfire.graph import path_graph

    G = path_graph(3)  # a tree: trivial group
    pres = jacobian(G, 0)
    assert pres.invariant_factors == ()
    assert pres.order == 1
    assert pres.element(()) == Divisor((0, 0, 0))


# -- Group law ----------------------------------------------------------------------

def test_group_add_oracle():
    G = complete_graph(3)
    got = group_add(G, 2, Divisor((1, 0, -1)), Divisor((1, 0, -1)))
    assert got == Divisor((0, 1, -1))


def test_group_add_identity_and_inverse():
    rng = np.random.default_rng(137)
    for G in SMALL[3:10]:
        q = 0
        zero = Divisor((0,) * G.n)
        vals = [int(rng.integers(-2, 3)) for _ in range(G.n)]
        vals[q] -= sum(vals)
        D = reduce_divisor(G, q, Divisor(vals)).result
        assert group_add(G, q, D, zero) == D
        neg = reduce_divisor(G, q, Divisor([-x for x in D])).result
        assert group_add(G, q, D, neg) == zero


def test_group_add_matches_element_arithmetic():
    from itertools import product

    G = complete_graph(4)
    q = 0
    pres = jacobian(G, q)
    f = pres.invariant_factors
    def rep(expo):
        return reduce_divisor(G, q, pres.element(expo)).result

    pairs = list(product(*[range(x) for x in f]))[:6]
    for e1 in pairs:
        for e2 in pairs:
            lhs = group_add(G, q, rep(e1), rep(e2))
            rhs = rep(tuple((a + b) % m for a, b, m in zip(e1, e2, f)))
            assert lhs == rhs


def test_group_add_rejects_bad_input():
    G = complete_graph(3)
    with pytest.raises(ValueError):
        group_add(G, 0, Divisor((1, 0, 0)), Divisor((0, 0, 0)))  # nonzero degree
    with pytest.raises(ValueError):
        group_add(G, 2, Divisor((1, 1, -2)), Divisor((0, 0, 0)))  # not reduced
    # the summands' own sources: one exponent per factor, drawn below it
    with pytest.raises(ValueError, match="wrong number of exponents"):
        jacobian(cycle_graph(4), 0).element([1, 2])
    with pytest.raises(ValueError, match="bound must be positive"):
        _uniform_below(np.random.Philox(key=0), 0)


# -- Sampling -------------------------------------------------------------------------

def test_sampler_draws_match_pinned_digest():
    records = [
        [sorted(t.tree_edges) for t in sample_spanning_tree(G, 0, 20110701, count=600)]
        for G in (complete_graph(3), complete_graph(4), cycle_graph(5), KIRCHHOFF)
    ]
    assert _digest(records) == SAMPLER_DIGEST


def test_sampler_reproducible_and_prefix_stable():
    G = complete_graph(4)
    a = sample_spanning_tree(G, 0, seed=99, count=6)
    b = sample_spanning_tree(G, 0, seed=99, count=6)
    assert a == b
    prefix = sample_spanning_tree(G, 0, seed=99, count=3)
    assert a[:3] == prefix
    other = sample_spanning_tree(G, 0, seed=100, count=6)
    assert a != other  # overwhelmingly likely and fixed by the seeds


def test_sampler_refuses_bad_seed_and_count_before_the_smith_form(monkeypatch):
    def no_smith_form(*_args):
        raise AssertionError("smith_normal_form ran before the refusal")

    # the package's `jacobian` attribute is the function, so reach the module
    monkeypatch.setattr(
        sys.modules["chipfire.jacobian"], "smith_normal_form", no_smith_form
    )
    with pytest.raises(ValueError):
        sample_spanning_tree(complete_graph(3), 0, seed=-1)
    with pytest.raises(ValueError):
        sample_spanning_tree(complete_graph(3), 0, seed=1, count=-1)
    with pytest.raises(TypeError):
        sample_spanning_tree(complete_graph(3), 0, seed=1, count=2.0)


def test_sampler_returns_spanning_trees():
    for G in (complete_graph(4), cycle_graph(5), RANDOM[1]):
        trees = sample_spanning_tree(G, 0, seed=7, count=20)
        for t in trees:
            assert is_spanning_tree(G, t.tree_edges)


def test_sampler_hits_every_tree():
    G = complete_graph(3)
    seen = {t.tree_edges for t in sample_spanning_tree(G, 0, seed=3, count=60)}
    assert seen == set(enumerate_spanning_trees(G))


def _uniform_below_from_integers(gen, bound):
    """The reference draw: each 64-bit word from a numpy Generator's
    integers(0, 2**64 - 1, endpoint=True), rejection as in _uniform_below."""
    words = (max(1, bound.bit_length()) + 63) // 64
    span = 1 << (64 * words)
    limit = span - span % bound
    while True:
        x = 0
        for w in gen.integers(0, 2**64 - 1, dtype=np.uint64, endpoint=True, size=words):
            x = (x << 64) | int(w)
        if x < limit:
            return x % bound


# 2**63 + 1 rejects nearly half its words; the last two take two and five
# words per draw
@pytest.mark.parametrize(
    "bound", [1, 2, 3, 1000, 2**63 + 1, 2**64 - 1, 2**64 + 13, 3**200]
)
def test_uniform_below_raw_words_match_generator_integers(bound):
    words = (max(1, bound.bit_length()) + 63) // 64
    for key in (0, 7, 20110701):
        for i in (0, 1, 5):
            counter = [0, 0, i, 0]
            bitgen = np.random.Philox(key=key, counter=counter)
            gen = np.random.Generator(np.random.Philox(key=key, counter=counter))
            raw = np.random.Philox(key=key, counter=counter).random_raw(400).tolist()
            got = [_uniform_below(bitgen, bound) for _ in range(20)]
            assert got == [_uniform_below_from_integers(gen, bound) for _ in range(20)]
            # both consumed the same words
            nxt = bitgen.random_raw()
            assert nxt == gen.bit_generator.random_raw()
            used = raw.index(nxt)
            assert used >= 20 * words
            if bound == 2**63 + 1:
                assert used > 25  # about 40: some draws were rejected


def test_sampler_trees_match_reducing_the_unreduced_element():
    # largest invariant factor 88 bits, so each exponent takes two words;
    # SAMPLER_DIGEST covers only one-word factors
    G = tree_plus_edges(40, 120, Random(1))
    q, seed, count = 7, 11, 6
    pres = jacobian(G, q)
    assert max(pres.invariant_factors).bit_length() > 64
    want = []
    for i in range(count):
        gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, i, 0]))
        exps = [_uniform_below_from_integers(gen, f) for f in pres.invariant_factors]
        red = reduce_divisor(G, q, pres.element(exps)).result
        want.append(divisor_to_tree(G, q, red))
    assert sample_spanning_tree(G, q, seed, count=count) == want


def test_sampler_floor_is_step_1s_floor(monkeypatch):
    # the sampler reads each tree's step-1 floor off one exact solve of the
    # generators per call: it must be _refined_floor's floor of the unreduced
    # element, and the d1 it leaves must be reduce's after_step1; the
    # exponents are the sampler's own draws, then the largest ones
    module = sys.modules["chipfire.jacobian"]
    core = reduction._steps_1_2
    seen = []

    def spy(G, q, D, floor=None):
        out = core(G, q, D, floor)
        seen.append((list(D), floor, out[0]))
        return out

    monkeypatch.setattr(module, "_steps_1_2", spy)
    K4 = complete_graph(4)
    assert jacobian(K4, 0).invariant_factors == (4, 4)
    big = tree_plus_edges(40, 120, Random(1))
    assert max(jacobian(big, 7).invariant_factors).bit_length() > 64
    cases = [(G, i % G.n) for i, G in enumerate(SMALL)] + [(K4, 2), (big, 7)]
    assert any(G.n == 1 for G, _ in cases)
    assert any(G.m == G.n - 1 > 0 for G, _ in cases)  # a tree: no generators
    draws = _uniform_below
    for G, q in cases:
        seen.clear()
        sample_spanning_tree(G, q, seed=3, count=5)
        monkeypatch.setattr(module, "_uniform_below", lambda bitgen, bound: bound - 1)
        sample_spanning_tree(G, q, seed=3)
        monkeypatch.setattr(module, "_uniform_below", draws)
        assert len(seen) == 6
        table = j_function(G, q)
        for D, floor, d1 in seen:
            assert floor == reduction._refined_floor(G, table, D)[0]
            assert d1 == list(reduce_divisor(G, q, Divisor(D)).after_step1)


def _unreduced_core(G, q, D, floor=None):
    """A steps-1-2 core that ends at [-2, 1, 1]; on K3 with q = 0 neither 1
    nor 2 ever burns, so the list is not q-reduced.  It takes the floor the
    sampler hands the real core, and ignores it."""
    return [0, 0, 0], [-2, 1, 1], [0, 0, 0], [0, 0, 0], 0, 0, "float", 0


def test_sampler_certifies_the_reduced_element(monkeypatch):
    # a reduction core that hands back an unreduced divisor is an internal
    # fault: the sampler's is_reduced check raises AssertionError (CLI exit
    # 3), not divisor_to_tree's ValueError (CLI exit 2, a refused input)
    G = complete_graph(3)
    assert not dhar(G, 0, Divisor([-2, 1, 1])).reduced
    module = sys.modules["chipfire.jacobian"]
    monkeypatch.setattr(module, "_steps_1_2", _unreduced_core)
    with pytest.raises(
        AssertionError, match="reduce returned a divisor that is not q-reduced"
    ):
        sample_spanning_tree(G, 0, seed=1)


def _refuse(*_args, **_kwargs):
    raise AssertionError("built a ReductionReport or a DharOutcome")


@pytest.mark.parametrize("G", [RANDOM[0], tree_plus_edges(20, 40, Random(3))])
def test_sampler_builds_no_reduction_report_and_no_dhar_outcome(G, monkeypatch):
    # each tree runs steps 1-2 through the private core and one kernel burn
    # of its own; the 20-vertex graph takes step 2's float guess
    want = sample_spanning_tree(G, 1, seed=5, count=12)
    monkeypatch.setattr(reduction, "ReductionReport", _refuse)
    monkeypatch.setattr(reduction, "DharOutcome", _refuse)
    with pytest.raises(AssertionError, match="ReductionReport or a DharOutcome"):
        reduce_divisor(G, 1, Divisor([0] * G.n))
    assert sample_spanning_tree(G, 1, seed=5, count=12) == want
    K3 = complete_graph(3)
    assert winnable(K3, Divisor([3, -1, 0]), 2).values == (1, 0, 0)


# -- Winnability and rank ----------------------------------------------------------------

def _brute_winnable(G, D, bound=4):
    """Search scripts with entries in [-bound, bound], f(q)=0 fixed by shift."""
    from itertools import product

    n = G.n
    for vals in product(range(-bound, bound + 1), repeat=n - 1):
        f = [0] + list(vals)
        if (D - apply_laplacian(G, f)).is_effective():
            return True
    return False


def test_winnable_effective_is_trivial():
    G = cycle_graph(4)
    D = Divisor((1, 0, 2, 0))
    script = winnable(G, D)
    assert script is not None
    assert set(script.values) == {0}


def test_winnable_negative_degree_is_lost():
    G = cycle_graph(4)
    assert winnable(G, Divisor((1, -2, 0, 0))) is None


def test_winnable_script_is_a_win():
    rng = np.random.default_rng(139)
    for G in SMALL[2:16] + RANDOM[:8]:
        for _ in range(6):
            D = random_divisor(G.n, rng, lo=-4, hi=4)
            script = winnable(G, D)
            if script is not None:
                assert (D - apply_laplacian(G, script)).is_effective()


def test_winnable_matches_brute_force():
    rng = np.random.default_rng(149)
    for G in SMALL[2:8]:  # n <= 4
        for _ in range(10):
            D = random_divisor(G.n, rng, lo=-2, hi=2)
            got = winnable(G, D) is not None
            assert got == _brute_winnable(G, D)


def test_rank_known_values():
    # triangle: genus 1, so deg-3 divisors have rank 2
    G = complete_graph(3)
    assert rank(G, Divisor((1, 1, 1))) == 2
    assert rank(G, Divisor((1, 0, 0))) == 0
    assert rank(G, Divisor((-1, 0, 0))) == -1
    assert rank(G, Divisor((0, 0, 0))) == 0


def test_rank_climbs_past_zero_at_degree_g_minus_1():
    # two vertices joined by 4 parallel edges: g = 3, principal divisors are
    # the multiples of (4, -4); deg D = 2 = g - 1, so rank climbs from 0
    G = Graph(2, [(0, 1)] * 4)
    assert G.genus() == 3
    # D - (v) is effective for each v and (-1, 1) is not principal
    assert rank(G, Divisor((1, 1))) == 1
    # 2 (v0) - (v1) = (2, -1) is equivalent to no effective divisor
    assert rank(G, Divisor((2, 0))) == 0


def _climbed_rank(G, D):
    """The rank by rank_at_least at every level from 1, which rank skips
    when deg D > g - 1."""
    if winnable(G, D) is None:
        return -1
    r = 0
    while rank_at_least(G, D, r + 1):
        r += 1
    return r


def test_rank_matches_the_climb_from_zero():
    rng = np.random.default_rng(31)
    for G in SMALL[:10]:  # n <= 4, g <= 3
        g = G.genus()
        for d in range(-1, 2 * g + 2):
            D = random_divisor(G.n, rng, lo=-2, hi=2)
            D = Divisor((D[0] + d - D.degree, *D.coeffs[1:]))
            assert rank(G, D) == _climbed_rank(G, D)


def test_rank_past_2g_minus_2_tests_no_threshold(monkeypatch):
    # K3 has g = 1: Riemann-Roch answers deg D - g for any deg D > 0,
    # where a climb would make one call per level
    def no_threshold(*args):
        raise AssertionError("rank tested a threshold")

    monkeypatch.setattr(sys.modules["chipfire.jacobian"], "rank_at_least", no_threshold)
    assert rank(complete_graph(3), Divisor((10**9, 0, 0))) == 10**9 - 1


def test_rank_at_least_validation():
    G = complete_graph(3)
    with pytest.raises(ValueError):
        rank_at_least(G, Divisor((1, 0, 0)), -1)
    assert not rank_at_least(G, Divisor((1, 0, 0)), 2)  # degree too small


def test_rank_at_least_refuses_past_the_enumeration_cap():
    # K3 has C(c + 2, 2) effective divisors of degree c: 19,900 at c = 198
    # and 20,100 at c = 199, against a cap of 20,000; above deg g - 1 = 0,
    # Riemann-Roch answers on K - D, of negative degree, past the cap
    G = complete_graph(3)
    assert RANK_ENUMERATION_CAP == 20_000
    assert not rank_at_least(G, Divisor((199, -1, 0)), 198)
    assert rank_at_least(G, Divisor((300, 0, 0)), 250)
    assert not rank_at_least(G, Divisor((199, 0, 0)), 199)  # r = 198
    assert not rank_at_least(G, Divisor((198, 0, 0)), 199)  # degree too small
    # deg D = g - 1 = 20 leaves no swap: C(19, 10) divisors of degree 10
    with pytest.raises(ValueError, match="would test 92378 divisors"):
        rank_at_least(genus_21_multigraph(), Divisor([20] + [0] * 9), 10)


def _recursive_effective_divisors(n, degree):
    """The recursive enumeration _effective_divisors replaced: the first
    coefficient outermost, the last taking what is left."""
    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + [remaining]
            return
        for c in range(remaining + 1):
            yield from rec(prefix + [c], remaining - c, slots - 1)
    return [tuple(coeffs) for coeffs in rec([], degree, n)]


def test_effective_divisors_keep_the_recursive_order():
    for n in range(1, 6):
        for degree in range(5):
            got = [D.coeffs for D in _effective_divisors(n, degree)]
            assert got == _recursive_effective_divisors(n, degree)


def test_rank_at_least_on_a_1500_vertex_cycle():
    # 1500 divisors of degree 1, under the cap; the first, v1499, leaves
    # v0 - v1499, which is not winnable on a cycle
    D = Divisor([1] + [0] * 1499)
    assert rank_at_least(cycle_graph(1500), D, 1) is False


def test_rank_at_least_on_a_tree_needs_no_reduction(monkeypatch):
    # deg(D) - c = 0 >= g = 0: Riemann-Roch answers for all 1500 divisors E
    def no_reduce(*args, **kwargs):
        raise AssertionError("rank_at_least reduced a divisor")

    monkeypatch.setattr(sys.modules["chipfire.jacobian"], "reduce", no_reduce)
    D = Divisor([1] + [0] * 1499)
    assert rank_at_least(path_graph(1500), D, 1) is True


def test_rank_canonical_divisors():
    # rank of the canonical divisor is g - 1 on these graphs
    for G, K, g in (
        (cycle_graph(4), Divisor((0, 0, 0, 0)), 1),
        (complete_graph(4), Divisor((1, 1, 1, 1)), 3),
    ):
        assert all(K[v] == G.degree(v) - 2 for v in G.vertices)
        assert rank(G, K) == g - 1


def test_rank_of_k_on_a_genus_21_multigraph_runs_on_the_smaller_side():
    # deg K = 2g - 2 = 40, so rank and rank_at_least both run on K - K = 0,
    # where a climb on K itself would stop at level 20 and its 10015005
    # divisors; 20 (v0) has degree g - 1 and no smaller side
    G = genus_21_multigraph()
    K = Divisor(G.degree(v) - 2 for v in G.vertices)
    assert G.genus() == 21
    assert rank_at_least(G, K, 20)
    assert rank(G, K) == 20
    with pytest.raises(ValueError, match="would test 92378 divisors"):
        rank_at_least(G, Divisor([20] + [0] * 9), 10)


# -- Duality -----------------------------------------------------------------------------

def test_to_critical_arithmetic_involution():
    # K+ - D is critical but generally not q-reduced, so the involution is
    # checked arithmetically rather than by calling the map twice
    rng = np.random.default_rng(151)
    for G in SMALL[3:12]:
        q = 0
        D = reduce_divisor(G, q, random_divisor(G.n, rng, lo=0, hi=3)).result
        C = to_critical(G, q, D)
        assert C == canonical_plus(G) - D
        assert (canonical_plus(G) - C) == D
        assert C.degree == 2 * G.m - G.n - D.degree
        if is_reduced(G, q, C):
            assert to_critical(G, q, C) == D


def test_to_critical_rejects_unreduced():
    G = complete_graph(3)
    with pytest.raises(ValueError):
        to_critical(G, 2, Divisor((1, 1, 0)))
