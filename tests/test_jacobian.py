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
      one digest, and 600 draws on a 10-vertex multigraph match Kirchhoff's
      edge marginals r(u, v).
    - winnable/rank agree with brute-force search on small graphs and with
      known values.
"""

import hashlib
import json
from math import gcd, prod
from random import Random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.domains import ZZ

from chipfire.exact import det, solve
from chipfire.graph import (
    Divisor,
    Graph,
    apply_laplacian,
    canonical_plus,
    complete_graph,
    cycle_graph,
)
from chipfire.jacobian import (
    RANK_ENUMERATION_CAP,
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
from chipfire.graph import reduced_laplacian
from chipfire.potential import effective_resistance
from chipfire.reduction import is_reduced, reduce as reduce_divisor
from chipfire.treebij import enumerate_spanning_trees, is_spanning_tree

from corpus import RANDOM, SMALL, random_divisor, tree_plus_edges

JACOBIAN_DIGEST = "590298f05d477e9f4f78f57e9990e9057c349fa94cb8d90c3b9d8d7058bb8374"
SAMPLER_DIGEST = "f3396a9e4437824d9f2d747c00f73ad3dfab833a1e5be29c7bfb18a80cf8b926"

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
    diagonal, u_inv = smith_normal_form(M)
    k = len(M)
    d = abs(det(M))
    assert len(diagonal) == k and all(s >= 1 for s in diagonal)
    assert prod(diagonal) == d
    for a, b in zip(diagonal, diagonal[1:]):
        assert b % a == 0
    scaled = [[s * x for s, x in zip(diagonal, row)] for row in u_inv]
    assert all(x.denominator == 1 for row in solve(M, scaled) for x in row)
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
            smith_normal_form(M)
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
        assert prod(smith_normal_form(M)[0]) == abs(det(M))


@pytest.mark.parametrize("n", [10, 20, 40])
def test_snf_matches_sympy_on_multigraphs(n):
    # random_multigraph(n, 3n) of the benchmark; sympy works over ZZ
    G = tree_plus_edges(n, 3 * n, Random(n))
    M = reduced_laplacian(G, 0).tolist()
    want = invariant_factors(sympy.Matrix(M), domain=ZZ)
    assert _check_snf(M) == tuple(int(x) for x in want)


def test_kirchhoff_marginals_on_a_ten_vertex_multigraph():
    # P(e in T) = r(u, v) for a uniform tree T; 600 draws, a z-score bound
    # fixed before the first run, as in the benchmark
    G = tree_plus_edges(10, 30, Random(46))
    draws = 600
    hits = [0] * G.m
    for tree in sample_spanning_tree(G, 0, 20110701, count=draws):
        for e in tree.tree_edges:
            hits[e] += 1
    for e, (u, v) in enumerate(G.edges):
        p = float(effective_resistance(G, u, v))
        sd = (p * (1 - p) / draws) ** 0.5
        assert abs(hits[e] / draws - p) <= 4.5 * sd + 1e-9


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


def test_sampler_returns_spanning_trees():
    for G in (complete_graph(4), cycle_graph(5), RANDOM[1]):
        trees = sample_spanning_tree(G, 0, seed=7, count=20)
        for t in trees:
            assert is_spanning_tree(G, t.tree_edges)


def test_sampler_hits_every_tree():
    G = complete_graph(3)
    seen = {t.tree_edges for t in sample_spanning_tree(G, 0, seed=3, count=60)}
    assert seen == set(enumerate_spanning_trees(G))


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


def test_rank_at_least_validation():
    G = complete_graph(3)
    with pytest.raises(ValueError):
        rank_at_least(G, Divisor((1, 0, 0)), -1)
    assert not rank_at_least(G, Divisor((1, 0, 0)), 2)  # degree too small


def test_rank_at_least_refuses_past_the_enumeration_cap():
    # K3 has C(c + 2, 2) effective divisors of degree c: 19,900 at c = 198
    # and 20,100 at c = 199, against a cap of 20,000
    G = complete_graph(3)
    assert RANK_ENUMERATION_CAP == 20_000
    assert not rank_at_least(G, Divisor((199, -1, 0)), 198)
    with pytest.raises(ValueError, match="cap"):
        rank_at_least(G, Divisor((300, 0, 0)), 199)
    assert not rank_at_least(G, Divisor((198, 0, 0)), 199)  # degree too small


def test_rank_canonical_divisors():
    # rank of the canonical divisor is g - 1 on these graphs
    for G, K, g in (
        (cycle_graph(4), Divisor((0, 0, 0, 0)), 1),
        (complete_graph(4), Divisor((1, 1, 1, 1)), 3),
    ):
        assert all(K[v] == G.degree(v) - 2 for v in G.vertices)
        assert rank(G, K) == g - 1


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
