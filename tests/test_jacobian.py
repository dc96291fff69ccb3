"""Smith normal form, the critical group, sampling and ranks.

Core claims:
    - smith_normal_form returns S = U M V with unimodular tracked U, V,
      u_inv the exact inverse of U, nonnegative diagonal S and the
      divisibility chain; it handles rectangular input.  U, S, V and u_inv
      are pinned by one digest over the SMALL and RANDOM corpora.
    - The critical group order equals the spanning-tree count and the
      element map (exponents -> reduced divisor) is a bijection.
    - group_add realizes the group law on reduced representatives.
    - The seeded sampler is reproducible, prefix-stable, and returns
      spanning trees.
    - winnable/rank agree with brute-force search on small graphs and with
      known values.
"""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from chipfire.exact import det
from chipfire.graph import Divisor, apply_laplacian, complete_graph, cycle_graph
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
from chipfire.potential import k_plus
from chipfire.reduction import is_reduced, reduce as reduce_divisor
from chipfire.treebij import enumerate_spanning_trees, is_spanning_tree

from corpus import RANDOM, SMALL, random_divisor

SMITH_DIGEST = "a944e5a7388c73b0ed9216f55ab85ea0b1d03b6897547fa3ce369b151db6b2f7"


def _check_snf(M):
    dec = smith_normal_form(M)
    rows = len(M)
    cols = len(M[0]) if rows else 0
    # S = U M V
    UM = [
        [sum(dec.U[i][k] * M[k][j] for k in range(rows)) for j in range(cols)]
        for i in range(rows)
    ]
    UMV = [
        [sum(UM[i][k] * dec.V[k][j] for k in range(cols)) for j in range(cols)]
        for i in range(rows)
    ]
    assert UMV == [list(r) for r in dec.S]
    if rows:
        assert det(dec.U) in (1, -1)
        ui = [
            [sum(dec.U[i][k] * dec.u_inv[k][j] for k in range(rows)) for j in range(rows)]
            for i in range(rows)
        ]
        assert ui == [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    if cols:
        assert det(dec.V) in (1, -1)
    diag = dec.diagonal
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    # off-diagonal entries vanish
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert dec.S[i][j] == 0
    return dec


# -- Smith normal form ---------------------------------------------------------

def test_snf_outputs_match_pinned_digest():
    # U, S, V and u_inv of every reduced Laplacian of both corpora, every q
    records = []
    for G in SMALL + RANDOM:
        for q in G.vertices:
            dec = smith_normal_form(reduced_laplacian(G, q).tolist())
            records.append([dec.U, dec.S, dec.V, dec.u_inv])
    blob = json.dumps(records, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == SMITH_DIGEST


def test_snf_oracle_2x2():
    dec = _check_snf([[2, -1], [-1, 2]])
    assert dec.diagonal == (1, 3)


def test_snf_k4_reduced_laplacian():
    G = complete_graph(4)
    M = [[int(x) for x in row] for row in reduced_laplacian(G, 0)]
    dec = _check_snf(M)
    assert dec.diagonal == (1, 4, 4)


def test_snf_zero_and_identity():
    dec = _check_snf([[0, 0], [0, 0]])
    assert dec.diagonal == (0, 0)
    dec = _check_snf([[1, 0], [0, 1]])
    assert dec.diagonal == (1, 1)


def test_snf_rectangular():
    dec = _check_snf([[2, 4, 4]])
    assert dec.diagonal == (2,)
    dec = _check_snf([[2], [4], [4]])
    assert dec.diagonal == (2,)
    dec = _check_snf([[1, 2, 3], [4, 5, 6]])
    assert dec.diagonal == (1, 3)


def test_snf_random_matrices():
    rng = np.random.default_rng(127)
    for _ in range(50):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        M = [[int(x) for x in row] for row in rng.integers(-9, 10, size=(rows, cols))]
        _check_snf(M)


def test_snf_preserves_determinant_magnitude():
    rng = np.random.default_rng(131)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        M = [[int(x) for x in row] for row in rng.integers(-6, 7, size=(n, n))]
        dec = smith_normal_form(M)
        prod = 1
        for x in dec.diagonal:
            prod *= x
        assert prod == abs(det(M))


# -- Critical group ---------------------------------------------------------------

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
        assert C == k_plus(G) - D
        assert (k_plus(G) - C) == D
        assert C.degree == 2 * G.m - G.n - D.degree
        if is_reduced(G, q, C):
            assert to_critical(G, q, C) == D


def test_to_critical_rejects_unreduced():
    G = complete_graph(3)
    with pytest.raises(ValueError):
        to_critical(G, 2, Divisor((1, 1, 0)))
