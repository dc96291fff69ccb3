"""Spanning-tree / reduced-divisor bijection.

Core claims:
    - divisor_to_tree and tree_to_divisor are mutually inverse between
      spanning trees and q-reduced divisors of degree g.
    - The edge set processed while building a divisor from a tree equals
      the tree plus its externally passive edges.
    - The activity split produced by the burn agrees with the independent
      cycle-maximum definition, and the chip count at q is
      d - g + (number of externally active edges).
    - divisor_to_tree refuses (ValueError) exactly the divisors Dhar's
      burn finds not q-reduced, on every graph in SMALL, every q and
      seeded chips from -1 to deg(v); the trees it returns map back to D.
    - Trees enumerated by brute force are counted by the reduced
      Laplacian determinant.
    - tree_to_divisor refuses exactly the edge sets is_spanning_tree
      refuses: cycles, too few or too many edges, out-of-range indices, on
      3000 random index sets and named cases.
"""

from random import Random

import numpy as np
import pytest

from chipfire import _kernels
from chipfire.graph import Divisor, Graph, complete_graph, cycle_graph
from chipfire.jacobian import count_spanning_trees
from chipfire.reduction import dhar, is_reduced, reduce as reduce_divisor
from chipfire.treebij import (
    SpanningTree,
    divisor_to_tree,
    enumerate_spanning_trees,
    external_activity,
    is_spanning_tree,
    tree_to_divisor,
)

from corpus import RANDOM, SMALL, kruskal_tree, random_divisor, tree_plus_edges


# -- Basics ---------------------------------------------------------------------

def test_is_spanning_tree():
    G = complete_graph(4)  # edges 01,02,03,12,13,23
    assert is_spanning_tree(G, {0, 1, 2})
    assert not is_spanning_tree(G, {0, 1})
    assert not is_spanning_tree(G, {0, 3, 1})  # 01,12,02 is a cycle


def test_enumerate_matches_determinant():
    for G in SMALL + RANDOM[:8]:
        trees = list(enumerate_spanning_trees(G))
        assert len(set(trees)) == len(trees)
        assert len(trees) == count_spanning_trees(G)


def test_external_activity_triangle():
    G = complete_graph(3)
    active, passive, count = external_activity(G, (0, 1))
    assert active == frozenset({2}) and passive == frozenset() and count == 1
    active, passive, count = external_activity(G, (1, 2))
    assert active == frozenset() and passive == frozenset({0})


def test_external_activity_rejects_non_tree():
    with pytest.raises(ValueError):
        external_activity(complete_graph(3), (0,))


# -- Frozen traces ------------------------------------------------------------------

def test_zero_divisor_tree_triangle():
    G = complete_graph(3)
    t = divisor_to_tree(G, 0, Divisor((0, 0, 0)))
    assert t.tree_edges == frozenset({0, 1})
    assert t.ext_active == frozenset({2})
    assert t.ext_passive == frozenset()
    assert t.processed_edges == frozenset({0, 1})


def test_tree_to_divisor_triangle_degree_zero():
    G = complete_graph(3)
    D = tree_to_divisor(G, 0, (1, 2), d=0)
    assert D == Divisor((-1, 1, 0))


def test_divisor_to_tree_rejects_unreduced():
    G = complete_graph(3)
    with pytest.raises(ValueError):
        divisor_to_tree(G, 2, Divisor((1, 1, 0)))


def test_tree_to_divisor_rejects_non_tree():
    G = complete_graph(3)
    with pytest.raises(ValueError):
        tree_to_divisor(G, 0, (0, 1, 2))


def _refuses(G, q, edges):
    """True iff tree_to_divisor raises ValueError."""
    try:
        tree_to_divisor(G, q, edges)
    except ValueError:
        return True
    return False


def test_tree_to_divisor_refuses_the_named_non_trees():
    G = complete_graph(4)  # edges 01 02 03 12 13 23
    assert not _refuses(G, 0, {0, 1, 2})  # the star at 0
    assert _refuses(G, 0, {0, 1, 3})  # 01 02 12: a triangle, 3 left out
    assert _refuses(G, 0, {0, 1})  # n - 2 edges
    assert _refuses(G, 0, {0, 1, 2, 3})  # n edges
    assert _refuses(G, 0, [0, 0, 1])  # two distinct indices
    assert _refuses(G, 0, {0, 1, 6})  # index m
    assert _refuses(G, 0, {0, 1, -1})  # negative index
    parallel = Graph(3, [(0, 1), (0, 1), (1, 2)])
    assert _refuses(parallel, 2, {0, 1})  # a parallel pair is a cycle
    assert not _refuses(parallel, 2, {1, 2})
    single = Graph(1, [])
    assert tree_to_divisor(single, 0, ()) == Divisor((0,))
    assert _refuses(single, 0, {0})


def test_tree_to_divisor_refuses_exactly_what_is_spanning_tree_refuses():
    # n - 2, n - 1 and n random edge indices, some with one index out of
    # range, on the random multigraphs (parallel edges included)
    rng = Random(20261019)
    seen = set()
    for G in RANDOM:
        for _ in range(150):
            k = G.n - 1 + rng.randint(-1, 1)
            edges = rng.sample(range(G.m), min(max(k, 0), G.m))
            if edges and rng.random() < 0.1:
                edges[0] = rng.choice((-1, G.m, G.m + 3))
            q = rng.randrange(G.n)
            want = not is_spanning_tree(G, edges)
            assert _refuses(G, q, edges) == want
            if not want:
                D = tree_to_divisor(G, q, edges)
                assert divisor_to_tree(G, q, D).tree_edges == frozenset(edges)
            seen.add((len(edges) - G.n + 1, want))
    assert {(0, False), (0, True), (-1, True), (1, True)} <= seen


# -- The bijection over the corpus -----------------------------------------------------

def test_tree_roundtrip_every_tree():
    for G in SMALL:
        if G.n == 1:
            continue
        for q in (0, G.n - 1):
            seen = set()
            for tree in enumerate_spanning_trees(G):
                D = tree_to_divisor(G, q, tree)
                assert is_reduced(G, q, D)
                assert D.degree == G.genus()
                assert D not in seen
                seen.add(D)
                back = divisor_to_tree(G, q, D)
                assert back.tree_edges == frozenset(tree)
            assert len(seen) == count_spanning_trees(G)


def test_divisor_roundtrip_random():
    rng = np.random.default_rng(109)
    for G in RANDOM[:10]:
        q = int(rng.integers(0, G.n))
        # a degree-g reduced divisor obtained by reducing a random start
        base = random_divisor(G.n, rng)
        shift = G.genus() - base.degree
        vals = list(base)
        vals[q] += shift
        D = reduce_divisor(G, q, Divisor(vals)).result
        tree = divisor_to_tree(G, q, D)
        assert is_spanning_tree(G, tree.tree_edges)
        assert tree_to_divisor(G, q, tree) == D


def test_divisor_to_tree_refuses_exactly_what_dhar_refuses():
    # divisor_to_tree has no Dhar burn of its own: its edge scan stalls on
    # exactly the divisors Dhar's criterion rejects, negative chips off q
    # included, and what it accepts it maps back to D
    rng = Random(20261020)
    outcomes = set()
    for G in SMALL:
        for q in G.vertices:
            for _ in range(30):
                D = Divisor([rng.randint(-1, G.deg[v]) for v in G.vertices])
                reduced = dhar(G, q, D).reduced
                try:
                    tree = divisor_to_tree(G, q, D)
                except ValueError as exc:
                    assert str(exc) == "divisor is not q-reduced"
                    assert not reduced
                    outcomes.add(False)
                    continue
                assert reduced
                assert tree_to_divisor(G, q, tree, d=D.degree) == D
                outcomes.add(True)
    assert outcomes == {False, True}


def test_processed_edges_match_tree_plus_passive():
    for G in SMALL[2:]:
        for q in (0,):
            for tree in enumerate_spanning_trees(G):
                st = SpanningTree(
                    tree_edges=frozenset(tree),
                    ext_active=frozenset(),
                    ext_passive=frozenset(),
                )
                D = tree_to_divisor(G, q, st)
                burn = divisor_to_tree(G, q, D)
                mask = [e in tree for e in range(G.m)]
                in_r = _kernels.divisor_from_tree(G, mask, q)[1]
                processed = {e for e, r in enumerate(in_r) if r}
                assert burn.processed_edges == processed
                assert processed == frozenset(tree) | burn.ext_passive


def _active_by_definition(G, tree):
    """Non-tree edges e that no tree edge f > e can swap for: T - f + e is a
    spanning tree exactly when f lies on the cycle of T + e."""
    return frozenset(
        e for e in range(G.m) if e not in tree
        and not any(f > e and is_spanning_tree(G, tree - {f} | {e}) for f in tree)
    )


def test_activity_split_matches_cycle_definition():
    for G in SMALL[2:] + RANDOM[:6]:
        for tree in enumerate_spanning_trees(G):
            D = tree_to_divisor(G, 0, tree)
            burn = divisor_to_tree(G, 0, D)
            active, passive, _count = external_activity(G, tree)
            assert burn.ext_active == active
            assert burn.ext_passive == passive
            assert active == _active_by_definition(G, tree)
            assert active | passive == frozenset(range(G.m)) - tree


def test_activity_split_matches_the_burn_past_8_vertices():
    # seeded 100-400-vertex multigraphs with 3n edges, a few Kruskal trees
    # each: too large to enumerate, so the burn meets the union-find split
    rng = np.random.default_rng(2710)
    for n in (100, 200, 400):
        G = tree_plus_edges(n, 3 * n, Random(n))
        for _ in range(3):
            tree = kruskal_tree(G, rng.permutation(G.m))
            q = int(rng.integers(0, n))
            D = tree_to_divisor(G, q, tree)
            burn = divisor_to_tree(G, q, D)
            active, passive, count = external_activity(G, tree)
            assert burn.tree_edges == tree
            assert burn.ext_active == active
            assert burn.ext_passive == passive
            assert D[q] == count


def test_chips_at_q_count_active_edges():
    # with d = deg(D), the returned divisor has D(q) = d - g + ext_active
    for G in SMALL[2:10]:
        g = G.genus()
        for tree in enumerate_spanning_trees(G):
            _active, _passive, count = external_activity(G, tree)
            for d in (0, g, g + 2):
                D = tree_to_divisor(G, 0, tree, d=d)
                assert D.degree == d
                assert D[0] == d - g + count


def test_default_degree_is_genus():
    G = cycle_graph(5)
    for tree in enumerate_spanning_trees(G):
        D = tree_to_divisor(G, 0, tree)
        assert D.degree == 1  # genus of a cycle
