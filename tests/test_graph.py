"""Graph, divisor and Laplacian basics.

Core claims:
    - Graph validates its input (loops, range, connectivity) and normalizes
      edges to (min, max) while keeping their order.
    - laplacian is symmetric with zero row sums and degree diagonal, and it
      and reduced_laplacian (int64 and float64, every q) equal the per-edge
      loop that fills Q entry by entry.
    - apply_laplacian(G, f) == Q @ f and firing a set moves chips along
      exactly the cut edges.
    - is_linearly_equivalent finds an integral script iff one exists and the
      returned script satisfies D1 - Delta(script) == D2.
"""

import numpy as np
import pytest

from chipfire.graph import (
    Divisor,
    FiringScript,
    Graph,
    VertexFunction,
    apply_laplacian,
    apply_laplacian_rational,
    canonical_plus,
    complete_graph,
    cycle_graph,
    fire_set,
    indicator,
    is_linearly_equivalent,
    laplacian,
    outdeg,
    path_graph,
    reduced_laplacian,
)

from corpus import NAMED, RANDOM, SMALL, random_divisor, random_multigraph


# -- Construction and validation ---------------------------------------------

def test_rejects_loop():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0), (0, 1)])


def test_rejects_out_of_range_vertex():
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])


def test_rejects_disconnected():
    with pytest.raises(ValueError):
        Graph(4, [(0, 1), (2, 3)])


def test_rejects_empty_vertex_set():
    with pytest.raises(ValueError):
        Graph(0, [])


def test_single_vertex_graph():
    G = Graph(1, [])
    assert G.n == 1 and G.m == 0 and G.genus() == 0


def test_edges_normalized_order_kept():
    G = Graph(3, [(1, 0), (2, 1), (2, 0)])
    assert G.edges == ((0, 1), (1, 2), (0, 2))


def test_parallel_edges_counted():
    G = Graph(2, [(0, 1), (1, 0), (0, 1)])
    assert G.m == 3
    assert G.degree(0) == 3 and G.degree(1) == 3
    assert G.genus() == 2


def test_neighbors_and_incident():
    G = Graph(3, [(0, 1), (0, 1), (1, 2)])
    assert list(G.neighbors(1)) == [0, 0, 2]
    assert sorted(G.incident(1)) == [0, 1, 2]


def test_eq_and_hash():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(1, 0), (2, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != Graph(3, [(0, 1), (0, 2)])


def test_genus_matches_m_minus_n_plus_1():
    for G in SMALL + RANDOM:
        assert G.genus() == G.m - G.n + 1


# -- Divisors and scripts ------------------------------------------------------

def test_divisor_degree_and_arithmetic():
    D = Divisor((2, -1, 0))
    E = Divisor((0, 1, 1))
    assert D.degree == 1
    assert (D + E) == Divisor((2, 0, 1))
    assert (D - E) == Divisor((2, -2, -1))


def test_divisor_effective_with_skip():
    D = Divisor((-1, 0, 2))
    assert not D.is_effective()
    assert D.is_effective(skip=0)
    assert not D.is_effective(skip=2)


def test_divisor_hashable():
    assert len({Divisor((1, 0)), Divisor((1, 0)), Divisor((0, 1))}) == 2


def test_firing_script_normalized_at_q():
    s = FiringScript((5, 7, 5), q=0)
    assert s.values == (0, 2, 0)
    assert s.q == 0


# -- Laplacian -----------------------------------------------------------------

def test_laplacian_structure():
    for G in SMALL + RANDOM:
        Q = laplacian(G)
        assert np.array_equal(Q, Q.T)
        assert np.all(Q.sum(axis=1) == 0)
        assert all(Q[v, v] == G.degree(v) for v in G.vertices)


def test_laplacian_offdiagonal_multiplicity():
    G = Graph(2, [(0, 1), (0, 1), (0, 1)])
    Q = laplacian(G)
    assert Q[0, 1] == -3 and Q[0, 0] == 3


def test_reduced_laplacian_shape():
    G = complete_graph(4)
    Qq = reduced_laplacian(G, 2)
    assert Qq.shape == (3, 3)
    full = laplacian(G)
    keep = [0, 1, 3]
    assert np.array_equal(Qq, full[np.ix_(keep, keep)])


def _laplacian_by_loop(G):
    Q = np.zeros((G.n, G.n), dtype=np.int64)
    for u, v in G.edges:
        Q[u, u] += 1
        Q[v, v] += 1
        Q[u, v] -= 1
        Q[v, u] -= 1
    return Q


def test_laplacians_match_the_per_edge_loop():
    for G in SMALL + RANDOM + [random_multigraph(40, 80, np.random.default_rng(5))]:
        want = _laplacian_by_loop(G)
        Q = laplacian(G)
        assert Q.dtype == np.int64 and np.array_equal(Q, want)
        for q in G.vertices:
            keep = [v for v in G.vertices if v != q]
            Qq = reduced_laplacian(G, q)
            assert Qq.dtype == np.int64
            assert np.array_equal(Qq, want[np.ix_(keep, keep)])
            Fq = reduced_laplacian(G, q, np.float64)
            assert Fq.dtype == np.float64
            assert np.array_equal(Fq, want[np.ix_(keep, keep)])


def test_apply_laplacian_matches_matrix():
    rng = np.random.default_rng(7)
    for G in SMALL[:12] + RANDOM[:6]:
        f = [int(rng.integers(-4, 5)) for _ in range(G.n)]
        got = apply_laplacian(G, VertexFunction(f))
        want = laplacian(G) @ np.array(f)
        assert list(got) == list(want)


def test_apply_laplacian_rational_fraction_input():
    from fractions import Fraction

    G = complete_graph(3)
    vals = apply_laplacian_rational(G, [Fraction(1, 3), 0, 0])
    assert vals == [Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3)]


def test_indicator():
    assert indicator(4, {1, 3}).values == (0, 1, 0, 1)


def test_fire_set_oracle():
    # firing {0, 1} on the triangle sends one chip from each to vertex 2
    G = complete_graph(3)
    assert fire_set(G, Divisor((1, 1, 0)), {0, 1}) == Divisor((0, 0, 2))


def test_fire_set_moves_cut_edges_only():
    rng = np.random.default_rng(11)
    for G in RANDOM[:8]:
        D = random_divisor(G.n, rng)
        A = {v for v in G.vertices if rng.integers(0, 2)}
        E = fire_set(G, D, A)
        assert E.degree == D.degree
        for v in G.vertices:
            cut = sum(1 for w in G.neighbors(v) if (v in A) != (w in A))
            if v in A:
                assert E[v] == D[v] - cut
            else:
                assert E[v] == D[v] + cut


def test_outdeg():
    G = complete_graph(4)
    assert outdeg(G, {0, 1}, 0) == 2
    with pytest.raises(ValueError):
        outdeg(G, {0, 1}, 2)


# -- Linear equivalence ----------------------------------------------------------

def test_linear_equivalence_roundtrip():
    rng = np.random.default_rng(3)
    for G in SMALL[3:15] + RANDOM[:8]:
        D = random_divisor(G.n, rng)
        f = FiringScript([int(rng.integers(-3, 4)) for _ in range(G.n)], q=0)
        E = D - apply_laplacian(G, f)
        s = is_linearly_equivalent(G, D, E, 0)
        assert s is not None
        assert D - apply_laplacian(G, s) == E


def test_linear_equivalence_degree_mismatch():
    G = complete_graph(3)
    assert is_linearly_equivalent(G, Divisor((1, 0, 0)), Divisor((1, 1, 0)), 0) is None


def test_linear_equivalence_negative_case():
    # (1,0,0) and (0,1,0) lie in different classes on the triangle:
    # the Jacobian has order 3 and these differ by a nonzero element.
    G = complete_graph(3)
    assert is_linearly_equivalent(G, Divisor((1, 0, 0)), Divisor((0, 1, 0)), 0) is None


def test_linear_equivalence_same_divisor():
    G = cycle_graph(5)
    D = Divisor((2, 0, 0, -1, 0))
    s = is_linearly_equivalent(G, D, D, 0)
    assert s is not None and set(s.values) == {0}


# -- Builders --------------------------------------------------------------------

def test_builders():
    assert complete_graph(4).m == 6
    assert cycle_graph(5).m == 5
    assert path_graph(4).m == 3
    assert cycle_graph(2).m == 2  # doubled edge


def test_canonical_plus_oracle():
    assert canonical_plus(complete_graph(3)) == Divisor((1, 1, 1))
    G = path_graph(3)
    assert canonical_plus(G) == Divisor((0, 1, 0))
    for H in RANDOM[:6]:
        K = canonical_plus(H)
        assert K.degree == 2 * H.m - H.n
        assert all(K[v] == H.degree(v) - 1 for v in H.vertices)
