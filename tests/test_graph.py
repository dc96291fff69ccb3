"""Graph, divisor and Laplacian basics.

Core claims:
    - Graph validates its input (loops, range, connectivity) and normalizes
      edges to (min, max) while keeping their order; a vertex count above
      m + 1 is refused as disconnected before anything is allocated per
      vertex.
    - laplacian is symmetric with zero row sums and degree diagonal, and it,
      reduced_laplacian (int64, every q) and the float64 Q_(q) that
      graph._reduced_laplacian builds for the float floor (every q) equal
      the per-edge loop that fills Q entry by entry.
    - apply_laplacian(G, f) == Q @ f and firing a set moves chips along
      exactly the cut edges.
    - Graph, Divisor, VertexFunction and FiringScript reprs evaluate back
      to equal values with equal hashes; a VertexFunction plus a
      FiringScript takes the left operand's type, and equal values make no
      VertexFunction equal to a FiringScript, compared either way round.
    - is_linearly_equivalent finds an integral script iff one exists and the
      returned script satisfies D1 - Delta(script) == D2.
    - neighbors(v) and incident(v) are tuples listing, in edge-index order,
      the far end and the index of every edge at v, deg(v) entries each,
      on multigraphs with parallel edges and a shuffled edge order.
    - Every public function that takes a base vertex, and each of
      neighbors, incident, degree, outdeg and bfs_distances, refuses q = -1
      and q = n with ValueError("base vertex out of range"), and a float or
      Fraction q with TypeError, whatever table the graph has cached.
"""

from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chipfire.graph import (
    Divisor,
    FiringScript,
    Graph,
    VertexFunction,
    apply_laplacian,
    bfs_distances,
    canonical_plus,
    complete_graph,
    cycle_graph,
    fire_set,
    indicator,
    laplacian,
    outdeg,
    path_graph,
    reduced_laplacian,
    _laplacian_list,
    _reduced_laplacian,
)
from chipfire.potential import j_function
from chipfire.reduction import is_linearly_equivalent

from corpus import NAMED, RANDOM, SMALL, random_divisor, random_multigraph


# -- Construction and validation ---------------------------------------------

def test_rejects_loop():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0), (0, 1)])


def test_rejects_out_of_range_vertex():
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])


def test_rejects_disconnected():
    # two components, vertex 0 isolated, the last vertex isolated; the last
    # two have m >= n - 1, so the search from vertex 0 refuses them
    for n, edges in (
        (4, [(0, 1), (2, 3)]), (3, [(1, 2)]), (3, [(0, 1)]),
        (4, [(0, 1), (0, 1), (2, 3)]), (5, [(0, 1), (1, 2), (0, 2), (3, 4)]),
    ):
        with pytest.raises(ValueError, match="graph must be connected"):
            Graph(n, edges)


def test_rejects_too_few_edges_before_allocating_per_vertex():
    # m < n - 1 is refused before [0] * n, which would not fit in memory
    with pytest.raises(ValueError, match="graph must be connected"):
        Graph(10**12, [])


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


@st.composite
def _multigraphs(draw):
    """A connected multigraph on 1-12 vertices: a random spanning tree plus
    up to 2n chords (parallel edges allowed), in a shuffled edge order."""
    n = draw(st.integers(1, 12))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    for _ in range(draw(st.integers(0, 2 * n)) if n > 1 else 0):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 2))
        edges.append((u, v + (v >= u)))
    return Graph(n, draw(st.permutations(edges)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_multigraphs())
@example(Graph(3, [(0, 1), (0, 1), (1, 2)]))
@example(Graph(1, []))
def test_neighbors_and_incident(G):
    # brute force: each edge, in index order, listed at both of its ends
    scan = {v: ([], []) for v in G.vertices}
    for i, (u, w) in enumerate(G.edges):
        for a, b in ((u, w), (w, u)):
            scan[a][0].append(b)
            scan[a][1].append(i)
    for v in G.vertices:
        nbrs, inc = G.neighbors(v), G.incident(v)
        assert type(nbrs) is tuple and type(inc) is tuple
        assert (list(nbrs), list(inc)) == scan[v]
        assert len(nbrs) == len(inc) == G.deg[v]


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


@pytest.mark.parametrize("q", [-1, 3])
def test_firing_script_refuses_an_out_of_range_base_vertex(q):
    # -1 would normalise at the last vertex and 3 would raise IndexError
    with pytest.raises(ValueError, match="base vertex out of range"):
        FiringScript([1, 2, 3], q)


def test_firing_scripts_add_and_negate_at_their_base_vertex():
    f = FiringScript([1, 2, 3], 0)
    g = FiringScript([4, 0, 9], 0)
    assert f + f == FiringScript([0, 2, 4], 0)
    assert f + g == FiringScript([5, 2, 12], 0)
    assert -f == FiringScript([0, -1, -2], 0)
    assert (-f).q == 0 and (f + g).q == 0
    assert f + -f == FiringScript([0, 0, 0], 0)
    # Delta is linear, so the sum fires what the two scripts fire in turn
    G = complete_graph(3)
    D = Divisor((5, 0, 0))
    assert D - apply_laplacian(G, f + g) == (
        D - apply_laplacian(G, f) - apply_laplacian(G, g)
    )
    with pytest.raises(ValueError, match="different base vertices"):
        f + FiringScript([1, 2, 3], 1)


@pytest.mark.parametrize(
    "x",
    [
        Graph(3, [(0, 1), (1, 2), (0, 2), (0, 1)]),
        Divisor([2, -1, 0]),
        VertexFunction([1, -2, 3]),
        FiringScript([5, 7, 5], 1),
    ],
    ids=["graph", "divisor", "vertex_function", "firing_script"],
)
def test_repr_evaluates_back_to_an_equal_value(x):
    y = eval(repr(x))
    assert type(y) is type(x) and y == x and hash(y) == hash(x)


def test_vertex_functions_and_scripts_mix_by_the_left_operand():
    f, s = VertexFunction([1, 2]), FiringScript([3, 4], 0)  # s is stored as (0, 1)
    assert f[1] == 2 and s[1] == 1
    assert f + s == VertexFunction([1, 3])
    assert s + f == FiringScript([0, 2], 0)
    assert -f == VertexFunction([-1, -2])
    # equal values at a base vertex are still not equal functions
    g = VertexFunction([0, 1])
    assert g.values == s.values and g != s and s != g


@pytest.mark.parametrize(
    "make",
    [
        lambda: Graph(2.9, [(0, 1)]),
        lambda: Graph(2, [(0, 1.5)]),
        lambda: Graph(2, [(Fraction(0), 1)]),
        lambda: Divisor([0.5, 1.9]),
        lambda: Divisor([Fraction(1), 0]),
        lambda: 2.5 * Divisor([1, 2]),
        lambda: Fraction(2) * Divisor([1, 2]),
        lambda: VertexFunction([1.0, 2]),
        lambda: FiringScript([0, Fraction(3, 2)], 0),
    ],
    ids=[
        "graph_n", "graph_endpoint", "graph_endpoint_fraction", "divisor",
        "divisor_fraction", "rmul", "rmul_fraction", "vertex_function",
        "firing_script",
    ],
)
def test_non_integers_are_refused_not_truncated(make):
    with pytest.raises(TypeError):
        make()


def test_numpy_integers_are_accepted():
    G = Graph(np.int64(3), [(np.int64(0), np.int32(1)), (np.uint8(1), 2)])
    assert G == Graph(3, [(0, 1), (1, 2)])
    D = Divisor(np.array([1, -2, 3]))
    assert D == Divisor([1, -2, 3])
    assert all(type(c) is int for c in D)
    assert np.int64(2) * D == Divisor([2, -4, 6])
    f = FiringScript(np.array([4, 5, 6]), np.int64(1))
    assert f.values == (-1, 0, 1) and all(type(x) is int for x in f)
    assert VertexFunction(np.arange(3)).values == (0, 1, 2)


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
            Fq = _reduced_laplacian(G.deg, G._eu, G._ev, q, np.float64)
            assert Fq.dtype == np.float64
            assert np.array_equal(Fq, want[np.ix_(keep, keep)])


def test_apply_laplacian_matches_matrix():
    rng = np.random.default_rng(7)
    for G in SMALL[:12] + RANDOM[:6]:
        f = [int(rng.integers(-4, 5)) for _ in range(G.n)]
        got = apply_laplacian(G, VertexFunction(f))
        want = laplacian(G) @ np.array(f)
        assert list(got) == list(want)


def test_laplacian_list_fraction_input():
    # the Laplacian only adds and subtracts, so Fractions pass through exactly
    G = complete_graph(3)
    vals = _laplacian_list(G, [Fraction(1, 3), 0, 0])
    assert vals == [Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3)]


def test_indicator():
    assert indicator(4, {1, 3}).values == (0, 1, 0, 1)
    # -1 must not set the last vertex, and n must not reach an IndexError
    for v in (-1, 4):
        with pytest.raises(ValueError, match=f"vertex {v} out of range"):
            indicator(4, {v})
    with pytest.raises(ValueError, match="vertex 4 out of range"):
        fire_set(complete_graph(4), Divisor((0, 0, 0, 0)), [4])


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


# -- Base vertex range -------------------------------------------------------

def _base_vertex_calls():
    """(name, call(G, q)) for every public function that takes a base vertex
    or reads one vertex's incidence, on G = C4 with divisors that fit it."""
    from chipfire.jacobian import (
        group_add, jacobian, sample_spanning_tree, to_critical, winnable,
    )
    from chipfire.potential import (
        PotentialTable, b_q, effective_resistance, j_function, pentagon_move,
        q_energy, reduced_inverse,
    )
    from chipfire.reduction import (
        dhar, is_linearly_equivalent, is_reduced, move_bounds,
        random_equivalent, reduce, step_bound_borrows, verify_minimizer,
    )
    from chipfire.treebij import divisor_to_tree, tree_to_divisor

    D = Divisor([1, 0, 0, -1])
    zero = Divisor([0, 0, 0, 0])
    tree = {0, 1, 2}
    return [
        ("neighbors", lambda G, q: G.neighbors(q)),
        ("incident", lambda G, q: G.incident(q)),
        ("degree", lambda G, q: G.degree(q)),
        ("outdeg", lambda G, q: outdeg(G, [q], q)),
        ("bfs_distances", lambda G, q: bfs_distances(G, q)),
        ("reduced_laplacian", lambda G, q: reduced_laplacian(G, q)),
        ("is_linearly_equivalent", lambda G, q: is_linearly_equivalent(G, D, zero, q)),
        ("j_function", lambda G, q: j_function(G, q)),
        ("PotentialTable", lambda G, q: PotentialTable(G, q)),
        ("reduced_inverse", lambda G, q: reduced_inverse(G, q)),
        ("effective_resistance_p", lambda G, q: effective_resistance(G, q, 0)),
        ("effective_resistance_q", lambda G, q: effective_resistance(G, 0, q)),
        ("q_energy", lambda G, q: q_energy(G, q, D)),
        ("b_q", lambda G, q: b_q(G, q, D)),
        ("pentagon_move", lambda G, q: pentagon_move(G, Divisor([0, 0, 1, -2]), q)),
        ("dhar", lambda G, q: dhar(G, q, D)),
        ("is_reduced", lambda G, q: is_reduced(G, q, zero)),
        ("reduce", lambda G, q: reduce(G, q, D)),
        ("random_equivalent", lambda G, q: random_equivalent(G, q, zero, Random(0))),
        ("verify_minimizer", lambda G, q: verify_minimizer(G, q, zero)),
        ("move_bounds", lambda G, q: move_bounds(G, q)),
        ("step_bound_borrows", lambda G, q: step_bound_borrows(G, q, D)),
        ("tree_to_divisor", lambda G, q: tree_to_divisor(G, q, tree)),
        ("divisor_to_tree", lambda G, q: divisor_to_tree(G, q, zero)),
        ("jacobian", lambda G, q: jacobian(G, q)),
        ("sample_spanning_tree", lambda G, q: sample_spanning_tree(G, q, 0)),
        ("group_add", lambda G, q: group_add(G, q, zero, zero)),
        ("winnable", lambda G, q: winnable(G, Divisor([1, 0, 0, 0]), q)),
        ("to_critical", lambda G, q: to_critical(G, q, zero)),
    ]


_BASE_VERTEX_CALLS = _base_vertex_calls()


@pytest.mark.parametrize("q", [-1, 4])
@pytest.mark.parametrize(
    "call", [c for _, c in _BASE_VERTEX_CALLS], ids=[n for n, _ in _BASE_VERTEX_CALLS]
)
def test_out_of_range_base_vertex_is_refused(call, q):
    # -1 must not wrap around to the last vertex, and n must not reach an
    # IndexError, AssertionError or a singular solve deep inside
    G = cycle_graph(4)
    with pytest.raises(ValueError, match="base vertex out of range"):
        call(G, q)


@pytest.mark.parametrize("cached", [False, True], ids=["fresh", "cached"])
@pytest.mark.parametrize("q", [1.0, Fraction(1)], ids=["float", "fraction"])
@pytest.mark.parametrize(
    "call", [c for _, c in _BASE_VERTEX_CALLS], ids=[n for n, _ in _BASE_VERTEX_CALLS]
)
def test_float_base_vertex_is_refused(call, q, cached):
    # q == 1 by value, so a table cached for vertex 1 must not let it through
    G = cycle_graph(4)
    if cached:
        j_function(G, 1)
    with pytest.raises(TypeError):
        call(G, q)


# -- Divisor size ------------------------------------------------------------

def _divisor_size_calls():
    """(name, call(G, D)) for the functions that refuse a divisor of the
    wrong size up front; D is degree zero with D(0) = -1."""
    from chipfire.jacobian import rank_at_least
    from chipfire.metric import divisor_to_metric, unit_metric
    from chipfire.potential import (
        b_q, energy_pairing, j_function, pentagon_move, q_energy, total_energy,
    )
    from chipfire.reduction import random_equivalent
    from chipfire.treebij import divisor_to_tree

    return [
        ("b_q", lambda G, D: b_q(G, 0, D)),
        ("q_energy", lambda G, D: q_energy(G, 0, D)),
        ("total_energy", lambda G, D: total_energy(G, D)),
        ("energy_pairing", lambda G, D: energy_pairing(G, D, D)),
        ("fire_set", lambda G, D: fire_set(G, D, {1})),
        ("pentagon_move", lambda G, D: pentagon_move(G, D, 0)),
        ("table_energy", lambda G, D: j_function(G, 0).energy(D)),
        ("table_b", lambda G, D: j_function(G, 0).b(D)),
        ("rank_at_least", lambda G, D: rank_at_least(G, D, 0)),
        ("divisor_to_metric", lambda G, D: divisor_to_metric(unit_metric(G), D)),
        ("random_equivalent", lambda G, D: random_equivalent(G, 0, D, Random(0))),
        ("divisor_to_tree", lambda G, D: divisor_to_tree(G, 0, D)),
    ]


_DIVISOR_SIZE_CALLS = _divisor_size_calls()


@pytest.mark.parametrize("chips", [[-1, 1, 0], [-1, 1, 0, 0, 0]], ids=["short", "long"])
@pytest.mark.parametrize(
    "call", [c for _, c in _DIVISOR_SIZE_CALLS], ids=[n for n, _ in _DIVISOR_SIZE_CALLS]
)
def test_divisor_of_the_wrong_size_is_refused(call, chips):
    # a short divisor must not be read as zero-padded, and a long one must
    # not reach an IndexError or a strict zip deep inside
    G = complete_graph(4)
    with pytest.raises(ValueError, match="divisor size does not match graph"):
        call(G, Divisor(chips))
    call(G, Divisor([-1, 1, 0, 0]))  # the right size goes through
