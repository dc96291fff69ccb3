"""The heap-driven burns against the lowest-index rescan loops they replaced.

Core claims:
    - On connected multigraphs with up to 60 vertices, parallel edges and
      a shuffled edge order, for every q:
        - the Dhar burn gives the rescan's order on chips from -3 to 4, so
          negative and zero chip counts are covered;
        - divisor_from_tree gives the rescan's chips and R mask on random
          spanning trees;
        - tree_from_reduced gives the rescan's tree and R mask on reduced
          divisors, and the same output on random chip vectors;
        - on a divisor with deg(v) or more chips at some v != q, which is
          never reduced, both stall with (None, None).

The three functions below are the rescan kernels, kept verbatim as the
reference: each rescans the vertex or edge list from index 0 after every
step, so they cost O(n^2) and O(m^2).  The Dhar reference reads CSR arrays
(indptr, nbr), which `_csr` builds from G.neighbors.
"""

from hypothesis import given, settings, strategies as st

from chipfire import _kernels
from chipfire.graph import Graph

from corpus import kruskal_tree


# -- Reference implementations -------------------------------------------------

def _burn(indptr, nbr, d, q):
    n = len(d)
    burnt = [False] * n
    cnt = [0] * n
    order = [q]
    burnt[q] = True
    for k in range(indptr[q], indptr[q + 1]):
        cnt[nbr[k]] += 1
    progress = True
    while progress:
        progress = False
        for v in range(n):
            if not burnt[v] and cnt[v] > d[v]:
                burnt[v] = True
                order.append(v)
                for k in range(indptr[v], indptr[v + 1]):
                    cnt[nbr[k]] += 1
                progress = True
                break
    return order



def tree_from_reduced(G, dvals, q):
    """Burn a reduced divisor into (tree edge list, R mask); None if stalled."""
    eu, ev, n = G._eu, G._ev, G.n
    a = list(dvals)
    m = len(eu)
    in_x = [False] * n
    in_x[q] = True
    reached = 1
    in_r = [False] * m
    rcount = [0] * n
    tree = []
    while reached < n:
        f = -1
        for e in range(m):
            if not in_r[e] and (in_x[eu[e]] != in_x[ev[e]]):
                f = e
                break
        if f < 0:
            return None, None  # stalled: input was not reduced
        t = ev[f] if in_x[eu[f]] else eu[f]
        if a[t] == rcount[t]:
            in_x[t] = True
            reached += 1
            tree.append(f)
        in_r[f] = True
        rcount[eu[f]] += 1
        rcount[ev[f]] += 1
    return tree, in_r


def divisor_from_tree(G, tree_mask, q):
    """Burn a spanning tree into (chip counts with a[q]=0, R mask)."""
    eu, ev, n = G._eu, G._ev, G.n
    m = len(eu)
    in_x = [False] * n
    in_x[q] = True
    reached = 1
    in_r = [False] * m
    rcount = [0] * n
    a = [0] * n
    while reached < n:
        f = -1
        for e in range(m):
            if not in_r[e] and (in_x[eu[e]] != in_x[ev[e]]):
                f = e
                break
        if f < 0:
            raise AssertionError("connected graph ran out of crossing edges")
        if tree_mask[f]:
            t = ev[f] if in_x[eu[f]] else eu[f]
            a[t] = rcount[t]
            in_x[t] = True
            reached += 1
        in_r[f] = True
        rcount[eu[f]] += 1
        rcount[ev[f]] += 1
    return a, in_r


def _csr(G):
    """(indptr, nbr) for the reference _burn, read off G.neighbors."""
    indptr, nbr = [0], []
    for v in G.vertices:
        nbr.extend(G.neighbors(v))
        indptr.append(len(nbr))
    return indptr, nbr


# -- Properties -----------------------------------------------------------------

@st.composite
def _graphs(draw):
    """A connected multigraph on 1-60 vertices: a random spanning tree plus
    up to 2n chords (parallel edges allowed), in a shuffled edge order."""
    n = draw(st.integers(1, 60))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    for _ in range(draw(st.integers(0, 2 * n)) if n > 1 else 0):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 2))
        edges.append((u, v + (v >= u)))
    return Graph(n, draw(st.permutations(edges)))


@st.composite
def _cases(draw):
    """(G, chips in -3..4, an edge order for a spanning tree, v, extra)."""
    G = draw(_graphs())
    chips = draw(st.lists(st.integers(-3, 4), min_size=G.n, max_size=G.n))
    order = draw(st.permutations(range(G.m)))
    v = draw(st.integers(0, G.n - 1))
    extra = draw(st.integers(0, 2))
    return G, chips, order, v, extra


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_cases())
def test_heap_burns_match_the_rescan_loops(case):
    G, chips, order, v, extra = case
    tree = kruskal_tree(G, order)
    mask = [e in tree for e in range(G.m)]
    indptr, nbr = _csr(G)
    for q in range(G.n):
        assert _kernels.burn(G, chips, q) == _burn(indptr, nbr, chips, q)

        a, in_r = _kernels.divisor_from_tree(G, mask, q)
        assert (a, in_r) == divisor_from_tree(G, mask, q)

        burnt_edges, tree_r = _kernels.tree_from_reduced(G, a, q)
        assert (burnt_edges, tree_r) == tree_from_reduced(G, a, q)
        assert frozenset(burnt_edges) == tree

        assert _kernels.tree_from_reduced(G, chips, q) == tree_from_reduced(G, chips, q)

        if v != q:
            over = list(a)
            over[v] = G.deg[v] + extra
            assert _kernels.tree_from_reduced(G, over, q) == (None, None)
            assert tree_from_reduced(G, over, q) == (None, None)
