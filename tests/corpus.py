"""Shared graph corpus for the test suite.

Three graph tiers and one metric case list:
    - SMALL: every connected simple graph on up to 5 vertices, one per
      isomorphism class (1 + 1 + 2 + 6 + 21 = 31 graphs).
    - NAMED: the standard families the oracles were frozen on.
    - RANDOM: 20 seeded connected multigraphs (parallel edges allowed).
    - METRIC: seeded (gamma, q, D) metric reduction cases on SMALL and RANDOM
      graphs, with unit or rational lengths, chips at interior points, and q
      at a vertex or an interior point.

modular_det is an exact determinant oracle apart from chipfire.exact and
from sympy's elimination: numpy int64 elimination modulo word-size primes,
combined by CRT.  corank_mod is the same elimination's corank modulo one
prime.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import sympy

from chipfire.graph import Graph, Divisor, complete_graph, cycle_graph, path_graph
from chipfire.metric import GraphPoint, MetricDivisor, MetricGraph


def _canonical_form(n, edges):
    """Min over vertex relabelings of the sorted edge multiset."""
    best = None
    for perm in itertools.permutations(range(n)):
        relab = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
        if best is None or relab < best:
            best = relab
    return best


def _connected(n, edges):
    if n == 1:
        return True
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def connected_simple_graphs(n):
    """All connected simple graphs on n labeled vertices, one per iso class."""
    pairs = list(itertools.combinations(range(n), 2))
    seen = set()
    out = []
    for r in range(n - 1, len(pairs) + 1):
        for subset in itertools.combinations(pairs, r):
            if not _connected(n, subset):
                continue
            key = _canonical_form(n, subset)
            if key in seen:
                continue
            seen.add(key)
            out.append(Graph(n, subset))
    return out


def random_multigraph(n, extra, rng):
    """Random spanning tree plus `extra` uniform chords; parallel edges kept."""
    edges = []
    for v in range(1, n):
        edges.append((int(rng.integers(0, v)), v))
    for _ in range(extra):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n - 1))
        if v >= u:
            v += 1
        edges.append((u, v))
    return Graph(n, edges)


def genus_21_multigraph():
    """The benchmark's random_multigraph(10, 30, Random(3)): genus 21."""
    return Graph(10, [
        (1, 0), (2, 0), (3, 1), (4, 3), (5, 4), (6, 0), (7, 4), (8, 0), (9, 7), (4, 8),
        (7, 8), (8, 7), (6, 2), (3, 2), (8, 6), (0, 1), (2, 9), (0, 4), (0, 4), (7, 9),
        (6, 9), (7, 2), (5, 1), (0, 2), (7, 3), (4, 6), (4, 6), (8, 6), (9, 5), (8, 9),
    ])


def tree_plus_edges(n, m, rng):
    """The benchmark's multigraph from a random.Random: vertex i joined to a
    random earlier vertex, then random non-loop edges up to m in total."""
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return Graph(n, edges)


def _det_mod(M, p):
    """det M mod a prime p below 2**31, by numpy int64 Gaussian elimination:
    each product of two residues stays below 2**62."""
    A = np.array(M, dtype=np.int64) % p
    d = 1
    for c in range(len(A)):
        nonzero = np.flatnonzero(A[c:, c])
        if not len(nonzero):
            return 0
        r = c + int(nonzero[0])
        if r != c:
            A[[c, r]] = A[[r, c]]
            d = -d
        pivot = int(A[c, c])
        d = d * pivot % p
        f = A[c + 1:, c] * pow(pivot, -1, p) % p
        A[c + 1:, c:] = (A[c + 1:, c:] - np.outer(f, A[c, c:]) % p) % p
    return d % p


def corank_mod(M, p):
    """n - rank of M mod a prime p below 2**31, by _det_mod's elimination,
    passing over a column with no pivot left."""
    A = np.array(M, dtype=np.int64) % p
    rank = 0
    for c in range(len(A)):
        nonzero = np.flatnonzero(A[rank:, c])
        if not len(nonzero):
            continue
        r = rank + int(nonzero[0])
        A[[rank, r]] = A[[r, rank]]
        f = A[rank + 1:, c] * pow(int(A[rank, c]), -1, p) % p
        A[rank + 1:, c:] = (A[rank + 1:, c:] - np.outer(f, A[rank, c:]) % p) % p
        rank += 1
    return len(A) - rank


def modular_det(M):
    """det M by CRT over word-size primes, past twice the Hadamard bound."""
    bound = 2 * math.prod(math.isqrt(sum(x * x for x in row)) + 1 for row in M)
    x, m, p = 0, 1, 2**31
    while m <= bound:
        p = sympy.prevprime(p)
        t = (_det_mod(M, p) - x) * pow(m, -1, p) % p
        x, m = x + m * t, m * p
    return x - m if 2 * x > m else x


def kruskal_tree(G, order):
    """The spanning tree Kruskal's algorithm takes from an edge-index order,
    as a frozenset of edge indices."""
    parent = list(range(G.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = set()
    for e in order:
        ru, rv = find(G.edges[e][0]), find(G.edges[e][1])
        if ru != rv:
            parent[ru] = rv
            tree.add(int(e))
    return frozenset(tree)


def random_divisor(n, rng, lo=-3, hi=8):
    return Divisor([int(rng.integers(lo, hi + 1)) for _ in range(n)])


def small_corpus():
    graphs = []
    for n in range(1, 6):
        graphs.extend(connected_simple_graphs(n))
    return graphs


def named_corpus():
    return [
        complete_graph(3),
        complete_graph(4),
        cycle_graph(3),
        cycle_graph(4),
        cycle_graph(5),
        cycle_graph(6),
        cycle_graph(7),
        cycle_graph(8),
        path_graph(2),
        path_graph(5),
    ]


def random_corpus(count=20, seed=20240817):
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(count):
        n = int(rng.integers(2, 8))
        extra = int(rng.integers(0, min(6, 13 - n)))
        graphs.append(random_multigraph(n, extra, rng))
    return graphs


SMALL = small_corpus()
NAMED = named_corpus()
RANDOM = random_corpus()


def random_metric_case(G, rng):
    """(gamma, q, D): unit or rational lengths, one interior point per two
    edges, q a vertex or one of the interior points, D in -1..2 on them all."""
    if rng.integers(0, 2):
        lengths = [Fraction(int(rng.integers(1, 4)), int(rng.integers(1, 3))) for _ in range(G.m)]
    else:
        lengths = [1] * G.m
    gamma = MetricGraph(G, lengths)
    interior = []
    for _ in range((G.m + 1) // 2):
        e = int(rng.integers(0, G.m))
        d = int(rng.integers(2, 5))
        interior.append(gamma.point(e, gamma.lengths[e] * int(rng.integers(1, d)) / d))
    pool = [GraphPoint.vertex(v) for v in G.vertices] + interior
    q = pool[int(rng.integers(0, len(pool)))] if rng.integers(0, 2) else pool[0]
    D = MetricDivisor({p: int(rng.integers(-1, 3)) for p in pool})
    return gamma, q, D


def metric_corpus(seed=20261018):
    rng = np.random.default_rng(seed)
    return [random_metric_case(G, rng) for G in SMALL[1::2] + RANDOM if G.m]


METRIC = metric_corpus()
