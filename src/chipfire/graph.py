"""Connected loopless multigraphs, divisors, and chip-firing moves.

A Graph stores an indexed edge list; parallel edges are repeated pairs and
the edge index 0..m-1 is the canonical total order used by the burning
algorithms.  Divisors are integer chip vectors, vertex functions are integer
potentials, and the Laplacian acts by Delta(f)(v) = sum over edges {v,w} of
f(v) - f(w).
"""

from __future__ import annotations

from fractions import Fraction
from operator import index

import numpy as np


class Graph:
    """Finite connected loopless multigraph with indexed edges.

    Vertices are 0..n-1.  Edges are unordered pairs given in a fixed order;
    parallel edges simply repeat.  Loops and disconnected inputs are
    rejected.  n = 1 with no edges is the smallest legal graph.  n and the
    endpoints must be integers (numpy integers too); a float or a Fraction
    raises TypeError instead of being truncated.

    Incidence is built once, per vertex: `neighbors(v)` and `incident(v)`
    return the tuples `_nbrs[v]` and `_inc[v]`, which hold, for each edge at
    v in edge-index order, the vertex across it and the edge's index.

    _table holds the PotentialTable of the last base vertex that a table
    was asked for (None before the first call), by `potential.j_function`
    or by the Jacobian and the tree count, which read its factor of Q_(q).
    """

    __slots__ = ("n", "edges", "deg", "_nbrs", "_inc", "_eu", "_ev", "_table")

    def __init__(self, n, edges):
        n = index(n)
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        norm = []
        for e in edges:
            u, v = e
            u, v = index(u), index(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {e!r} out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            norm.append((min(u, v), max(u, v)))
        # a connected graph has m >= n - 1; refuse before allocating per vertex
        if len(norm) < n - 1:
            raise ValueError("graph must be connected")
        self.n = n
        self.edges = tuple(norm)

        nbrs = [[] for _ in range(n)]
        inc = [[] for _ in range(n)]
        for i, (u, v) in enumerate(self.edges):
            nbrs[u].append(v)
            inc[u].append(i)
            nbrs[v].append(u)
            inc[v].append(i)
        self._nbrs = tuple(map(tuple, nbrs))
        self._inc = tuple(map(tuple, inc))
        self.deg = tuple(map(len, inc))
        # Edge endpoints by index, for the edge-scanning bijection burns.
        self._eu = [u for u, _ in self.edges]
        self._ev = [v for _, v in self.edges]
        self._table = None

        if -1 in bfs_distances(self, 0):
            raise ValueError("graph must be connected")

    @property
    def m(self):
        return len(self.edges)

    @property
    def vertices(self):
        return range(self.n)

    def degree(self, v):
        check_vertex(self, v)
        return self.deg[v]

    def neighbors(self, v):
        """Tuple of the neighbor of v across each incident edge, in
        edge-index order."""
        check_vertex(self, v)
        return self._nbrs[v]

    def incident(self, v):
        """Tuple of the indices of edges incident to v, in increasing order."""
        check_vertex(self, v)
        return self._inc[v]

    def genus(self):
        """First Betti number m - n + 1 (independent cycles)."""
        return self.m - self.n + 1

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph({self.n}, {list(self.edges)!r})"


class Divisor:
    """Integer chip configuration on the vertices of a graph.

    Coefficients must be integers (numpy integers too); a float or a
    Fraction raises TypeError instead of being truncated.
    """

    __slots__ = ("coeffs",)
    # numpy defers its binary operators, so np.int64(2) * D calls __rmul__
    # instead of broadcasting D as an array
    __array_ufunc__ = None

    def __init__(self, coeffs):
        self.coeffs = tuple(map(index, coeffs))

    @property
    def degree(self):
        return sum(self.coeffs)

    def is_effective(self, skip=None):
        """True when every coefficient is >= 0, optionally off one vertex."""
        return all(c >= 0 for v, c in enumerate(self.coeffs) if v != skip)

    def __getitem__(self, v):
        return self.coeffs[v]

    def __len__(self):
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __add__(self, other):
        return Divisor(a + b for a, b in zip(self.coeffs, other.coeffs, strict=True))

    def __sub__(self, other):
        return Divisor(a - b for a, b in zip(self.coeffs, other.coeffs, strict=True))

    def __neg__(self):
        return Divisor(-c for c in self.coeffs)

    def __rmul__(self, k):
        k = index(k)
        return Divisor(k * c for c in self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Divisor) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Divisor({list(self.coeffs)!r})"


class VertexFunction:
    """Integer-valued function on vertices (a firing potential); values
    that are not integers raise TypeError, as in Divisor."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = tuple(map(index, values))

    def __getitem__(self, v):
        return self.values[v]

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __add__(self, other):
        return type(self)(a + b for a, b in zip(self.values, other.values, strict=True))

    def __neg__(self):
        return type(self)(-x for x in self.values)

    def __eq__(self, other):
        return isinstance(other, VertexFunction) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"{type(self).__name__}({list(self.values)!r})"


class FiringScript(VertexFunction):
    """Vertex function normalized to vanish at the base vertex q.

    Adding a constant does not change Delta(f), so scripts are stored in the
    unique representative with f(q) = 0.  q outside 0..len(values)-1 raises
    ValueError.  Scripts at the same q add to the script at that q, and
    negation keeps q; adding scripts at different base vertices raises
    ValueError.
    """

    __slots__ = ("q",)

    def __init__(self, values, q):
        values = list(map(index, values))
        if not (0 <= q < len(values)):
            raise ValueError("base vertex out of range")
        base = values[q]
        super().__init__(x - base for x in values)
        self.q = q

    def __add__(self, other):
        if isinstance(other, FiringScript) and other.q != self.q:
            raise ValueError("scripts have different base vertices")
        return FiringScript(
            [a + b for a, b in zip(self.values, other.values, strict=True)], self.q
        )

    def __neg__(self):
        return FiringScript([-x for x in self.values], self.q)

    def __eq__(self, other):
        return (
            isinstance(other, FiringScript)
            and self.values == other.values
            and self.q == other.q
        )

    def __hash__(self):
        return hash((self.values, self.q))

    def __repr__(self):
        return f"FiringScript({list(self.values)!r}, q={self.q})"


def check_vertex(G, q):
    """Refuse q up front unless it is a vertex of G: ValueError out of range
    (negative indices too), TypeError for a float or Fraction (not truncated)."""
    if not (0 <= index(q) < G.n):
        raise ValueError("base vertex out of range")


def _rational(x):
    """Fraction(x), or x itself when it is exactly a Fraction; a float raises
    TypeError, since its binary value (0.1 is 3602879701896397/2**55) is
    rarely the length, offset or weight meant."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"rational inputs must be exact, got the float {x!r}")
    return Fraction(x)


def check_divisor(G, D):
    """Refuse D up front unless it has one entry per vertex of G."""
    if len(D) != G.n:
        raise ValueError("divisor size does not match graph")


def _laplacian(deg, u, v, dtype):
    """diag(deg) minus 1 at (u[i], v[i]) and (v[i], u[i]) for every i."""
    k = len(deg)
    u = np.asarray(u, dtype=np.intp)
    v = np.asarray(v, dtype=np.intp)
    # minus the adjacency matrix, one count per flat index u k + v and v k + u
    flat = np.concatenate((u * k + v, v * k + u))
    Q = -np.bincount(flat, minlength=k * k).astype(dtype, copy=False)
    Q[:: k + 1] += np.asarray(deg, dtype=dtype)  # the diagonal
    return Q.reshape(k, k)


def laplacian(G):
    """Graph Laplacian Q = D - A as an (n x n) int64 array."""
    return _laplacian(G.deg, G._eu, G._ev, np.int64)


def reduced_laplacian(G, q):
    """Q with row and column q deleted, in int64; rows/cols follow vertex
    order.  Built without the full Q: edges at q count only in the degrees,
    and every other vertex w takes row and column w - (w > q).
    """
    check_vertex(G, q)
    return _reduced_laplacian(G.deg, G._eu, G._ev, q, np.int64)


def _reduced_rows(nbrs, q):
    """Q_(q)'s rows as {column: nonzero entry} dicts, in Python ints, for the
    incidence tuples `nbrs` of a graph (its _nbrs) and a vertex q of it
    (unchecked): vertex v != q has row and column v - (v > q), and the row
    is read off nbrs[v], so no n x n array is built."""
    rows = []
    for v, at_v in enumerate(nbrs):
        if v == q:
            continue
        row = {v - (v > q): len(at_v)}
        for w in at_v:
            if w != q:
                j = w - (w > q)
                row[j] = row.get(j, 0) - 1
        rows.append(row)
    return rows


def _reduced_laplacian(deg, eu, ev, q, dtype):
    """reduced_laplacian in dtype from the degrees and edge endpoints alone."""
    u = np.array(eu, dtype=np.intp)
    v = np.array(ev, dtype=np.intp)
    off = (u != q) & (v != q)
    u, v = u[off], v[off]
    return _laplacian(deg[:q] + deg[q + 1:], u - (u > q), v - (v > q), dtype)


def bfs_distances(G, s):
    """Hop distance from s to every vertex, in vertex order."""
    check_vertex(G, s)
    nbrs = G._nbrs
    dist = [-1] * G.n
    dist[s] = 0
    queue = [s]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for w in nbrs[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def apply_laplacian(G, f):
    """Divisor Delta(f); f is a VertexFunction or any integer sequence."""
    return Divisor(_laplacian_list(G, list(f)))


def _laplacian_list(G, vals):
    """Delta(f) as a list of Python ints, for f given as a list of ints."""
    out = [0] * G.n
    for u, v in G.edges:
        d = vals[u] - vals[v]
        out[u] += d
        out[v] -= d
    return out


def indicator(n, A):
    """Characteristic vector of a vertex set A as a VertexFunction."""
    chi = [0] * n
    for v in A:
        if not (0 <= v < n):
            raise ValueError(f"vertex {v} out of range")
        chi[v] = 1
    return VertexFunction(chi)


def fire_set(G, D, A):
    """Fire every vertex of A once: D - Delta(chi_A).

    Each vertex of A sends one chip along each edge leaving A; edges inside
    A cancel.
    """
    check_divisor(G, D)
    return D - apply_laplacian(G, indicator(G.n, A))


def outdeg(G, A, v):
    """Number of edges from v to vertices outside A; requires v in A."""
    A = set(A)
    if v not in A:
        raise ValueError(f"vertex {v} must belong to the firing set")
    return sum(1 for w in G.neighbors(v) if w not in A)


def complete_graph(n):
    """K_n."""
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n):
    """C_n (n >= 3 simple; n = 2 gives the doubled edge)."""
    if n == 2:
        return Graph(2, [(0, 1), (0, 1)])
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    """Path on n vertices."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def canonical_plus(G):
    """The divisor K+ with deg(v) - 1 chips at every vertex."""
    return Divisor(d - 1 for d in G.deg)
