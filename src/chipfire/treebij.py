"""Bijection between q-reduced divisors and spanning trees.

Both directions are edge-burning processes driven by the global edge
index: repeatedly take the smallest unprocessed edge with exactly one
endpoint reached.  Going divisor -> tree, a vertex joins when its chip
count equals the number of already-processed edges at it; going tree ->
divisor, tree edges force the join and the processed-edge count is
recorded as the chip count.  Non-tree edges split into externally active
ones (never processed) and passive ones (processed but not in the tree).
The burns keep their crossing edges on a min-heap, so each direction costs
O(m log m) and is one burn: going divisor -> tree, the edge scan is itself
Dhar's test, as it stalls exactly on a divisor that is not q-reduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import _kernels
from .graph import Divisor, check_divisor, check_vertex


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree by edge indices, with its external activity split."""

    tree_edges: frozenset
    ext_active: frozenset
    ext_passive: frozenset

    @property
    def processed_edges(self):
        """The set R of edges consumed by the burning process: T u passive."""
        return self.tree_edges | self.ext_passive


def _find(parent, x):
    """Root of x in the union-find forest `parent`, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def is_spanning_tree(G, edge_indices):
    """True iff the index set is acyclic and touches every vertex."""
    edge_indices = set(edge_indices)
    if len(edge_indices) != G.n - 1:
        return False
    m = G.m
    if any(not (0 <= e < m) for e in edge_indices):
        return False
    parent = list(range(G.n))
    for e in edge_indices:
        u, v = G.edges[e]
        ru, rv = _find(parent, u), _find(parent, v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def enumerate_spanning_trees(G):
    """Brute-force iterator over all spanning trees as frozensets of indices."""
    for combo in combinations(range(G.m), G.n - 1):
        if is_spanning_tree(G, combo):
            yield frozenset(combo)


def external_activity(G, tree_edges):
    """Independent split of non-tree edges into (active, passive, count).

    An edge e not in T is externally active iff e has the largest index in
    the unique cycle of T + e.  That cycle is e plus the tree path between
    its ends, the only path in T that joins them, so e is active iff the
    tree edges of smaller index already join its ends.  One union-find pass
    over the edges in index order, joining each tree edge, decides every e.
    """
    tree_edges = frozenset(tree_edges)
    if not is_spanning_tree(G, tree_edges):
        raise ValueError("edge set is not a spanning tree")
    parent = list(range(G.n))
    active = set()
    passive = set()
    for e, (u, v) in enumerate(G.edges):
        ru, rv = _find(parent, u), _find(parent, v)
        if e in tree_edges:
            parent[ru] = rv
        elif ru == rv:
            active.add(e)
        else:
            passive.add(e)
    return frozenset(active), frozenset(passive), len(active)


def divisor_to_tree(G, q, D):
    """Burn a q-reduced divisor into its spanning tree.

    Refuses a q or a divisor size that does not fit G up front.  The burn
    is its own reducedness test: a vertex joins on its (D(v) + 1)-th
    processed edge, so the fire reaches every vertex exactly when D passes
    Dhar's criterion, and a stalled fire raises ValueError.  The returned
    tree carries the activity split read off the burn: active = never
    processed, passive = processed but not kept.
    """
    check_vertex(G, q)
    check_divisor(G, D)
    tree, in_r = _kernels.tree_from_reduced(G, list(D), q)
    if tree is None:
        raise ValueError("divisor is not q-reduced")
    tree_set = frozenset(tree)
    active, passive = [], []
    for e, processed in enumerate(in_r):
        if not processed:
            active.append(e)
        elif e not in tree_set:
            passive.append(e)
    return SpanningTree(
        tree_edges=tree_set,
        ext_active=frozenset(active),
        ext_passive=frozenset(passive),
    )


def tree_to_divisor(G, q, tree, d=None):
    """Burn a spanning tree into the q-reduced divisor of degree d.

    `tree` is a SpanningTree or an edge-index set; d defaults to the genus
    g = m - n + 1, for which the chip count at q equals the external
    activity of the tree.  The edge set must be n - 1 distinct indices in
    range; the burn then certifies the rest, since n - 1 edges whose burn
    reaches every vertex form a spanning tree.  Raises ValueError otherwise.
    """
    check_vertex(G, q)
    edges = tree.tree_edges if isinstance(tree, SpanningTree) else frozenset(tree)
    a, _in_r = _kernels.divisor_from_tree(G, _tree_mask(G, edges), q)
    if a is None:
        raise ValueError("edge set is not a spanning tree")
    if d is None:
        d = G.genus()
    a[q] = d - sum(a)  # the burn leaves a[q] = 0
    return Divisor(a)


def _tree_mask(G, edges):
    """Edge mask of n - 1 distinct in-range indices; ValueError otherwise."""
    if len(edges) != G.n - 1:
        raise ValueError("edge set is not a spanning tree")
    m = G.m
    mask = [False] * m
    for e in edges:
        if not 0 <= e < m:
            raise ValueError("edge set is not a spanning tree")
        mask[e] = True
    return mask
