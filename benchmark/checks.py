"""Output checks for the benchmark, written apart from the chipfire library.

Every checker takes plain data (vertex count, edge list, integer lists) and
raises CheckError when the output it is given is wrong.  Nothing here
imports chipfire: the Laplacian arithmetic, the burn, the union-find and the
tree counts are the benchmark's own, so a fault in the library cannot hide
itself by also breaking its checker.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np


class CheckError(Exception):
    """An output failed an independent check."""


def apply_laplacian(n, edges, f):
    """Q f over Python ints: (Q f)(v) = sum over edges {v, w} of f(v) - f(w)."""
    out = [0] * n
    for u, v in edges:
        d = f[u] - f[v]
        out[u] += d
        out[v] -= d
    return out


def is_q_reduced(n, edges, q, chips):
    """Dhar's criterion: effective off q, and a fire started at q burns all.

    An unburnt vertex catches fire once more of its edges lead to burnt
    vertices than it holds chips.  The queue order differs from the
    library's lowest-index rescans; the burnt set does not depend on it.
    """
    if any(chips[v] < 0 for v in range(n) if v != q):
        return False
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    burnt = [False] * n
    heat = [0] * n
    burnt[q] = True
    queue = deque([q])
    reached = 1
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if burnt[w]:
                continue
            heat[w] += 1
            if heat[w] > chips[w]:
                burnt[w] = True
                reached += 1
                queue.append(w)
    return reached == n


def check_reduction(n, edges, q, divisor, result, script):
    """result = D - Q script and result is q-reduced.

    The q-reduced divisor linearly equivalent to D is unique, so the two
    facts certify the result.
    """
    if len(result) != n or len(script) != n:
        raise CheckError("result or script has the wrong length")
    moved = apply_laplacian(n, edges, list(script))
    if [d - x for d, x in zip(divisor, moved)] != list(result):
        raise CheckError("result differs from D - Q * script")
    if not is_q_reduced(n, edges, q, list(result)):
        raise CheckError("result is not q-reduced")


def check_spanning_tree(n, edges, tree):
    """The edge indices form a spanning tree: n - 1 edges and no cycle."""
    tree = list(tree)
    if len(tree) != n - 1 or len(set(tree)) != n - 1:
        raise CheckError(f"tree has {len(set(tree))} edges, expected {n - 1}")
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in tree:
        if not 0 <= e < len(edges):
            raise CheckError(f"edge index {e} out of range")
        a, b = find(edges[e][0]), find(edges[e][1])
        if a == b:
            raise CheckError(f"edge {e} closes a cycle")
        parent[a] = b


def laplacian_matrix(n, edges):
    Q = np.zeros((n, n))
    for u, v in edges:
        Q[u, u] += 1
        Q[v, v] += 1
        Q[u, v] -= 1
        Q[v, u] -= 1
    return Q


def tree_count(n, edges):
    """Matrix-tree count from a floating-point determinant, rounded.

    Exact while the count stays far below 2**52, which holds for the small
    graphs it is used on; a determinant that is not near an integer raises.
    """
    det = float(np.linalg.det(laplacian_matrix(n, edges)[1:, 1:]))
    count = round(det)
    if abs(det - count) > 1e-6 * max(1.0, abs(det)) or count >= 2**50:
        raise CheckError(f"floating determinant {det!r} is not a safe integer")
    return count


def check_group_order(invariant_factors, n, edges):
    """The Jacobian's order (product of invariant factors) is the tree count."""
    order = math.prod(invariant_factors)
    count = tree_count(n, edges)
    if order != count:
        raise CheckError(f"group order {order} != tree count {count}")


def edge_inclusion_probabilities(n, edges):
    """Kirchhoff: P(e in T) = r(u, v) for a uniform spanning tree T.

    r(u, v) is the effective resistance between the ends of e with unit
    conductances, read off the Moore-Penrose pseudoinverse of Q.
    """
    P = np.linalg.pinv(laplacian_matrix(n, edges))
    return [float(P[u, u] + P[v, v] - 2 * P[u, v]) for u, v in edges]


def check_edge_frequencies(n, edges, trees, z):
    """Every edge's inclusion frequency lies within z binomial sds of r(u, v)."""
    draws = len(trees)
    hits = [0] * len(edges)
    for tree in trees:
        for e in tree:
            hits[e] += 1
    for e, p in enumerate(edge_inclusion_probabilities(n, edges)):
        tol = z * math.sqrt(max(p * (1 - p), 0.0) / draws) + 1e-9
        if abs(hits[e] / draws - p) > tol:
            raise CheckError(
                f"edge {e}: frequency {hits[e] / draws:.4f} vs r = {p:.4f}, "
                f"tolerance {tol:.4f}"
            )


def check_bijection(n, edges, q, tree, divisor, tree_back):
    """tree -> divisor -> tree returns the input; the divisor is the reduced
    divisor of degree genus m - n + 1."""
    if frozenset(tree_back) != frozenset(tree):
        raise CheckError("round trip did not return the input tree")
    if sum(divisor) != len(edges) - n + 1:
        raise CheckError(f"divisor degree {sum(divisor)} != genus")
    if not is_q_reduced(n, edges, q, list(divisor)):
        raise CheckError("divisor is not q-reduced")


def check_metric_result(metric_chips, reduced_chips):
    """The metric reduction equals the certified combinatorial reduction.

    metric_chips is the metric result as a vertex vector, or None when it
    puts chips on edge interiors; with unit edge lengths the q-reduced
    metric divisor of a vertex-supported divisor is the combinatorial one.
    """
    if metric_chips is None:
        raise CheckError("metric result has chips inside an edge")
    if list(metric_chips) != list(reduced_chips):
        raise CheckError("metric result differs from the combinatorial reduction")
