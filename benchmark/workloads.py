"""The four workloads: seeded inputs, the timed operation and its check.

Every input comes from a string-seeded ``random.Random`` stream, so the
same ``--seed`` gives the same inputs whatever PYTHONHASHSEED is.  Operation
i of a run draws from the stream ``<workload>/<seed>/<i>``; the warm-up
operations of set-up repetition r draw from ``<workload>/<seed>/warmup<r>/<j>``,
so no warm-up input is ever timed.  The README says why each workload
exists and what it is made of.
"""

from __future__ import annotations

import random

import chipfire
from chipfire.graph import Divisor, Graph

import checks


def random_multigraph(n, m, rng):
    """A random spanning tree plus m - n + 1 random non-loop edges."""
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return edges


def random_spanning_tree(n, edges, rng):
    """Kruskal's algorithm on a random edge order (not uniform; need not be)."""
    order = list(range(len(edges)))
    rng.shuffle(order)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for e in order:
        a, b = find(edges[e][0]), find(edges[e][1])
        if a != b:
            parent[a] = b
            tree.append(e)
    return frozenset(tree)


class Workload:
    """One workload.  Subclasses set the sequence rate and warm-up count.

    rate is operations per second as measured when the benchmark was added;
    a run attempts round(seconds * rate) operations (at least 40), so every
    commit times the same sequence of inputs.
    """

    rate = 1.0
    warmup = 1

    def __init__(self, seed):
        """Build what every operation of a run shares, from the run's seed."""

    def make_input(self, rng, i):
        """Input of operation i of a sequence, drawn from its own stream."""
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out):
        raise NotImplementedError

    def final_check(self):
        """A once-per-run check that is not tied to one operation."""


class ReduceFresh(Workload):
    """reduce on distinct random multigraphs, one divisor per graph."""

    rate = 3.5
    warmup = 1
    # Operation i has n = sizes[i % 11] vertices and m = 3n edges.  Cost
    # doubles from n = 40 to 50, so n cycles with i instead of being drawn:
    # every run then holds the same mix of sizes and its percentiles do not
    # move with the seed's draws.
    sizes = range(40, 51)
    small, big = 120, 2**70  # chips per vertex lie in [-span, span]

    def make_input(self, rng, i):
        n = self.sizes[i % len(self.sizes)]
        edges = random_multigraph(n, 3 * n, rng)
        q = rng.randrange(n)
        # Every fourth divisor holds chip counts beyond 2**63.
        span = self.big if i % 4 == 3 else self.small
        chips = [rng.randint(-span, span) for _ in range(n)]
        return edges, Graph(n, edges), q, chips, Divisor(chips)

    def run(self, inp):
        _edges, G, q, _chips, D = inp
        return chipfire.reduce(G, q, D)

    def check(self, inp, out):
        edges, G, q, chips, _D = inp
        checks.check_reduction(
            G.n, edges, q, chips, out.result.coeffs, out.script.values
        )


class SampleTrees(Workload):
    """One K-tree sample_spanning_tree call per operation."""

    rate = 17.0
    warmup = 3
    n, m = 8, 16
    # Operation i draws K = counts[i % 17] trees, cycling for the same
    # reason as ReduceFresh.sizes.
    counts = range(16, 33)
    # Kirchhoff check: a fixed 5-vertex multigraph with a parallel pair,
    # fixed draws and seed, and a z-score fixed before the first run
    # (two-sided p ~ 7e-6 per edge).
    kirchhoff_n = 5
    kirchhoff_edges = (
        (0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (2, 4), (3, 4),
    )
    kirchhoff_draws = 600
    kirchhoff_seed = 20110701
    kirchhoff_z = 4.5

    def make_input(self, rng, i):
        edges = random_multigraph(self.n, self.m, rng)
        q = rng.randrange(self.n)
        count = self.counts[i % len(self.counts)]
        return edges, Graph(self.n, edges), q, rng.getrandbits(63), count

    def run(self, inp):
        _edges, G, q, sample_seed, count = inp
        return chipfire.sample_spanning_tree(G, q, sample_seed, count=count)

    def check(self, inp, out):
        edges, G, q, _sample_seed, count = inp
        if len(out) != count:
            raise checks.CheckError(f"{len(out)} trees, expected {count}")
        for tree in out:
            checks.check_spanning_tree(self.n, edges, tree.tree_edges)
        pres = chipfire.jacobian(G, q)
        checks.check_group_order(pres.invariant_factors, self.n, edges)

    def final_check(self):
        G = Graph(self.kirchhoff_n, self.kirchhoff_edges)
        trees = chipfire.sample_spanning_tree(
            G, 0, self.kirchhoff_seed, count=self.kirchhoff_draws
        )
        for tree in trees:
            checks.check_spanning_tree(
                self.kirchhoff_n, self.kirchhoff_edges, tree.tree_edges
            )
        checks.check_edge_frequencies(
            self.kirchhoff_n,
            self.kirchhoff_edges,
            [tree.tree_edges for tree in trees],
            self.kirchhoff_z,
        )


class BijectionLarge(Workload):
    """tree_to_divisor then divisor_to_tree on one large multigraph."""

    rate = 12.0
    warmup = 3
    n, m = 400, 1200

    def __init__(self, seed):
        super().__init__(seed)
        rng = random.Random(f"bijection_large/{seed}/graph")
        self.edges = random_multigraph(self.n, self.m, rng)
        self.G = Graph(self.n, self.edges)

    def make_input(self, rng, i):
        return random_spanning_tree(self.n, self.edges, rng), rng.randrange(self.n)

    def run(self, inp):
        tree, q = inp
        D = chipfire.tree_to_divisor(self.G, q, tree)
        return D, chipfire.divisor_to_tree(self.G, q, D)

    def check(self, inp, out):
        tree, q = inp
        D, back = out
        checks.check_bijection(
            self.n, self.edges, q, tree, D.coeffs, back.tree_edges
        )


class MetricReduce(Workload):
    """metric_reduce on the unit-length circulant C10(1, 2)."""

    rate = 9.0
    warmup = 3
    n = 10
    total_chips = 150
    negative = -10
    # The Luo move count depends mostly on the graph: random 10-vertex
    # multigraphs spread per-operation cost over 4x.  One vertex-transitive
    # graph (20 edges, every degree 4) keeps the divisor as the only input
    # that varies.
    edges = tuple((i, (i + s) % 10) for s in (1, 2) for i in range(10))

    def __init__(self, seed):
        super().__init__(seed)
        self.G = Graph(self.n, self.edges)
        self.gamma = chipfire.unit_metric(self.G)

    def make_input(self, rng, i):
        q = rng.randrange(self.n)
        chips = [0] * self.n
        for _ in range(self.total_chips):
            chips[rng.randrange(self.n)] += 1
        chips[rng.choice([v for v in range(self.n) if v != q])] = self.negative
        return q, chips, chipfire.divisor_to_metric(self.gamma, Divisor(chips))

    def run(self, inp):
        q, _chips, D = inp
        return chipfire.metric_reduce(self.gamma, q, D)

    def check(self, inp, out):
        q, chips, _D = inp
        combinatorial = chipfire.reduce(self.G, q, Divisor(chips))
        checks.check_reduction(
            self.n, self.edges, q, chips,
            combinatorial.result.coeffs, combinatorial.script.values,
        )
        vec = [0] * self.n
        for point, weight in out.result.entries:
            if point.kind != "v":
                vec = None
                break
            vec[point.index] = weight
        checks.check_metric_result(vec, combinatorial.result.coeffs)


WORKLOADS = {
    "reduce_fresh": ReduceFresh,
    "sample_trees": SampleTrees,
    "bijection_large": BijectionLarge,
    "metric_reduce": MetricReduce,
}
