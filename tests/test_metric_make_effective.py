"""Making a metric divisor effective off q with one rounded j_q-potential.

Core claims:
    - On connected rational metric multigraphs with interior chips and q at
      a vertex or an interior point, metric_make_effective returns (E, f)
      with E = D + Delta(f), f(q) = 0 and E effective off q.  When D is not
      effective off q, and with the model M the subdivision at supp(D) and
      q and c(p) the sum of 1/len + [1/len not an integer] over the model
      edges at p:
        - every model vertex p != q ends with 0 <= E(p) < 2 c(p);
        - every other point of E is a kink of f with exactly one chip, and
          no model edge holds more than one of them.
      When D is effective off q, E = D and f = 0.
    - The cost of metric_reduce no longer follows the chip count: the
      level-move overshoot case (8 chips of deficit on a rational 30-vertex
      graph, 7168 Luo moves before) and c chips against one -1 chip on a
      unit 10-vertex graph (23 to 1122 Luo moves for c = 20 to 1280 before)
      both stay small.
"""

import time
from fractions import Fraction

from hypothesis import given, settings, strategies as st
from numpy.random import default_rng

from chipfire.graph import Graph
from chipfire.metric import (
    GraphPoint,
    MetricDivisor,
    MetricGraph,
    metric_dhar,
    metric_laplacian,
    metric_make_effective,
    metric_reduce,
    unit_metric,
)

from corpus import random_multigraph


def _model(gamma, q, D):
    """(model vertices, model edges as (a, b, edge, length)) of the
    subdivision of gamma at supp(D) and q."""
    offsets = {}
    for p in (q, *D.support):
        if p.kind == "e":
            offsets.setdefault(p.edge, set()).add(p.offset)
    points = [GraphPoint.vertex(v) for v in range(gamma.n)]
    medges = []
    for e, (u, v) in enumerate(gamma.graph.edges):
        stops = [(Fraction(0), GraphPoint.vertex(u))]
        stops += [(o, gamma.point(e, o)) for o in sorted(offsets.get(e, ()))]
        stops.append((gamma.lengths[e], GraphPoint.vertex(v)))
        points += [p for _o, p in stops[1:-1]]
        for (o1, a), (o2, b) in zip(stops, stops[1:]):
            medges.append((a, b, e, o1, o2))
    return points, medges


@st.composite
def _cases(draw):
    """(gamma, q, D): a connected multigraph on 2-6 vertices with lengths
    k/d, up to two interior points per edge, q a vertex or an interior
    point, chips in -6..6 scaled by 1 or 25."""
    n = draw(st.integers(2, 6))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    for _ in range(draw(st.integers(0, n))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 2))
        edges.append((u, v + (v >= u)))
    lengths = [
        Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 4))) for _ in edges
    ]
    gamma = MetricGraph(Graph(n, edges), lengths)
    pool = [GraphPoint.vertex(v) for v in range(n)]
    for e in range(gamma.m):
        for _ in range(draw(st.integers(0, 2))):
            d = draw(st.integers(2, 5))
            pool.append(gamma.point(e, lengths[e] * draw(st.integers(1, d - 1)) / d))
    pool = sorted(set(pool))
    q = draw(st.sampled_from(pool))
    scale = draw(st.sampled_from([1, 25]))
    D = MetricDivisor({p: scale * draw(st.integers(-6, 6)) for p in pool})
    return gamma, q, D


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_cases())
def test_rounded_potential_bounds(case):
    gamma, q, D = case
    E, f = metric_make_effective(gamma, q, D)
    assert E == D + metric_laplacian(gamma, f)
    assert E.is_effective(skip=q)
    assert f.evaluate(q) == 0
    if D.is_effective(skip=q):
        assert E == D and f.is_zero()
        return
    points, medges = _model(gamma, q, D)
    c = dict.fromkeys(points, Fraction(0))
    for a, b, _e, o1, o2 in medges:
        k = 1 / (o2 - o1)
        c[a] += k + (k.denominator != 1)
        c[b] += k + (k.denominator != 1)
    for p in points:
        if p != q:
            assert 0 <= E.get(p) < 2 * c[p]
    kinks = [(p, w) for p, w in E if p not in c]
    assert all(w == 1 for _p, w in kinks)
    for _a, _b, e, o1, o2 in medges:
        assert sum(1 for p, _w in kinks if p.edge == e and o1 < p.offset < o2) <= 1


def test_level_move_overshoot_case_is_fast():
    # 8 chips of deficit off q; the level moves left 13,068 chips and the
    # reduction took 7168 Luo moves in about 20 s
    rng = default_rng(30)
    G = random_multigraph(30, 30, rng)
    gamma = MetricGraph(G, [Fraction(int(rng.integers(1, 4)), 2) for _ in range(G.m)])
    entries = {GraphPoint.vertex(v): int(rng.integers(-1, 2)) for v in range(G.n)}
    for e in range(0, G.m, 4):
        entries[gamma.point(e, gamma.lengths[e] / 3)] = 1
    q, D = GraphPoint.vertex(0), MetricDivisor(entries)
    assert -sum(w for p, w in D if w < 0 and p != q) == 8
    start = time.perf_counter()
    report = metric_reduce(gamma, q, D)
    assert time.perf_counter() - start < 2.0
    assert len(report.iterations) < 1000
    assert metric_dhar(gamma, q, report.result).reduced


def test_luo_moves_flat_in_the_chip_count():
    gamma = unit_metric(random_multigraph(10, 10, default_rng(5)))
    q = GraphPoint.vertex(0)
    for c in (20, 80, 320, 1280):
        D = MetricDivisor({GraphPoint.vertex(3): c, GraphPoint.vertex(7): -1})
        report = metric_reduce(gamma, q, D)
        assert len(report.iterations) < 20
        assert metric_dhar(gamma, q, report.result).reduced
