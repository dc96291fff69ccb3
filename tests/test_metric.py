"""Metric graphs, tropical functions and metric reduction.

Core claims:
    - GraphPoint canonicalization folds edge endpoints onto vertices and
      MetricDivisor arithmetic is exact on sparse point supports.
    - TropicalFunction validates integer slopes and breakpoint order and
      keeps only the breakpoints where the slope changes;
      metric_laplacian of a distance function from q is (far point) - (q).
    - metric_dhar certifies reducedness; stalled components carry their
      length and cut data.
    - metric_make_effective returns (E, f) with E = D + Delta(f) effective
      off q (a hand-derived oracle here; the bounds are property-tested in
      test_metric_make_effective.py); metric_reduce terminates with an exact
      per-move b_q drop of l(X) eps + cut/2 eps^2 and a script reproducing
      the result.
    - On unit edge lengths the metric machinery agrees with the
      combinatorial one: same j tables, same reduced divisors.  With lengths
      in (1/N)Z, metric_reduce of a divisor on the 1/N grid is reduce on the
      N-fold subdivision.
    - The reduced divisor minimizes b_q among random equivalent divisors
      that stay effective off q.
    - Every output of metric_make_effective and metric_reduce on the METRIC
      corpus is pinned by one digest, and the move logs by another.  The
      q-reduced divisors alone are pinned by a third, and the move log of
      the one effective single-component case by a fourth; both were
      computed with the level-move make-effective step this one replaced.
      The exact potentials j, r, E_q and b_q on the METRIC corpus are pinned
      by a fifth digest.
"""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from chipfire.graph import Divisor, Graph, complete_graph, cycle_graph, path_graph
from chipfire.metric import (
    GraphPoint,
    MetricDivisor,
    MetricGraph,
    TropicalFunction,
    divisor_to_metric,
    metric_dhar,
    metric_laplacian,
    metric_make_effective,
    metric_potentials,
    metric_reduce,
    unit_metric,
)
from chipfire.potential import j_function
from chipfire.reduction import reduce as reduce_divisor

from corpus import METRIC, RANDOM, SMALL, random_divisor

METRIC_RESULT_DIGEST = "100767168180b3bbd325f045c8a11b09b3248b8785f1323279caac81c3f29eee"
METRIC_LOG_DIGEST = "d8d6f88c030c304727363f7787d9e6bf1de28abaa2d622b4ef50ae692cbc3e3c"
# METRIC cases not effective off q where every move of the reduction met
# exactly one stalled component; there the whole move log is fixed by the
# move rule and the make-effective output
METRIC_SINGLE_COMPONENT = (
    0, 1, 2, 3, 4, 7, 8, 10, 12, 13, 15, 17, 19, 20, 21, 23, 25, 29, 30, 32
)
# The q-reduced divisor is unique, so this digest over the results alone
# holds for any correct reduction, whatever its moves
METRIC_REDUCED_DIGEST = "fffe2b5db8de95e23b70fbcacc550722dea8b244145dc847a2da3088bf068eb6"
# METRIC case 18 is effective off q, so its reduction is Luo moves from D
# itself, and this log is fixed by the move rule alone
METRIC_EFFECTIVE_CASE = 18
METRIC_EFFECTIVE_LOG_DIGEST = "80213fbe95a8ebe07400ad3411eb6308ab8887933c69c76cbba020cc4ef3d554"
# j and r over every ordered pair of up to six points per METRIC case (four
# points of supp(D), vertex 0 and q), r to q, E_q(D) and b_q(D)
METRIC_POTENTIAL_DIGEST = "61fb2f2543bb3dd6a224130ceb42f6447e360180310b167effc0f1995e4ab8de"


def segment():
    """Unit segment: vertices q = 0 and a = 1 joined by one length-1 edge."""
    return MetricGraph(path_graph(2), [1])


def _vp(i):
    return GraphPoint.vertex(i)


# -- Points and divisors -----------------------------------------------------------

def test_point_canonicalization():
    gamma = segment()
    assert gamma.point(0, 0) == _vp(0)
    assert gamma.point(0, 1) == _vp(1)
    mid = gamma.point(0, Fraction(1, 2))
    assert mid.kind == "e" and mid.offset == Fraction(1, 2)
    with pytest.raises(ValueError):
        gamma.point(0, 2)


def test_point_ordering_vertices_first():
    gamma = segment()
    pts = sorted([gamma.point(0, Fraction(1, 3)), _vp(1), _vp(0)])
    assert pts[0] == _vp(0) and pts[1] == _vp(1)


def test_metric_graph_validation():
    with pytest.raises(ValueError):
        MetricGraph(path_graph(2), [0])
    with pytest.raises(ValueError):
        MetricGraph(path_graph(2), [1, 1])
    assert segment().total_length == 1


def test_metric_divisor_basics():
    gamma = segment()
    D = MetricDivisor({_vp(0): 2, gamma.point(0, Fraction(1, 2)): -1})
    assert D.degree == 1
    assert D.get(_vp(0)) == 2
    assert D.get(_vp(1)) == 0
    assert not D.is_effective()
    assert D.is_effective(skip=gamma.point(0, Fraction(1, 2)))
    E = D + MetricDivisor({gamma.point(0, Fraction(1, 2)): 1})
    assert E == MetricDivisor({_vp(0): 2})


def test_metric_divisor_merges_duplicate_points():
    gamma = segment()
    D = MetricDivisor([(gamma.point(0, 1), 1), (_vp(1), 2)])
    assert D == MetricDivisor({_vp(1): 3})


def test_divisor_to_metric():
    G = complete_graph(3)
    gamma = unit_metric(G)
    D = divisor_to_metric(gamma, Divisor((1, -2, 0)))
    assert D.get(_vp(0)) == 1 and D.get(_vp(1)) == -2
    assert D.degree == -1


# -- Tropical functions ---------------------------------------------------------------

def test_tropical_validation():
    gamma = segment()
    with pytest.raises(ValueError):
        TropicalFunction(gamma, [0, Fraction(1, 2)])  # slope 1/2
    with pytest.raises(ValueError):
        TropicalFunction(gamma, [0, 1], [((Fraction(3, 2), 1),)])  # offset outside
    with pytest.raises(ValueError):
        TropicalFunction(
            gamma,
            [0, 1],
            [((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 4), Fraction(1, 4)))],
        )  # unordered breakpoints


def test_tropical_evaluate_and_extremes():
    gamma = segment()
    # tent: 0 at both ends, 1/2 in the middle
    f = TropicalFunction(gamma, [0, 0], [((Fraction(1, 2), Fraction(1, 2)),)])
    assert f.evaluate(_vp(0)) == 0
    assert f.evaluate(gamma.point(0, Fraction(1, 2))) == Fraction(1, 2)
    assert f.evaluate(gamma.point(0, Fraction(1, 4))) == Fraction(1, 4)


def test_tropical_construction_keeps_only_kinks():
    gamma = segment()
    # a collinear breakpoint is dropped when the function is built
    line = TropicalFunction(gamma, [0, 1], [((Fraction(1, 3), Fraction(1, 3)),)])
    assert line.breaks == ((),)
    assert line.evaluate(gamma.point(0, Fraction(1, 3))) == Fraction(1, 3)
    # a real kink is kept; of two collinear ones around it only it survives
    quarter, half = Fraction(1, 4), Fraction(1, 2)
    tent = TropicalFunction(
        gamma, [0, 0], [((quarter, quarter), (half, half), (3 * quarter, quarter))]
    )
    assert tent.breaks == (((half, half),),)
    assert TropicalFunction(gamma, [0, 0]).is_zero()


def test_tropical_equality_modulo_pruning():
    gamma = segment()
    plain = TropicalFunction(gamma, [0, 1])
    kinked = TropicalFunction(gamma, [0, 1], [((Fraction(1, 2), Fraction(1, 2)),)])
    assert plain == kinked


def test_metric_laplacian_distance_oracle():
    gamma = segment()
    dist = TropicalFunction(gamma, [0, 1])
    assert metric_laplacian(gamma, dist) == MetricDivisor({_vp(1): 1, _vp(0): -1})


def test_metric_laplacian_degree_zero_and_kinks():
    gamma = segment()
    tent = TropicalFunction(gamma, [0, 0], [((Fraction(1, 2), Fraction(1, 2)),)])
    got = metric_laplacian(gamma, tent)
    assert got.degree == 0
    assert got == MetricDivisor(
        {gamma.point(0, Fraction(1, 2)): 2, _vp(0): -1, _vp(1): -1}
    )


def test_metric_laplacian_matches_combinatorial_on_unit():
    # the operators agree pointwise on unit graphs; only the script
    # conventions differ (combinatorial D - Delta(f), metric D + Delta(f))
    from chipfire.graph import apply_laplacian

    rng = np.random.default_rng(157)
    for G in (complete_graph(4), cycle_graph(5), RANDOM[5]):
        gamma = unit_metric(G)
        f = [int(rng.integers(-3, 4)) for _ in range(G.n)]
        metric_f = TropicalFunction(gamma, f)
        got = metric_laplacian(gamma, metric_f)
        want = apply_laplacian(G, f)
        assert got == divisor_to_metric(gamma, want)


# -- Burning ------------------------------------------------------------------------------

def test_metric_dhar_segment():
    gamma = segment()
    out = metric_dhar(gamma, _vp(0), MetricDivisor({}))
    assert out.reduced
    stalled = metric_dhar(gamma, _vp(0), MetricDivisor({_vp(1): 2}))
    assert not stalled.reduced
    assert len(stalled.components) == 1
    comp = stalled.components[0]
    assert comp.total_length == 0  # the single blocked point
    assert comp.cut_size == 1
    assert comp.points == (_vp(1),)


def test_metric_dhar_rejects_negative_off_q():
    gamma = segment()
    with pytest.raises(ValueError):
        metric_dhar(gamma, _vp(0), MetricDivisor({_vp(1): -1}))


def test_metric_dhar_interior_chip_blocks():
    gamma = segment()
    mid = gamma.point(0, Fraction(1, 2))
    out = metric_dhar(gamma, _vp(0), MetricDivisor({mid: 2}))
    assert not out.reduced
    comp = out.components[0]
    assert mid in comp.points


# -- Making effective ------------------------------------------------------------------------

def test_metric_make_effective_rounded_oracle():
    # model v0 - mid - v1 with two edges of length 1/2 (conductance 2):
    # c(mid) = 4, c(v1) = 2, so D - nu = -(mid) - 2 (v1), whose j_q-potential
    # is x(mid) = -3/2, x(v1) = -5/2; f = -ceil(x) = 2 dist(v0, .), with
    # integral slopes and so no kinks on these 1/k-length edges
    gamma = segment()
    mid = gamma.point(0, Fraction(1, 2))
    D = MetricDivisor({_vp(1): -1, mid: 2})
    E, script = metric_make_effective(gamma, _vp(0), D)
    assert E == MetricDivisor({mid: 2, _vp(1): 1, _vp(0): -2})
    assert script == TropicalFunction(gamma, [0, 2])
    assert E == D + metric_laplacian(gamma, script)


def test_metric_make_effective_noop_when_effective():
    gamma = segment()
    D = MetricDivisor({_vp(1): 3, _vp(0): -2})
    E, script = metric_make_effective(gamma, _vp(0), D)
    assert E == D and script.is_zero()


def test_metric_make_effective_random():
    rng = np.random.default_rng(163)
    G = cycle_graph(4)
    gamma = MetricGraph(G, [1, Fraction(1, 2), Fraction(3, 2), 1])
    pool = [
        GraphPoint.vertex(1),
        GraphPoint.vertex(2),
        gamma.point(0, Fraction(1, 2)),
        gamma.point(2, Fraction(3, 4)),
        gamma.point(3, Fraction(1, 3)),
    ]
    for _ in range(15):
        entries = {p: int(rng.integers(-2, 3)) for p in pool}
        D = MetricDivisor(entries)
        E, script = metric_make_effective(gamma, _vp(0), D)
        assert E == D + metric_laplacian(gamma, script)
        assert E.is_effective(skip=_vp(0))
        assert E.degree == D.degree


# -- Metric reduction --------------------------------------------------------------------------

def test_metric_reduce_segment_oracle():
    gamma = segment()
    D = MetricDivisor({_vp(1): 2})
    report = metric_reduce(gamma, _vp(0), D)
    assert report.result == MetricDivisor({_vp(0): 2})
    assert D + metric_laplacian(gamma, report.script) == report.result
    pots = metric_potentials(gamma, _vp(0))
    assert pots.b(D) == 1
    total_drop = sum(it.drop for it in report.iterations)
    assert total_drop == pots.b(D) - pots.b(report.result)
    for it in report.iterations:
        want = it.component.total_length * it.epsilon
        want += Fraction(it.component.cut_size, 2) * it.epsilon * it.epsilon
        assert it.drop == want
        assert pots.b(it.before) - pots.b(it.after) == it.drop


def test_metric_reduce_result_is_reduced():
    rng = np.random.default_rng(167)
    G = cycle_graph(4)
    gamma = MetricGraph(G, [1, Fraction(1, 2), Fraction(3, 2), 1])
    pool = [
        GraphPoint.vertex(2),
        gamma.point(1, Fraction(1, 4)),
        gamma.point(2, 1),
    ]
    for _ in range(8):
        D = MetricDivisor({p: int(rng.integers(-1, 3)) for p in pool})
        report = metric_reduce(gamma, _vp(0), D)
        assert metric_dhar(gamma, _vp(0), report.result).reduced
        assert D + metric_laplacian(gamma, report.script) == report.result
        assert report.result.degree == D.degree


def test_metric_reduce_eps_ignores_other_components():
    # the fire from q stalls at {0, 1} and at {3, 4}; the first move takes
    # eps = 1, the edge leaving {0, 1}, not half the segment inside {3, 4}
    gamma = unit_metric(path_graph(5))
    q = _vp(2)
    D = MetricDivisor({_vp(1): 1, _vp(3): 1})
    report = metric_reduce(gamma, q, D)
    assert [it.epsilon for it in report.iterations] == [1, 1]
    assert report.result == MetricDivisor({q: 2})
    assert report.script.vertex_values == (1, 1, 2, 1, 1)


def test_metric_reduce_luo_drops_exact():
    gamma = MetricGraph(cycle_graph(3), [1, 1, Fraction(1, 2)])
    D = MetricDivisor({_vp(2): 3, gamma.point(0, Fraction(1, 2)): 1})
    report = metric_reduce(gamma, _vp(0), D)
    pots = metric_potentials(gamma, _vp(0))
    for it in report.iterations:
        assert pots.b(it.before) - pots.b(it.after) == it.drop
        assert it.epsilon > 0
        assert it.after == it.before + (it.after - it.before)  # sparse arithmetic sanity


def test_metric_reduce_least_action_sign():
    # every Luo move attains its maximum at q (q is burnt, so it sits at
    # distance >= eps from the stalled set); hence so does their sum, the
    # script minus the make-effective script.  A difference of piecewise
    # linear functions takes its maximum at a vertex or a breakpoint of one
    # of them
    gamma = MetricGraph(cycle_graph(3), [1, 1, Fraction(1, 2)])
    q = _vp(0)
    D = MetricDivisor({_vp(2): 3, gamma.point(0, Fraction(1, 2)): 1})
    report = metric_reduce(gamma, q, D)
    assert report.iterations
    f, g = report.script, report.make_effective_script
    points = [_vp(v) for v in range(gamma.n)] + [
        gamma.point(e, o)
        for h in (f, g)
        for e, kinks in enumerate(h.breaks)
        for o, _value in kinks
    ]
    moves = [f.evaluate(p) - g.evaluate(p) for p in points]
    assert len(points) > gamma.n
    assert f.evaluate(q) - g.evaluate(q) == max(moves)


# -- Exact potentials ----------------------------------------------------------------------------

def test_segment_potentials_oracle():
    gamma = segment()
    pots = metric_potentials(gamma, _vp(0))
    x = gamma.point(0, Fraction(1, 3))
    y = gamma.point(0, Fraction(3, 4))
    # j(x, y) = min(x, y) on the unit segment grounded at 0
    assert pots.j(x, y) == Fraction(1, 3)
    assert pots.j(x, x) == Fraction(1, 3)
    assert pots.j(_vp(1), y) == Fraction(3, 4)
    # r(x, y) = |x - y|
    assert pots.resistance(x, y) == Fraction(3, 4) - Fraction(1, 3)
    assert pots.resistance(_vp(1)) == 1


def test_unit_metric_j_matches_combinatorial():
    for G in (complete_graph(4), cycle_graph(5)):
        gamma = unit_metric(G)
        q = G.n - 1
        table = j_function(G, q)
        pots = metric_potentials(gamma, _vp(q))
        for p in G.vertices:
            for v in G.vertices:
                assert pots.j(_vp(p), _vp(v)) == table.j(p, v)


def test_unit_metric_reduce_matches_combinatorial():
    rng = np.random.default_rng(173)
    for G in (complete_graph(4), cycle_graph(5), RANDOM[6]):
        gamma = unit_metric(G)
        for _ in range(5):
            D = random_divisor(G.n, rng)
            want = reduce_divisor(G, 0, D).result
            got = metric_reduce(gamma, _vp(0), divisor_to_metric(gamma, D))
            assert got.result == divisor_to_metric(gamma, want)


def _subdivision(gamma, N):
    """(H, points): the graph with a vertex at every point of the 1/N grid
    of gamma, and the point of each vertex of H."""
    points = [_vp(v) for v in gamma.graph.vertices]
    edges = []
    for e, (u, v) in enumerate(gamma.graph.edges):
        steps = gamma.lengths[e] * N
        assert steps.denominator == 1
        chain = [u]
        for k in range(1, steps.numerator):
            points.append(gamma.point(e, Fraction(k, N)))
            chain.append(len(points) - 1)
        edges.extend(zip(chain, chain[1:] + [v]))
    return Graph(len(points), edges), points


def test_metric_reduce_matches_subdivision():
    # lengths in (1/N)Z and D on the 1/N grid: the q-reduced divisor is the
    # combinatorial one on the N-fold subdivision (Hladky-Kral-Norine)
    rng = np.random.default_rng(191)
    for G in [g for g in SMALL + RANDOM if g.m]:
        N = int(rng.integers(2, 4))
        gamma = MetricGraph(G, [Fraction(int(rng.integers(1, N + 2)), N) for _ in range(G.m)])
        H, points = _subdivision(gamma, N)
        q = int(rng.integers(0, H.n))
        D = random_divisor(H.n, rng, lo=-1, hi=2)
        want = reduce_divisor(H, q, D).result
        got = metric_reduce(gamma, points[q], MetricDivisor(zip(points, D)))
        assert got.result == MetricDivisor(zip(points, want))


def test_q_energy_matches_combinatorial_on_vertices():
    from chipfire.potential import q_energy

    rng = np.random.default_rng(179)
    G = complete_graph(4)
    gamma = unit_metric(G)
    pots = metric_potentials(gamma, _vp(1))
    for _ in range(10):
        D = random_divisor(G.n, rng)
        assert pots.q_energy(divisor_to_metric(gamma, D)) == q_energy(G, 1, D)


# -- Minimization --------------------------------------------------------------------------------

def _lcm(a, b):
    from math import gcd

    return a // gcd(a, b) * b


def test_reduced_minimizes_b_among_equivalents():
    rng = np.random.default_rng(181)
    G = cycle_graph(4)
    gamma = MetricGraph(G, [1, Fraction(1, 2), Fraction(3, 2), 1])
    q = _vp(0)
    D = MetricDivisor({_vp(2): 2, gamma.point(2, Fraction(1, 4)): 1})
    result = metric_reduce(gamma, q, D).result
    pots = metric_potentials(gamma, q)
    base = pots.b(result)

    # candidate scripts: random vertex plateaus whose slopes stay integral
    L = 1
    for length in gamma.lengths:
        L = _lcm(L, length.numerator)
    tried = 0
    for _ in range(300):
        vv = [L * int(rng.integers(-1, 2)) for _ in range(G.n)]
        f = TropicalFunction(gamma, vv)
        if f.is_zero():
            continue
        cand = result + metric_laplacian(gamma, f)
        if cand == result or not cand.is_effective(skip=q):
            continue
        tried += 1
        assert pots.b(cand) > base
    assert tried >= 3  # the family really produced competitors

    # borrowing at q: k times the cap min(dist(q, .), eps) always leaves the
    # divisor effective off q
    eps = Fraction(1, 4)
    for k in (1, 2):
        breaks = []
        for e, (u, v) in enumerate(G.edges):
            if u == 0:
                breaks.append(((eps, k * eps),))
            elif v == 0:
                breaks.append((((gamma.lengths[e] - eps), k * eps),))
            else:
                breaks.append(())
        values = [0 if i == 0 else k * eps for i in range(G.n)]
        cand = result + metric_laplacian(gamma, TropicalFunction(gamma, values, breaks))
        assert cand.is_effective(skip=q)
        assert pots.b(cand) > base


# -- Pinned outputs ------------------------------------------------------------------------------

def _divisor(D):
    return [[repr(p), w] for p, w in D]


def _function(f):
    return [
        [str(x) for x in f.vertex_values],
        [[[str(o), str(v)] for o, v in b] for b in f.breaks],
    ]


def _metric_record(gamma, q, D):
    E, f = metric_make_effective(gamma, q, D)
    report = metric_reduce(gamma, q, D)
    return {
        "make_effective": [_divisor(E), _function(f)],
        "result": _divisor(report.result),
        "script": _function(report.script),
        "after_make_effective": _divisor(report.after_make_effective),
        "make_effective_script": _function(report.make_effective_script),
        "epsilon": str(sum(it.epsilon for it in report.iterations)),
        "drop": str(sum(it.drop for it in report.iterations)),
    }


def _log_record(gamma, q, D):
    return [
        {
            "points": [repr(p) for p in it.component.points],
            "segments": [[e, str(a), str(b)] for e, a, b in it.component.segments],
            "boundary": [[repr(p), k] for p, k in it.component.boundary],
            "total_length": str(it.component.total_length),
            "cut_size": it.component.cut_size,
            "epsilon": str(it.epsilon),
            "drop": str(it.drop),
            "before": _divisor(it.before),
            "after": _divisor(it.after),
        }
        for it in metric_reduce(gamma, q, D).iterations
    ]


def _digest(records):
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_metric_outputs_match_pinned_digest():
    records = [_metric_record(*case) for case in METRIC]
    assert _digest(records) == METRIC_RESULT_DIGEST


def test_metric_reduced_divisors_match_pinned_digest():
    records = [_divisor(metric_reduce(*case).result) for case in METRIC]
    assert _digest(records) == METRIC_REDUCED_DIGEST


def test_effective_metric_move_log_matches_pinned_digest():
    gamma, q, D = METRIC[METRIC_EFFECTIVE_CASE]
    assert D.is_effective(skip=q)
    assert _digest([_log_record(gamma, q, D)]) == METRIC_EFFECTIVE_LOG_DIGEST


def test_metric_move_logs_match_pinned_digest():
    records = [_log_record(*METRIC[i]) for i in METRIC_SINGLE_COMPONENT]
    assert _digest(records) == METRIC_LOG_DIGEST


def _potential_record(gamma, q, D):
    pots = metric_potentials(gamma, q)
    points = list(dict.fromkeys([*D.support[:4], _vp(0), q]))
    pairs = [(x, y) for x in points for y in points]
    return {
        "points": [repr(p) for p in points],
        "j": [str(pots.j(x, y)) for x, y in pairs],
        "r": [str(pots.resistance(x, y)) for x, y in pairs],
        "r_q": [str(pots.resistance(x)) for x in points],
        "energy": str(pots.q_energy(D)),
        "b": str(pots.b(D)),
    }


def test_metric_potentials_match_pinned_digest():
    records = [_potential_record(*case) for case in METRIC]
    assert _digest(records) == METRIC_POTENTIAL_DIGEST
