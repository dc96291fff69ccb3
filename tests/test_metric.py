"""Metric graphs, tropical functions and metric reduction.

Core claims:
    - GraphPoint canonicalization folds edge endpoints onto vertices, which
      are the metric graph's own vertex points, and MetricDivisor arithmetic
      is exact on sparse point supports: a sum or difference of random
      divisors is the constructor's reading of the summed weights, int
      weights in canonical order, full cancellation included.
    - GraphPoint, MetricGraph and MetricDivisor reprs evaluate back to
      equal values with equal hashes, point comparisons agree with sorted,
      and a TropicalFunction's repr is pinned.
    - TropicalFunction validates integer slopes and breakpoint order,
      refuses a float value or offset with TypeError, and keeps only the
      breakpoints where the slope changes; its slopes, read in integer
      ticks, match a Fraction reading of hypothesis anchors on rational
      edges, one edge or two with the one fault on either, kinks, slopes
      and refusals alike;
      metric_laplacian of a distance function from q is (far point) - (q),
      and a collinear breakpoint carries no chip.
    - Every metric operation refuses a vertex or edge index out of range
      and an edge offset not strictly inside its edge, as q or in supp(D).
    - TropicalFunction.evaluate refuses a point off Gamma with ValueError
      and reads an edge point at an end of its edge as that vertex.
    - metric_dhar certifies reducedness; stalled components carry their
      length and cut data.
    - metric_make_effective returns (E, f) with E = D + Delta(f) effective
      off q (a hand-derived oracle here; the bounds are property-tested in
      test_metric_make_effective.py); metric_reduce terminates with an exact
      per-move b_q drop of l(X) eps + cut/2 eps^2 and a script reproducing
      the result, or refuses with ValueError past its budget of Luo moves,
      naming the input's common denominator N.
      The script summed from the move log is the potential of (result - D)
      from one exact solve, shifted to sum(eps) at q, on the METRIC corpus,
      on rational lengths where moves create points, and on hypothesis
      graphs with rational lengths and interior chips; the only exact
      substitution metric_reduce makes is make-effective's, and a wrong
      summed value fails the exact check D + Delta(script) == result.  The
      script it sums in integer ticks equals a Fraction re-sum of its own
      move log on the METRIC corpus, the C10(1, 2) inputs, the triangle, the
      kink input and a 50-vertex input with rational lengths; on the last
      two some moves' X holds edge points and segments next to edge sites.
      On those cases but the kink input, every eps and every point a move
      leaves a chip on is a whole number of ticks of the first model's
      denominator N, and both scripts, rebuilt by the public constructor
      from their own values and kinks, are equal with equal slopes.
    - metric_laplacian, which sums vertex slopes in place and reads kinks
      edge by edge, equals the dict-and-sort reading of every script and
      make-effective script of those cases, and of hypothesis functions
      with kinks on trees and cycles of rational edges.  The one-walk
      _components yields, for every stalled burn replayed from those
      cases' move logs, every component in the same order with the same
      cut and T as the set-and-dict walk it replaced.
    - metric_reduce starts its moves on the model at q and make-effective's
      support and takes a new one only when the interior points of q and
      the support change; a
      model with no interior point is Gamma's vertex model, built once per
      Gamma (one model and one factor for ten reductions on a unit-length
      graph), and a model with one is built for its caller; every logged
      eps, drop and component length is an exact Fraction, and a point a
      move puts inside an edge is the canonical point there.  What a model
      keeps leaks nothing between calls: make-effective and reduce at every
      vertex q of the C10(1, 2) and METRIC cases on one Gamma report what
      they report on a fresh copy, and every model of the 50-vertex input
      holds each edge of Gamma as length * den ticks, its model edges' sum.
    - The vertex model's factor, grounded at vertex 0, gives at every base
      vertex q the pair of a single-column solve grounded at q; a dropped
      Gamma frees its vertex model and factor at once.
    - On unit edge lengths the metric machinery agrees with the
      combinatorial one: same j tables, same reduced divisors.  With lengths
      in (1/N)Z, metric_reduce of a divisor on the 1/N grid is reduce on the
      N-fold subdivision.
    - On a triangle with coprime rational lengths and an interior point,
      r(u, v) = l (l' + l'') / (l + l' + l'') for the two arcs l and l' + l''
      between u and v, and j_q(x, x) = r(x, q).
    - The reduced divisor minimizes b_q among random equivalent divisors
      that stay effective off q.
    - Every output of metric_make_effective and metric_reduce on the METRIC
      corpus is pinned by one digest, and the move logs by another.  The
      q-reduced divisors alone are pinned by a third, and the move log of
      the one effective single-component case by a fourth; both were
      computed with the level-move make-effective step this one replaced.
      The exact potentials j, r, E_q and b_q on the METRIC corpus are pinned
      by a fifth digest, and a sixth pins the whole move log of every METRIC
      case, of five unit-length C10(1, 2) inputs and of a 50-vertex input
      with rational lengths.
"""

import gc
import hashlib
import json
import random
import weakref
from decimal import Decimal
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chipfire import _kernels, exact, metric
from chipfire.graph import (
    Divisor, Graph, _rational, complete_graph, cycle_graph, path_graph,
)
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

from corpus import METRIC, RANDOM, SMALL, random_divisor, tree_plus_edges

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
# the whole move log of every METRIC case, of the five C10(1, 2) inputs of
# the model-count test and of the 50-vertex rational input (271 moves, a new
# model on all but one)
METRIC_FULL_LOG_DIGEST = "575950074353ff15db143188235780ef9fcfbfd91ffa351348009d0741e08907"


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
    with pytest.raises(ValueError, match="edge index out of range"):
        gamma.point(gamma.m, 0)
    with pytest.raises(ValueError, match="kind must be"):
        GraphPoint("x", 0)


def test_metric_graph_hands_out_its_own_vertex_points():
    gamma = MetricGraph(path_graph(3), [Fraction(1, 2), 3])
    for e, (u, v) in enumerate(gamma.graph.edges):
        assert gamma.point(e, 0) is gamma.vertex_point(u)
        assert gamma.point(e, gamma.lengths[e]) is gamma.vertex_point(v)
    for index in (-1, gamma.n):
        with pytest.raises(ValueError, match="out of range"):
            gamma.vertex_point(index)


def test_rational_passes_a_fraction_through():
    x = Fraction(3, 7)
    assert _rational(x) is x
    with pytest.raises(TypeError):
        _rational(0.5)

    class Half(Fraction):
        pass

    for value in (Half(1, 2), Decimal("0.5"), 3):
        got = _rational(value)
        assert type(got) is Fraction and got == Fraction(value)


def test_point_ordering_vertices_first():
    gamma = segment()
    pts = sorted([gamma.point(0, Fraction(1, 3)), _vp(1), _vp(0)])
    assert pts[0] == _vp(0) and pts[1] == _vp(1)


def test_point_comparisons_agree_with_sorted():
    gamma = segment()
    pts = sorted([gamma.point(0, Fraction(2, 3)), _vp(1), gamma.point(0, Fraction(1, 3)), _vp(0)])
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            assert (a <= b) == (i <= j) and (a >= b) == (i >= j)


@pytest.mark.parametrize(
    "x",
    [
        _vp(2),
        GraphPoint("e", 1, Fraction(1, 4)),
        MetricGraph(cycle_graph(3), [1, Fraction(1, 2), 2]),
        MetricDivisor({_vp(1): 3, GraphPoint("e", 1, Fraction(1, 4)): -1}),
    ],
    ids=["vertex_point", "edge_point", "metric_graph", "metric_divisor"],
)
def test_metric_repr_evaluates_back_to_an_equal_value(x):
    y = eval(repr(x))
    assert type(y) is type(x) and y == x and hash(y) == hash(x)


def test_tropical_function_repr():
    f = TropicalFunction(segment(), [0, 0], [((Fraction(1, 2), Fraction(1, 2)),)])
    assert repr(f) == (
        "TropicalFunction(values=['0', '0'], breaks=(((Fraction(1, 2), Fraction(1, 2)),),))"
    )


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


def test_is_effective_skip_reads_a_vertex_index_as_get_does():
    D = MetricDivisor({0: -1, 1: 2})
    assert D.get(0) == -1
    assert D.is_effective(skip=0) and D.is_effective(skip=_vp(0))
    assert not D.is_effective(skip=1) and not D.is_effective(skip=_vp(1))
    half = segment().point(0, Fraction(1, 2))
    assert MetricDivisor({half: -1, 1: 2}).is_effective(skip=half)


def test_metric_divisor_merges_duplicate_points():
    gamma = segment()
    D = MetricDivisor([(gamma.point(0, 1), 1), (_vp(1), 2)])
    assert D == MetricDivisor({_vp(1): 3})


def test_sum_and_difference_are_the_checked_divisor_of_the_summed_weights():
    # A + B and A - B merge two canonical entry lists in one pass: on random
    # divisors over the vertices, three offsets of one edge and an offset
    # shared by two edges, each equals the constructor's reading of the
    # summed weights, int weights in canonical order; A - A and A + (-A)
    # cancel to the empty divisor
    gamma = MetricGraph(cycle_graph(4), [1, Fraction(1, 2), Fraction(3, 2), 1])
    pool = [_vp(v) for v in range(4)] + [
        gamma.point(0, Fraction(1, 4)),
        gamma.point(0, Fraction(1, 2)),
        gamma.point(0, Fraction(3, 4)),
        gamma.point(1, Fraction(1, 4)),
        gamma.point(2, Fraction(1, 4)),
    ]
    rng = random.Random(47)
    cancelled = 0
    for _ in range(300):
        A, B = (MetricDivisor({p: rng.randint(-2, 2) for p in rng.sample(pool, rng.randint(0, 9))})
                for _ in range(2))
        if rng.random() < 0.2:  # cancel on part of A's support
            B = MetricDivisor([(p, -w) for p, w in A if rng.random() < 0.7] + list(B))
        for got, sign in ((A + B, 1), (A - B, -1)):
            assert got == MetricDivisor([(p, A.get(p) + sign * B.get(p)) for p in pool])
            assert all(type(w) is int and w for _p, w in got)
            keys = [p._key for p, _w in got]
            assert keys == sorted(set(keys))
        cancelled += any(A.get(p) == -w for p, w in B)
        negated = MetricDivisor([(p, -w) for p, w in A])
        assert (A - A).entries == (A + negated).entries == ()
    assert cancelled > 50


@pytest.mark.parametrize(
    "make",
    [
        lambda: MetricDivisor({_vp(0): 1.5}),
        lambda: MetricDivisor([(_vp(0), Fraction(2))]),
        lambda: MetricDivisor({1.0: 1}),
        lambda: GraphPoint.vertex(1.9),
        lambda: GraphPoint("e", Fraction(0), Fraction(1, 2)),
        lambda: MetricGraph(path_graph(3), [0.1, 1]),
        lambda: segment().point(0, 0.1),
        lambda: GraphPoint("e", 0, np.float64(0.1)),
    ],
    ids=["weight", "weight_fraction", "vertex_key", "vertex", "edge",
         "length", "offset", "point_offset"],
)
def test_metric_non_integers_are_refused_not_truncated(make):
    with pytest.raises(TypeError):
        make()


def test_metric_numpy_integers_are_accepted():
    half = Fraction(1, 2)
    assert MetricDivisor({np.int64(1): np.int32(2)}) == MetricDivisor({_vp(1): 2})
    assert GraphPoint.vertex(np.int64(1)) == _vp(1)
    assert GraphPoint("e", np.int64(0), half) == segment().point(0, half)


def test_divisor_to_metric():
    G = complete_graph(3)
    gamma = unit_metric(G)
    D = divisor_to_metric(gamma, Divisor((1, -2, 0)))
    assert D.get(_vp(0)) == 1 and D.get(_vp(1)) == -2
    assert D.degree == -1


# -- Tropical functions ---------------------------------------------------------------

def test_tropical_validation():
    gamma = segment()
    with pytest.raises(ValueError, match="slopes must be integers"):
        TropicalFunction(gamma, [0, Fraction(1, 2)])  # slope 1/2
    with pytest.raises(ValueError, match="breakpoint offset outside edge interior"):
        TropicalFunction(gamma, [0, 1], [((Fraction(3, 2), 1),)])  # offset outside
    with pytest.raises(ValueError, match="breakpoints must be strictly increasing"):
        TropicalFunction(
            gamma,
            [0, 1],
            [((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 4), Fraction(1, 4)))],
        )  # unordered breakpoints
    with pytest.raises(ValueError, match="one value per vertex"):
        TropicalFunction(gamma, [0, 0, 0])
    with pytest.raises(ValueError, match="one breakpoint list per edge"):
        TropicalFunction(gamma, [0, 1], [(), ()])
    with pytest.raises(ValueError, match="does not live on this metric graph"):
        metric_laplacian(MetricGraph(path_graph(2), [2]), TropicalFunction(gamma, [0, 1]))


@pytest.mark.parametrize(
    "values, breaks",
    [
        ([0.1, 1.1], None),
        ([0, 1], [((0.5, Fraction(1, 2)),)]),
        ([0, 1], [((Fraction(1, 2), 0.5),)]),
    ],
    ids=["vertex value", "breakpoint offset", "breakpoint value"],
)
def test_tropical_refuses_floats(values, breaks):
    # read at their binary values, 0.1 and 1.1 would not differ by 1
    with pytest.raises(TypeError, match="must be exact"):
        TropicalFunction(segment(), values, breaks)


def test_tropical_takes_exact_decimals():
    f = TropicalFunction(segment(), [Fraction("0.1"), Fraction("1.1")])
    assert f._slopes == ((1,),)


def test_tropical_evaluate_and_extremes():
    gamma = segment()
    # tent: 0 at both ends, 1/2 in the middle
    f = TropicalFunction(gamma, [0, 0], [((Fraction(1, 2), Fraction(1, 2)),)])
    assert f.evaluate(_vp(0)) == 0
    assert f.evaluate(gamma.point(0, Fraction(1, 2))) == Fraction(1, 2)
    assert f.evaluate(gamma.point(0, Fraction(1, 4))) == Fraction(1, 4)


@pytest.mark.parametrize("point, message", [
    (-1, "vertex index out of range"),
    (GraphPoint.vertex(7), "vertex index out of range"),
    (GraphPoint("e", 0, 5), "offset outside the edge"),
    (GraphPoint("e", 0, Fraction(-1, 2)), "offset outside the edge"),
    (GraphPoint("e", 3, Fraction(1, 2)), "edge index out of range"),
])
def test_tropical_evaluate_refuses_a_point_off_gamma(point, message):
    # the linear function 0 -> 1 on the unit segment
    f = TropicalFunction(segment(), [0, 1])
    with pytest.raises(ValueError, match=message):
        f.evaluate(point)


def test_tropical_evaluate_reads_an_edge_end_as_its_vertex():
    f = TropicalFunction(segment(), [0, 1])
    assert f.evaluate(GraphPoint("e", 0, 0)) == 0
    assert f.evaluate(GraphPoint("e", 0, 1)) == 1


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


def _fraction_kinks(gamma, vertex_values, e, points):
    """(kinks, slopes) of edge e read with Fraction rise and run, as the
    constructor read them before it read integer ticks: the oracle for the
    integer routine, with the same checks in the same order."""
    u, v = gamma.graph.edges[e]
    length = gamma.lengths[e]
    anchors = [(Fraction(0), vertex_values[u])]
    for o, val in points:
        o = _rational(o)
        if not (0 < o < length):
            raise ValueError("breakpoint offset outside edge interior")
        if o <= anchors[-1][0]:
            raise ValueError("breakpoints must be strictly increasing")
        anchors.append((o, _rational(val)))
    anchors.append((length, vertex_values[v]))
    kinks, slopes = [], []
    for (o1, v1), (o2, v2) in zip(anchors, anchors[1:]):
        rise, run = v2 - v1, o2 - o1 if o1 else o2
        s, r = divmod(rise.numerator * run.denominator, rise.denominator * run.numerator)
        if r:
            raise ValueError("slopes must be integers")
        if not slopes:
            slopes.append(s)
        elif s != slopes[-1]:
            kinks.append((o1, v1))
            slopes.append(s)
    return tuple(kinks), tuple(slopes)


@st.composite
def _edge_anchors(draw, start=None):
    """(length, vertex values, breakpoints) on one edge of rational length:
    the anchors of a function with slopes in -2..2 (so some are collinear)
    at d-th parts of the edge, with at most one fault: a value moved by a
    fraction, an offset outside the edge or repeated, the anchors reversed,
    or a float offset or value.  Given a start, the first vertex value is
    start and there is no fault."""
    length = Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 4)))
    d = draw(st.integers(2, 9))
    parts = sorted(draw(st.lists(st.integers(1, d - 1), unique=True, max_size=4)))
    offsets = [length * i / d for i in parts]
    slopes = draw(st.lists(st.integers(-2, 2), min_size=len(parts) + 1, max_size=len(parts) + 1))
    value = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 3))) if start is None else start
    values, last = [value], Fraction(0)
    for o, s in zip([*offsets, length], slopes):
        values.append(values[-1] + s * (o - last))
        last = o
    points = [list(pair) for pair in zip(offsets, values[1:-1])]
    ends = [values[0], values[-1]]
    fault = "none" if start is not None else draw(st.sampled_from(
        ["none", "value", "outside", "repeat", "reverse", "float offset", "float value"]
    ))
    if fault == "value":
        i = draw(st.integers(0, len(points) + 1))
        shift = Fraction(1, draw(st.integers(2, 5)))
        if i < len(points):
            points[i][1] += shift
        else:
            ends[i - len(points)] += shift
    elif points and fault == "outside":
        points[draw(st.integers(0, len(points) - 1))][0] = draw(
            st.sampled_from([Fraction(0), -length / d, length, length + 1])
        )
    elif len(points) > 1 and fault == "repeat":
        points[1][0] = points[0][0]
    elif fault == "reverse":
        points.reverse()
    elif points and fault.startswith("float"):
        points[draw(st.integers(0, len(points) - 1))][fault == "float value"] += 0.0
    return length, ends, [tuple(pair) for pair in points]


def _outcome(call):
    try:
        return call()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_edge_anchors())
def test_integer_slopes_match_the_fraction_reading(case):
    # the constructor's slopes come from _fill in integer ticks; kinks,
    # slopes and every refusal match the Fraction reading of the same anchors
    length, ends, points = case
    gamma = MetricGraph(path_graph(2), [length])

    def built():
        f = TropicalFunction(gamma, ends, [points])
        return f.breaks[0], f._slopes[0]

    want = _outcome(lambda: _fraction_kinks(gamma, [_rational(x) for x in ends], 0, points))
    assert _outcome(built) == want


@st.composite
def _path_anchors(draw):
    """(lengths, vertex values, breakpoints) on the path 0 - 1 - 2: one
    _edge_anchors draw, its fault included, on the edge `side`, and a draw
    with no fault on the other edge, from that draw's value at vertex 1."""
    length, ends, points = draw(_edge_anchors())
    side = draw(st.integers(0, 1))
    other, (_, far), extra = draw(_edge_anchors(start=ends[1 - side]))
    if side == 0:
        return [length, other], [*ends, far], [points, extra]
    # the faultless draw runs from vertex 1 to vertex 0: read it backwards
    back = [(other - o, x) for o, x in reversed(extra)]
    return [other, length], [far, *ends], [back, points]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_path_anchors())
def test_integer_slopes_match_the_fraction_reading_on_two_edges(case):
    # one den serves both edges; each edge's kinks and slopes, or the one
    # fault's refusal, match the Fraction reading of that edge alone
    lengths, values, breaks = case
    gamma = MetricGraph(path_graph(3), lengths)

    def built():
        f = TropicalFunction(gamma, values, breaks)
        return tuple(zip(f.breaks, f._slopes))

    want = _outcome(lambda: tuple(_fraction_kinks(gamma, values, e, breaks[e]) for e in range(2)))
    assert _outcome(built) == want


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
    # a collinear breakpoint puts no chip: slope 2 up to offset 2 (through
    # the collinear point at 1), then slope -3 on a length-3 edge
    gamma = MetricGraph(path_graph(2), [3])
    f = TropicalFunction(gamma, [0, 1], [((1, 2), (2, 4))])
    assert f.breaks == (((2, 4),),)
    got = metric_laplacian(gamma, f)
    assert got.degree == 0
    assert got == MetricDivisor({_vp(0): -2, gamma.point(0, 2): 5, _vp(1): -3})


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


def test_metric_reduce_stops_at_the_safety_cap(monkeypatch):
    # two chips at the far end of the unit segment need two Luo moves; the
    # overrun is a refusal that names the budget and N = 1
    monkeypatch.setattr("chipfire.metric._MAX_LUO_ITERATIONS", 1)
    with pytest.raises(ValueError, match=r"_MAX_LUO_ITERATIONS = 1 .* N = 1$"):
        metric_reduce(segment(), _vp(0), MetricDivisor({_vp(1): 2}))


def _kink_case():
    # lengths 1, 1, 1/2 and a chip at e:0@1/2: the script kinks at e:0@1/2
    # and e:1@1/2, and the first move's X holds e:0@1/2 and its segments
    gamma = MetricGraph(cycle_graph(3), [1, 1, Fraction(1, 2)])
    return gamma, _vp(0), MetricDivisor({_vp(2): 3, gamma.point(0, Fraction(1, 2)): 1})


def test_metric_reduce_luo_drops_exact():
    gamma, q, D = _kink_case()
    report = metric_reduce(gamma, q, D)
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
    gamma, q, D = _kink_case()
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


def _triangle_case():
    # lengths 1, 1/2, 1/3: three moves of eps 1/3 create e:0@2/3, then e:0@1/3
    gamma = MetricGraph(cycle_graph(3), [1, Fraction(1, 2), Fraction(1, 3)])
    return gamma, _vp(0), MetricDivisor({_vp(1): 3, _vp(2): -1})


def _solved_script(gamma, q, D, report):
    """The script as the potential of (result - D) from one exact solve,
    shifted to sum(eps) at q."""
    model, d, x = metric._grounded(gamma, q, report.result - D)
    shift = sum((it.epsilon for it in report.iterations), Fraction(0))
    # the values in integer ticks of one denominator, as the helper takes them
    den = lcm(model.den, d, shift.denominator)
    ticks = [shift.numerator * (den // shift.denominator) + v * (den // d) for v in x]
    return metric._tropical_from_model(gamma, model, den, ticks)


def _created(q, D, report):
    """The interior points a move put chips on that were in none of q,
    supp(D) and the divisor before it."""
    return {
        p
        for it in report.iterations
        for p in it.after.support
        if p.kind == "e" and p != q and p not in D.support and p not in it.before.support
    }


def test_summed_script_is_the_solved_potential_on_the_corpus():
    for gamma, q, D in METRIC + [_triangle_case()]:
        report = metric_reduce(gamma, q, D)
        assert report.script == _solved_script(gamma, q, D, report)


def test_summed_script_is_the_solved_potential_where_moves_create_points():
    # rational lengths, vertex chips in -1..2 and two chips a third and two
    # thirds along one edge, q the first of them or vertex 0
    rng = np.random.default_rng(197)
    created = created_at_interior_q = 0
    for G in [g for g in RANDOM if g.m]:
        lengths = [Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 4))) for _ in range(G.m)]
        gamma = MetricGraph(G, lengths)
        e = int(rng.integers(0, G.m))
        inner = [gamma.point(e, gamma.lengths[e] * k / 3) for k in (1, 2)]
        q = inner[0] if rng.integers(0, 2) else _vp(0)
        D = MetricDivisor(
            [(_vp(v), int(rng.integers(-1, 3))) for v in G.vertices]
            + [(p, 1) for p in inner]
        )
        report = metric_reduce(gamma, q, D)
        assert report.script == _solved_script(gamma, q, D, report)
        if _created(q, D, report):
            created += 1
            created_at_interior_q += q.kind == "e"
    # the seed gives 9 such cases, 5 of them with q interior
    assert created >= 8 and created_at_interior_q >= 4


@st.composite
def _rational_cases(draw):
    """(gamma, q, D): a connected multigraph on 2-6 vertices with lengths
    k/d (k <= 5, d <= 3), chips in -1..2 at the vertices and at 1-2
    interior points, q a vertex or one of those points."""
    n = draw(st.integers(2, 6))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    for _ in range(draw(st.integers(0, n))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 2))
        edges.append((u, v + (v >= u)))
    lengths = [Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 3))) for _ in edges]
    gamma = MetricGraph(Graph(n, edges), lengths)
    pool = [_vp(v) for v in range(n)]
    for _ in range(draw(st.integers(1, 2))):
        e = draw(st.integers(0, gamma.m - 1))
        d = draw(st.integers(2, 4))
        pool.append(gamma.point(e, lengths[e] * draw(st.integers(1, d - 1)) / d))
    q = draw(st.sampled_from(pool))
    D = MetricDivisor([(p, draw(st.integers(-1, 2))) for p in pool])
    return gamma, q, D


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_rational_cases())
def test_summed_script_is_the_solved_potential_on_random_rational_graphs(case):
    gamma, q, D = case
    report = metric_reduce(gamma, q, D)
    assert report.script == _solved_script(gamma, q, D, report)


def test_metric_reduce_solves_only_to_make_effective(monkeypatch):
    # every metric potential is one substitution into a model's factor
    calls = []
    substitute = metric.exact.substitute

    def counting(*args):
        calls.append(args)
        return substitute(*args)

    monkeypatch.setattr(metric.exact, "substitute", counting)
    effective = 0
    for gamma, q, D in METRIC + [_triangle_case()]:
        calls.clear()
        metric_reduce(gamma, q, D)
        assert len(calls) == (0 if D.is_effective(skip=q) else 1)
        effective += D.is_effective(skip=q)
    assert 0 < effective < len(METRIC)


def _c10_cases():
    """Five (gamma, q, D): about 150 chips and one -10 vertex on the
    unit-length C10(1, 2), q = (v0)."""
    G = Graph(10, [(i, (i + s) % 10) for s in (1, 2) for i in range(10)])
    gamma = unit_metric(G)
    rng = np.random.default_rng(30)
    cases = []
    for _ in range(5):
        chips = np.bincount(rng.integers(0, 10, 150), minlength=10).tolist()
        chips[int(rng.integers(1, 10))] = -10
        cases.append((gamma, _vp(0), divisor_to_metric(gamma, Divisor(chips))))
    return cases


def _interior(q, D):
    return frozenset(p for p in (q, *D.support) if p.kind == "e")


def test_metric_reduce_builds_a_model_only_when_the_points_change(monkeypatch):
    builds = []

    class Counting(metric._Model):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(metric, "_Model", Counting)
    # every move on the unit-length C10(1, 2) is one edge long, so no point
    # inside an edge ever carries a chip: the five cases share their Gamma's
    # vertex model, built once
    for gamma, q, D in _c10_cases():
        report = metric_reduce(gamma, q, D)
        assert report.iterations
    assert len(builds) == 1
    # make-effective takes the model at q and supp(D), and the Luo loop its
    # first model at q and supp(E0), then goes on with it while the interior
    # points of q and the support stay the same; a model with no interior
    # point is Gamma's vertex model, built only if Gamma holds none yet
    for gamma, q, D in METRIC:
        builds.clear()
        cached = gamma._vertex_model is not None
        report = metric_reduce(gamma, q, D)
        steps = [report.after_make_effective] + [it.after for it in report.iterations]
        points = [_interior(q, D)] + [_interior(q, E) for E in steps]
        want = 0
        # the first two models are asked for whatever their points
        for a, b in zip([None, None, *points[1:]], points):
            if a != b and (b or not cached):
                want += 1
                cached = cached or not b
        assert len(builds) == want


def _solved_at(model, q_vid, chips):
    """(d, x) from one single-column exact.solve of the model Laplacian in
    integer conductances with q's row and column removed, x(q) = 0."""
    full = lcm(model.den, *model.ticks)
    keep = [v for v in range(len(model.points)) if v != q_vid]
    row_of = {v: i for i, v in enumerate(keep)}
    lap = [[0] * len(keep) for _ in keep]
    for (a, b, *_), t in zip(model.medges, model.ticks):
        for u, w in ((a, b), (b, a)):
            if u != q_vid:
                lap[row_of[u]][row_of[u]] += full // t
                if w != q_vid:
                    lap[row_of[u]][row_of[w]] -= full // t
    d, sol = exact.solve(lap, [[full // model.den * chips[v]] for v in keep])
    x = [0] * len(model.points)
    for v, (value,) in zip(keep, sol):
        x[v] = value
    return d, x


def test_vertex_model_potential_is_the_solve_grounded_at_q():
    # one factor grounded at vertex 0 serves every base vertex: the same d,
    # the determinant of every grounding, and the same numerators x
    rng = random.Random(38)
    gammas = {id(gamma): gamma for gamma, _, _ in METRIC}.values()
    for gamma in gammas:
        model = metric._model_at(gamma, ())
        assert model is gamma._vertex_model and len(model.points) == gamma.n
        for q in range(gamma.n):
            chips = [rng.randint(-3, 3) for _ in range(gamma.n)]
            assert metric._grounded_potential(model, q, chips) == _solved_at(model, q, chips)


def test_ten_reductions_on_one_gamma_build_one_model_and_one_factor(monkeypatch):
    builds, factors = [], []

    class Counting(metric._Model):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    # the model's sparse rows go straight to exact's one sparse entry
    factor = metric.exact._factor_rows

    def counting(*args):
        factors.append(args)
        return factor(*args)

    monkeypatch.setattr(metric, "_Model", Counting)
    monkeypatch.setattr(metric.exact, "_factor_rows", counting)
    cases = _c10_cases()
    gamma = cases[0][0]
    for gamma, q, D in cases + cases:
        assert not D.is_effective(skip=q)
        metric_reduce(gamma, q, D)
    assert len(builds) == 1 and len(factors) == 1
    # vertex potential queries read the same factor
    pot = metric_potentials(gamma, _vp(3))
    assert pot.j(_vp(1), _vp(2)) == pot.j(_vp(2), _vp(1))
    assert pot.resistance(_vp(1)) > 0 and pot.b(cases[0][2]) > 0
    assert len(builds) == 1 and len(factors) == 1


def test_kept_model_constants_leak_no_q_or_divisor_between_calls():
    # Gamma's vertex model keeps its factor and make-effective's buffer from
    # the first call on; every later call, at any q and D, reports what the
    # same call reports on a fresh copy of Gamma
    cases = _c10_cases() + METRIC
    for gamma, _q, D in cases:
        for v in range(gamma.n):
            q = _vp(v)
            for call in (metric_make_effective, metric_reduce):
                assert call(gamma, q, D) == call(MetricGraph(gamma.graph, gamma.lengths), q, D)
    assert cases[0][0]._vertex_model._buffer is not None


def test_model_ticks_sum_to_each_edge_length(monkeypatch):
    # every model of the 50-vertex rational input holds Gamma's edge e as
    # edge_ticks[e] = length(e) * den ticks, the sum of its model edges' ticks,
    # and each model edge's segment as medges lists it
    models = []

    class Keeping(metric._Model):
        def __init__(self, *args):
            super().__init__(*args)
            models.append(self)

    monkeypatch.setattr(metric, "_Model", Keeping)
    gamma, q, D = _rational_large(50)
    metric_reduce(gamma, q, D)
    assert len(models) == 270
    for model in models:
        sums = [0] * gamma.m
        for (_a, _b, e, *_), t in zip(model.medges, model.ticks):
            sums[e] += t
        assert sums == model.edge_ticks == [x * model.den for x in gamma.lengths]
        assert model.segments == [medge[2:] for medge in model.medges]


def test_a_model_with_an_interior_point_builds_its_own(monkeypatch):
    builds = []

    class Counting(metric._Model):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(metric, "_Model", Counting)
    gamma, q, D = _triangle_case()
    vertex_model = metric._model_at(gamma, [q, *D.support])
    mid = gamma.point(0, Fraction(1, 2))
    models = [metric._model_at(gamma, [q, mid]) for _ in range(2)]
    assert len(builds) == 3
    assert all(mid in m.vid_of and m is not vertex_model for m in models)
    assert models[0] is not models[1] and gamma._vertex_model is vertex_model
    assert len(vertex_model.points) == gamma.n
    # a vertex off Gamma is refused, with the vertex model cached or not
    for off in (_vp(gamma.n), _vp(-1)):
        with pytest.raises(ValueError, match="out of range"):
            metric._model_at(gamma, [q, off])
        with pytest.raises(ValueError, match="out of range"):
            metric._model_at(MetricGraph(gamma.graph, gamma.lengths), [off])
    assert len(builds) == 3


def test_a_dropped_gamma_frees_its_vertex_model_and_factor():
    was_enabled = gc.isenabled()
    gc.disable()  # a reference cycle would keep them alive here
    try:
        gamma = unit_metric(cycle_graph(6))
        D = MetricDivisor({_vp(2): 7, _vp(4): -1})
        metric_reduce(gamma, _vp(0), D)
        model = gamma._vertex_model
        refs = [weakref.ref(x) for x in (gamma, model, model.grounded_factor()[1])]
        del model
        assert all(ref() is not None for ref in refs)
        del gamma
        assert all(ref() is None for ref in refs)
    finally:
        if was_enabled:
            gc.enable()


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_rational_cases())
def test_luo_moves_log_exact_values_and_canonical_points(case):
    # eps, the drop and each component's length are read off integer ticks;
    # a chip moved less than a whole model edge lands strictly inside it
    gamma, q, D = case
    for it in metric_reduce(gamma, q, D).iterations:
        X = it.component
        assert type(it.epsilon) is Fraction and type(X.total_length) is Fraction
        assert type(it.drop) is Fraction
        assert it.drop == X.total_length * it.epsilon + Fraction(X.cut_size, 2) * it.epsilon**2
        for p in it.after.support:
            if p.kind == "e":
                assert gamma.point(p.edge, p.offset) == p


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_rational_cases())
def test_logged_divisors_are_canonical_and_chained(case):
    # every divisor the log holds is what the checking constructor makes of
    # its entries: canonical points in canonical order, int weights, no zero
    gamma, q, D = case
    report = metric_reduce(gamma, q, D)
    log = report.iterations
    steps = [report.after_make_effective] + [it.after for it in log]
    for E in steps + [it.before for it in log]:
        assert E == MetricDivisor(list(E))
        assert all(type(w) is int for _p, w in E)
        assert E.degree == D.degree
    if log:
        assert log[0].before is report.after_make_effective
        assert log[-1].after is report.result
    else:
        assert report.result is report.after_make_effective
    for it, nxt in zip(log, log[1:]):
        assert it.after is nxt.before


def _fraction_add_move(gamma, X, eps, sites, values):
    """Add min(dist(p, X), eps) to values[i] for each point p = sites[i], in
    Fractions, as metric_reduce summed its script before it summed ticks."""
    at_vertex, offsets, segments = set(), {}, {}
    for p in X.points:
        if p.kind == "v":
            at_vertex.add(p.index)
        else:
            offsets.setdefault(p.edge, []).append(p.offset)
    for e, o1, o2 in X.segments:
        segments.setdefault(e, []).append((o1, o2))
    for i, p in enumerate(sites):
        if p.kind == "v":
            if p.index not in at_vertex:
                values[i] += eps
            continue
        e, o = p.edge, p.offset
        if any(o1 < o < o2 for o1, o2 in segments.get(e, ())):
            continue
        ends = zip(gamma.graph.edges[e], (Fraction(0), gamma.lengths[e]))
        near = offsets.get(e, []) + [x for w, x in ends if w in at_vertex]
        values[i] += min([eps] + [abs(o - x) for x in near])


def _resummed_script(gamma, q, D, report):
    """report's script summed again in Fractions off its own log: f0 at the
    vertices and at the interior points of q, supp(D) and the result, plus
    each move's min(dist(., X), eps), built by the public constructor."""
    inner = sorted({p for p in (q, *D.support, *report.result.support) if p.kind == "e"})
    sites = [_vp(v) for v in range(gamma.n)] + inner
    values = [report.make_effective_script.evaluate(p) for p in sites]
    for it in report.iterations:
        _fraction_add_move(gamma, it.component, it.epsilon, sites, values)
    breaks = [[] for _ in range(gamma.m)]
    for p, x in zip(inner, values[gamma.n:]):
        breaks[p.edge].append((p.offset, x))
    return TropicalFunction(gamma, values[:gamma.n], breaks)


def test_script_in_ticks_is_the_fraction_resum_of_its_log():
    # metric_reduce adds each eps to every site once and corrects the sites
    # near X.  The triangle's X holds edge points, but it ends on vertices,
    # so only vertex sites are corrected; on the kink input and the
    # 50-vertex input some moves' X holds an edge point and a segment on
    # edges with sites, which checks the correction of edge sites
    cases = METRIC + _c10_cases() + [_triangle_case(), _kink_case(), _rational_large(50)]
    near_edge_sites = []
    for gamma, q, D in cases:
        report = metric_reduce(gamma, q, D)
        assert report.script == _resummed_script(gamma, q, D, report)
        site_edges = {p.edge for p in (q, *D.support, *report.result.support) if p.kind == "e"}
        near_edge_sites.append(sum(
            any(p.kind == "e" and p.edge in site_edges for p in it.component.points)
            and any(e in site_edges for e, _o1, _o2 in it.component.segments)
            for it in report.iterations
        ))
    assert len(report.iterations) == 271
    assert near_edge_sites[-2] > 0 and near_edge_sites[-1] > 0


def _script_cases():
    return METRIC + _c10_cases() + [_triangle_case(), _rational_large(50)]


def test_every_move_lies_on_the_grid_of_the_first_model():
    # metric_reduce sums its script in ticks of a multiple of N, the den of
    # the model at q and supp(D), and of no later model: every eps and every
    # point a move leaves a chip on are whole ticks of N
    cases = _script_cases()
    for gamma, q, D in cases:
        N = metric._model_at(gamma, [q, *D.support]).den
        for it in metric_reduce(gamma, q, D).iterations:
            assert (it.epsilon * N).denominator == 1
            assert all((p.offset * N).denominator == 1 for p in it.after.support if p.kind == "e")
    assert len(cases) == 42


def test_both_scripts_rebuilt_by_the_constructor_are_equal():
    # _tropical_from_model and the public constructor share one builder, so
    # a script rebuilt from its own values and kinks has the same fields
    for gamma, q, D in _script_cases():
        report = metric_reduce(gamma, q, D)
        for f in (report.script, report.make_effective_script):
            rebuilt = TropicalFunction(gamma, f.vertex_values, f.breaks)
            assert rebuilt == f and rebuilt._slopes == f._slopes


def test_a_wrong_summed_value_fails_the_exact_check(monkeypatch):
    # on the triangle, one chip at each of 1 and 2 end at 0 and e:0@2/3, a
    # point the one move creates; one off its interpolated value, the
    # script would put chips next to it that the move did not
    gamma, q, _D = _triangle_case()
    D = MetricDivisor({_vp(1): 1, _vp(2): 1})
    report = metric_reduce(gamma, q, D)
    assert report.result == MetricDivisor({q: 1, gamma.point(0, Fraction(2, 3)): 1})
    interpolate = metric._interpolate
    monkeypatch.setattr(metric, "_interpolate", lambda *args: interpolate(*args) + 1)
    with pytest.raises(AssertionError, match="disagree"):
        metric_reduce(gamma, q, D)


def _merged_laplacian(gamma, f):
    """metric_laplacian as it read before it summed in place: the slopes at
    both ends of every edge and the weight of every kink, merged through a
    dict keyed by point, then sorted into canonical order."""
    acc = {}
    for e, (u, v) in enumerate(gamma.graph.edges):
        slopes = f._slopes[e]
        weights = [(gamma.vertex_point(u), -slopes[0]), (gamma.vertex_point(v), slopes[-1])]
        for (o, _), s1, s2 in zip(f.breaks[e], slopes, slopes[1:]):
            weights.append((gamma.point(e, o), s1 - s2))
        for p, w in weights:
            acc[p] = acc.get(p, 0) + w
    return tuple(sorted((p, w) for p, w in acc.items() if w))


def test_metric_laplacian_is_the_merged_reading_on_every_script():
    kinked = 0
    for gamma, q, D in _script_cases():
        report = metric_reduce(gamma, q, D)
        for f in (report.script, report.make_effective_script):
            got = metric_laplacian(gamma, f)
            assert got.entries == _merged_laplacian(gamma, f)
            assert all(type(w) is int for _p, w in got.entries)
            kinked += any(f.breaks)
    assert kinked > 0


@st.composite
def _kinked_functions(draw):
    """(gamma, f): a tree on 2-5 vertices whose edges each carry an
    _edge_anchors draw with no fault, from the value at the lower vertex,
    and 0-3 edges more, parallel edges included, each with one kink t
    along from its lower end and a length that fits the values at its ends
    with integer slopes s0 up to the kink and s1 after it."""
    n = draw(st.integers(2, 5))
    values = [Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 3)))]
    edges, lengths, breaks = [], [], []
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        length, (_, far), points = draw(_edge_anchors(start=values[u]))
        values.append(far)
        edges.append((u, v))
        lengths.append(length)
        breaks.append(points)
    for _ in range(draw(st.integers(0, 3))):
        u = draw(st.integers(0, n - 2))
        v = draw(st.integers(u + 1, n - 1))
        t = Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 4)))
        s0 = draw(st.integers(-2, 2))
        rest = values[v] - values[u] - s0 * t  # s1 times the length after t
        s1 = draw(st.integers(1, 3)) * (1 if rest > 0 else -1)
        after = rest / s1 if rest else Fraction(draw(st.integers(1, 3)), 2)
        edges.append((u, v))
        lengths.append(t + after)
        breaks.append([(t, values[u] + s0 * t)])
    gamma = MetricGraph(Graph(n, edges), lengths)
    return gamma, TropicalFunction(gamma, values, breaks)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_kinked_functions())
def test_metric_laplacian_is_the_merged_reading_on_kinked_functions(case):
    gamma, f = case
    got = metric_laplacian(gamma, f)
    assert got.entries == _merged_laplacian(gamma, f)
    assert got.degree == 0


def _set_walk(model, order):
    """[(component, cut, T)] for every component the fire from q could not
    enter, walked as _components walked them before the one-list walk: inner
    edges gathered in a set, edges toward the burnt set counted in a dict."""
    G = model.graph
    burnt = [False] * G.n
    for v in order:
        burnt[v] = True
    reached = list(burnt)
    out = []
    for start in range(G.n):
        if reached[start]:
            continue
        reached[start] = True
        comp, stack, inner, outdeg, cut = [], [start], set(), {}, []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w, idx in zip(G.neighbors(v), G.incident(v)):
                if burnt[w]:
                    outdeg[v] = outdeg.get(v, 0) + 1
                    cut.append((idx, v))
                    continue
                inner.add(idx)
                if not reached[w]:
                    reached[w] = True
                    stack.append(w)
        comp.sort()
        inner = sorted(inner)
        T = sum(model.ticks[idx] for idx in inner)
        out.append((metric.UnburntComponent(
            points=tuple(model.points[v] for v in comp),
            segments=tuple(model.medges[idx][2:] for idx in inner),
            boundary=tuple((model.points[v], outdeg[v]) for v in comp if v in outdeg),
            total_length=Fraction(T, model.den),
            cut_size=len(cut),
        ), cut, T))
    return out


def test_component_walk_is_the_set_walk_on_every_stalled_burn():
    burns = several = 0
    for gamma, q, D in _script_cases():
        for it in metric_reduce(gamma, q, D).iterations:
            # the move's model: Gamma cut at q and the divisor before it
            model = metric._model_at(gamma, [q, *it.before.support])
            order = _kernels.burn(model.graph, model.chips(it.before), model.vid_of[q])
            got = list(metric._components(model, order))
            assert got == _set_walk(model, order)
            assert got[0][0] == it.component
            burns += 1
            several += len(got) > 1
    assert burns > 300 and several > 0


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


def test_triangle_resistance_oracle():
    # on a cycle, two points cut it into arcs l and l' + l'', in parallel:
    # r = l (l' + l'') / (l + l' + l'').  Coprime lengths and an interior
    # point make the model's integer conductances differ on every segment.
    lengths = [Fraction(97, 3), Fraction(101, 7), Fraction(13)]
    gamma = MetricGraph(cycle_graph(3), lengths)  # edges (0,1), (1,2), (0,2)
    offset = Fraction(5, 11)
    x = gamma.point(1, offset)
    total = sum(lengths)
    # arc position of each point going 0 -> 1 -> x -> 2 -> 0
    where = {
        _vp(0): 0,
        _vp(1): lengths[0],
        x: lengths[0] + offset,
        _vp(2): lengths[0] + lengths[1],
    }
    for q in where:
        pots = metric_potentials(gamma, q)
        for u in where:
            for v in where:
                arc = abs(where[u] - where[v])
                assert pots.resistance(u, v) == arc * (total - arc) / total
            assert pots.j(u, u) == pots.resistance(u)


# -- Points off Gamma ---------------------------------------------------------------------------

_OFF_GAMMA = {
    "vertex_n": (GraphPoint.vertex(4), "vertex index out of range"),
    "vertex_negative": (GraphPoint.vertex(-1), "vertex index out of range"),
    "edge_index": (GraphPoint("e", 9, Fraction(1, 2)), "edge index out of range"),
    "offset_zero": (GraphPoint("e", 0, 0), "strictly inside"),
    "offset_length": (GraphPoint("e", 0, 1), "strictly inside"),
    "offset_beyond": (GraphPoint("e", 0, 3), "offset outside the edge"),
}

_OFF_GAMMA_CALLS = {
    "dhar_q": lambda g, p: metric_dhar(g, p, MetricDivisor({})),
    "dhar_D": lambda g, p: metric_dhar(g, _vp(0), MetricDivisor({p: 1})),
    "make_effective_q": lambda g, p: metric_make_effective(
        g, p, MetricDivisor({_vp(0): -1, _vp(1): 2})
    ),
    "make_effective_D": lambda g, p: metric_make_effective(g, _vp(0), MetricDivisor({p: 1})),
    "reduce_q": lambda g, p: metric_reduce(g, p, MetricDivisor({_vp(1): 2})),
    "reduce_D": lambda g, p: metric_reduce(g, _vp(0), MetricDivisor({p: 2})),
    "j_q": lambda g, p: metric_potentials(g, p).j(_vp(0), _vp(1)),
    "j_x": lambda g, p: metric_potentials(g, _vp(0)).j(p, _vp(1)),
    "j_y": lambda g, p: metric_potentials(g, _vp(0)).j(_vp(1), p),
    "resistance": lambda g, p: metric_potentials(g, _vp(0)).resistance(p),
    "q_energy": lambda g, p: metric_potentials(g, _vp(0)).q_energy(MetricDivisor({p: 1})),
    "b": lambda g, p: metric_potentials(g, _vp(0)).b(MetricDivisor({p: 1})),
}


@pytest.mark.parametrize("point", _OFF_GAMMA.values(), ids=_OFF_GAMMA.keys())
@pytest.mark.parametrize("call", _OFF_GAMMA_CALLS.values(), ids=_OFF_GAMMA_CALLS.keys())
def test_points_off_gamma_are_refused(call, point):
    # refused when the model is built, not as a KeyError, a ZeroDivisionError
    # or a "disconnected" model further in, nor as a negative j_q
    p, message = point
    with pytest.raises(ValueError, match=message):
        call(unit_metric(cycle_graph(4)), p)


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


def _rational_large(n):
    """(gamma, q, D): the benchmark's multigraph on n vertices and 2n edges
    from random.Random(n), then from the same stream lengths k/d (k <= 5,
    d <= 3) and chips in -2..3 at every vertex, q = (v0)."""
    rng = random.Random(n)
    G = tree_plus_edges(n, 2 * n, rng)
    gamma = MetricGraph(G, [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(G.m)])
    D = MetricDivisor([(_vp(v), rng.randint(-2, 3)) for v in range(n)])
    return gamma, _vp(0), D


def test_all_metric_move_logs_match_pinned_digest():
    cases = METRIC + _c10_cases() + [_rational_large(50)]
    records = [_log_record(*case) for case in cases]
    assert len(records[-1]) == 271
    assert _digest(records) == METRIC_FULL_LOG_DIGEST


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
