"""Metric graphs: tropical functions, the metric Laplacian, burning, and
exact reduction.

Points live on a metric graph Gamma (a graph with positive rational edge
lengths) either at vertices or at interior offsets of an edge.  Tropical
functions are continuous piecewise linear with integer slopes; their
Laplacian puts -(sum of outgoing slopes) at every kink.  A TropicalFunction
is a canonical value: it keeps only its true kinks, and the integer slope
of each piece between them, from the moment it is built, and there is no
algebra on functions: every script is built once, from its values at
points between which it is affine.  All arithmetic is exact (Fractions for
offsets and values, integers for the linear algebra); nothing here uses
floats.

The working tool is the model: the subdivision of Gamma at the support of
the divisor in play (plus q and all vertices), which refuses a point not on
Gamma.  Burning, moves and potentials are all computed on the model and
mapped back to points.  Every potential of a divisor comes from one helper,
_grounded: the j_q-potential from one exact single-column solve of a fresh
model's grounded Laplacian, scaled to integer conductances; j_q, r, E_q and
b_q are read off such a potential, and nothing is cached.  A divisor is made
effective off q by one rounded j_q-potential, which leaves a number of chips
per model vertex bounded by the model alone; Luo moves then only move chips,
each reading its eps and its moves off the cut that the walk of the stalled
component lists.  The reduction's script needs no solve: it is the
make-effective script plus min(dist(., X), eps) for each move, summed as
the moves run at the model's points and the points of supp(D), between
which it is affine.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm

from . import exact, _kernels
from .graph import Graph, _rational, check_divisor


class MetricGraph:
    """A connected loopless multigraph with positive rational edge lengths;
    a float length raises TypeError."""

    __slots__ = ("graph", "lengths")

    def __init__(self, graph, lengths):
        lengths = tuple(_rational(x) for x in lengths)
        if len(lengths) != graph.m:
            raise ValueError("need one length per edge")
        if any(x <= 0 for x in lengths):
            raise ValueError("edge lengths must be positive")
        self.graph = graph
        self.lengths = lengths

    @property
    def n(self):
        return self.graph.n

    @property
    def m(self):
        return self.graph.m

    def point(self, edge, offset):
        """Canonical point at `offset` along edge (endpoints become vertices)."""
        offset = _rational(offset)
        if not (0 <= edge < self.m):
            raise ValueError("edge index out of range")
        if offset < 0 or offset > self.lengths[edge]:
            raise ValueError("offset outside the edge")
        u, v = self.graph.edges[edge]
        if offset == 0:
            return GraphPoint.vertex(u)
        if offset == self.lengths[edge]:
            return GraphPoint.vertex(v)
        return GraphPoint("e", edge, offset)

    def vertex_point(self, v):
        if not (0 <= v < self.n):
            raise ValueError("vertex index out of range")
        return GraphPoint.vertex(v)

    @property
    def total_length(self):
        return sum(self.lengths)

    def __eq__(self, other):
        return (
            isinstance(other, MetricGraph)
            and self.graph == other.graph
            and self.lengths == other.lengths
        )

    def __hash__(self):
        return hash((self.graph, self.lengths))

    def __repr__(self):
        return f"MetricGraph({self.graph!r}, {[str(x) for x in self.lengths]})"


_ZERO = Fraction(0)


class GraphPoint:
    """A point of a metric graph: a vertex or an interior edge position.

    Construct through MetricGraph.point / GraphPoint.vertex so endpoint
    offsets canonicalize to vertices.  Points order vertices first (by
    index), then edge points by (edge, offset); this is the canonical order
    used for burn sequences and component selection.  The vertex and edge
    indices must be integers; a float or a Fraction raises TypeError, and so
    does a float offset.
    """

    __slots__ = ("kind", "index", "edge", "offset", "_key", "_hash")

    def __init__(self, kind, a, b=None):
        if kind == "v":
            self.kind = "v"
            self.index = operator.index(a)
            self.edge = None
            self.offset = None
            self._key = (0, self.index, _ZERO)
        elif kind == "e":
            self.kind = "e"
            self.index = None
            self.edge = operator.index(a)
            self.offset = _rational(b)
            self._key = (1, self.edge, self.offset)
        else:
            raise ValueError("kind must be 'v' or 'e'")
        self._hash = hash(self._key)

    @classmethod
    def vertex(cls, i):
        return cls("v", i)

    def __eq__(self, other):
        return isinstance(other, GraphPoint) and self._key == other._key

    def __lt__(self, other):
        return self._key < other._key

    def __le__(self, other):
        return self._key <= other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.kind == "v":
            return f"GraphPoint.vertex({self.index})"
        return f"GraphPoint('e', {self.edge}, {self.offset!r})"


def _as_point(p):
    if isinstance(p, GraphPoint):
        return p
    return GraphPoint.vertex(p)


class MetricDivisor:
    """Finitely supported integer divisor on the points of a metric graph;
    weights that are not integers raise TypeError."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        if isinstance(entries, dict):
            items = entries.items()
        else:
            items = entries
        acc = {}
        for p, w in items:
            p = _as_point(p)
            w = operator.index(w)
            if w:
                acc[p] = acc.get(p, 0) + w
        self.entries = tuple(sorted(((p, w) for p, w in acc.items() if w != 0)))

    @property
    def degree(self):
        return sum(w for _, w in self.entries)

    @property
    def support(self):
        return tuple(p for p, _ in self.entries)

    def get(self, p):
        p = _as_point(p)
        for pt, w in self.entries:
            if pt == p:
                return w
        return 0

    def is_effective(self, skip=None):
        return all(w >= 0 for p, w in self.entries if p != skip)

    def __add__(self, other):
        return MetricDivisor(list(self.entries) + list(other.entries))

    def __sub__(self, other):
        return MetricDivisor(
            list(self.entries) + [(p, -w) for p, w in other.entries]
        )

    def __eq__(self, other):
        return isinstance(other, MetricDivisor) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        return f"MetricDivisor({list(self.entries)!r})"


class TropicalFunction:
    """Continuous piecewise linear function with integer slopes.

    Stored as one value per vertex plus sorted interior breakpoints
    (offset, value) per edge; between anchors the function is linear.
    Construction validates offset sanity and slope integrality and keeps only
    the breakpoints where the slope changes, so a caller's collinear
    breakpoints are dropped from .breaks and equal functions have equal
    fields.  The integer slope of each piece between them stays in _slopes
    for metric_laplacian.  Continuity is automatic because endpoint values
    are shared via the vertices.
    """

    __slots__ = ("gamma", "vertex_values", "breaks", "_slopes")

    def __init__(self, gamma, vertex_values, breaks=None):
        self.gamma = gamma
        self.vertex_values = tuple(_rational(x) for x in vertex_values)
        if len(self.vertex_values) != gamma.n:
            raise ValueError("need one value per vertex")
        if breaks is None:
            breaks = [()] * gamma.m
        if len(breaks) != gamma.m:
            raise ValueError("need one breakpoint list per edge")
        pieces = [self._kinks(e, breaks[e]) for e in range(gamma.m)]
        self.breaks = tuple(kinks for kinks, _ in pieces)
        self._slopes = tuple(slopes for _, slopes in pieces)

    def _kinks(self, e, points):
        """(kinks, slopes): the (offset, value) `points` on edge e where the
        slope changes, and the integer slope of each piece between them,
        after checking every offset and that every slope is an integer; a
        float offset or value raises TypeError."""
        u, v = self.gamma.graph.edges[e]
        length = self.gamma.lengths[e]
        anchors = [(_ZERO, self.vertex_values[u])]
        for o, val in points:
            o = _rational(o)
            if not (0 < o < length):
                raise ValueError("breakpoint offset outside edge interior")
            if o <= anchors[-1][0]:
                raise ValueError("breakpoints must be strictly increasing")
            anchors.append((o, _rational(val)))
        anchors.append((length, self.vertex_values[v]))
        kinks, slopes = [], []
        for (o1, v1), (o2, v2) in zip(anchors, anchors[1:]):
            s = (v2 - v1) / (o2 - o1)
            if s.denominator != 1:
                raise ValueError("slopes must be integers")
            s = s.numerator
            if not slopes:
                slopes.append(s)
            elif s != slopes[-1]:
                kinks.append((o1, v1))
                slopes.append(s)
        return tuple(kinks), tuple(slopes)

    def _anchors(self, e):
        u, v = self.gamma.graph.edges[e]
        return (
            [(Fraction(0), self.vertex_values[u])]
            + list(self.breaks[e])
            + [(self.gamma.lengths[e], self.vertex_values[v])]
        )

    @classmethod
    def zero(cls, gamma):
        return cls(gamma, [0] * gamma.n)

    def evaluate(self, p):
        p = _as_point(p)
        if p.kind == "v":
            return self.vertex_values[p.index]
        return _interpolate(self._anchors(p.edge), p.offset)

    def is_zero(self):
        return all(x == 0 for x in self.vertex_values) and all(
            not b for b in self.breaks
        )

    def __eq__(self, other):
        return (
            isinstance(other, TropicalFunction)
            and self.gamma == other.gamma
            and self.vertex_values == other.vertex_values
            and self.breaks == other.breaks
        )

    def __repr__(self):
        return (
            f"TropicalFunction(values={[str(x) for x in self.vertex_values]}, "
            f"breaks={self.breaks!r})"
        )


def _interpolate(anchors, offset):
    """The value at `offset` of the function affine between the sorted
    (offset, value) `anchors`."""
    for (o1, v1), (o2, v2) in zip(anchors, anchors[1:]):
        if o1 <= offset <= o2:
            return v1 + (v2 - v1) * (offset - o1) / (o2 - o1)
    raise AssertionError("offset not covered by anchors")


def metric_laplacian(gamma, f):
    """Delta(f) as a MetricDivisor: -(sum of outgoing slopes) at each kink."""
    if f.gamma != gamma:
        raise ValueError("function does not live on this metric graph")
    weights = {}

    def bump(point, w):
        if w:
            weights[point] = weights.get(point, 0) + w

    for e, (u, v) in enumerate(gamma.graph.edges):
        slopes = f._slopes[e]
        # outgoing slope at u along e is slopes[0]; at v it is -slopes[-1]
        bump(GraphPoint.vertex(u), -slopes[0])
        bump(GraphPoint.vertex(v), slopes[-1])
        for (o, _), s1, s2 in zip(f.breaks[e], slopes, slopes[1:]):
            bump(gamma.point(e, o), s1 - s2)
    return MetricDivisor(weights)


# ---------------------------------------------------------------------------
# The model: subdivision at a point set.

class _Model:
    """Subdivision of Gamma at a set of points (all vertices included).

    Model vertex ids follow the canonical point order: original vertices
    0..n-1 first, then interior points by (edge, offset).  Model edges are
    the maximal subsegments between consecutive model vertices, each of
    positive length: a point not on Gamma (an index out of range, or an edge
    offset not strictly inside its edge) raises ValueError.  lengths[i] is
    the length of medges[i].
    """

    __slots__ = ("gamma", "points", "vid_of", "medges", "lengths", "graph")

    def __init__(self, gamma, extra_points):
        self.gamma = gamma
        per_edge = {}
        for p in extra_points:
            p = _as_point(p)
            # gamma's own constructors raise off Gamma and fold edge ends
            if p.kind == "v":
                gamma.vertex_point(p.index)
            elif gamma.point(p.edge, p.offset) != p:
                raise ValueError("edge point offset not strictly inside its edge")
            else:
                per_edge.setdefault(p.edge, set()).add(p.offset)
        interior = []
        for e in sorted(per_edge):
            for off in sorted(per_edge[e]):
                interior.append(GraphPoint("e", e, off))
        self.points = [GraphPoint.vertex(v) for v in range(gamma.n)] + interior
        self.vid_of = {p: i for i, p in enumerate(self.points)}
        self.medges = []  # (vid_a, vid_b, edge, start_off, end_off)
        for e in range(gamma.m):
            u, v = gamma.graph.edges[e]
            offs = sorted(per_edge.get(e, ()))
            stops = (
                [(Fraction(0), u)]
                + [(o, self.vid_of[GraphPoint("e", e, o)]) for o in offs]
                + [(gamma.lengths[e], v)]
            )
            for (o1, a), (o2, b) in zip(stops, stops[1:]):
                self.medges.append((a, b, e, o1, o2))
        self.lengths = [o2 - o1 for *_, o1, o2 in self.medges]
        self.graph = Graph(len(self.points), [(a, b) for a, b, *_ in self.medges])

    def chips(self, D):
        vec = [0] * len(self.points)
        for p, w in D:
            vec[self.vid_of[p]] += w
        return vec


def _tropical_from_model(gamma, model, values, kinks=()):
    """The TropicalFunction with `values` (one per model vertex) at the model
    vertices, affine between them and the (edge, offset, value) `kinks`."""
    anchors = [dict() for _ in range(gamma.m)]
    for a, b, e, o1, o2 in model.medges:
        if o1 != 0:
            anchors[e][o1] = values[a]
        if o2 != gamma.lengths[e]:
            anchors[e][o2] = values[b]
    for e, offset, value in kinks:
        anchors[e][offset] = value
    breaks = [sorted(anchors[e].items()) for e in range(gamma.m)]
    return TropicalFunction(gamma, values[: gamma.n], breaks)


def _grounded_potential(model, q_vid, chips):
    """x with x(q) = 0 and Delta(x) = chips at every other model vertex, x
    affine on model edges: the j_q-potential of chips under conductance
    1/length, from one single-column exact solve of the model Laplacian
    with q's row and column removed.  The system is scaled to integers: with
    scale the lcm of the numerators of the model edge lengths, an edge of
    length a/b has conductance scale*b/a and the right-hand side is
    scale*chips, which leaves x as it is."""
    scale = lcm(*(x.numerator for x in model.lengths))
    keep = [v for v in range(len(model.points)) if v != q_vid]
    row_of = {v: i for i, v in enumerate(keep)}
    lap = [[0] * len(keep) for _ in keep]
    for (a, b, *_), length in zip(model.medges, model.lengths):
        c = scale // length.numerator * length.denominator
        for u, w in ((a, b), (b, a)):
            if u != q_vid:
                lap[row_of[u]][row_of[u]] += c
                if w != q_vid:
                    lap[row_of[u]][row_of[w]] -= c
    x = [_ZERO] * len(model.points)
    for v, (value,) in zip(keep, exact.solve(lap, [[scale * chips[v]] for v in keep])):
        x[v] = value
    return x


def _grounded(gamma, q, D, *points):
    """(model at q, supp(D) and points; the j_q-potential of D on it)."""
    model = _Model(gamma, [q, *D.support, *points])
    return model, _grounded_potential(model, model.vid_of[q], model.chips(D))


# ---------------------------------------------------------------------------
# Metric Dhar burning.

@dataclass(frozen=True)
class UnburntComponent:
    """A connected closed subgraph the fire could not enter.

    points are its model vertices, segments the closed subsegments
    (edge, start, end) fully inside, boundary the (point, outdeg) pairs
    with edges toward the burnt region, total_length the sum of segment
    lengths and cut_size the number of edges in the cut.
    """

    points: tuple
    segments: tuple
    boundary: tuple
    total_length: Fraction
    cut_size: int


@dataclass(frozen=True)
class MetricDharOutcome:
    """reduced=True iff the fire started at q consumes all of Gamma."""

    reduced: bool
    burn_order: tuple
    components: tuple


def _components(model, order):
    """Yield (component, cut) for the components the fire from q could not
    enter, in canonical order, building each only when asked for.

    Each is walked over the model graph from the lowest unburnt model vertex
    no earlier walk reached, which is then its smallest point, so the
    components come out by their first point; segments and boundary are read
    off the component's own incident edges.  cut lists the edges leaving
    the component, all of them toward burnt vertices, as (model edge index,
    end inside).
    """
    G = model.graph
    burnt = [False] * G.n
    for v in order:
        burnt[v] = True
    reached = list(burnt)
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
        yield UnburntComponent(
            points=tuple(model.points[v] for v in comp),
            segments=tuple(model.medges[idx][2:] for idx in inner),
            boundary=tuple((model.points[v], outdeg[v]) for v in comp if v in outdeg),
            total_length=sum((model.lengths[idx] for idx in inner), _ZERO),
            cut_size=len(cut),
        ), cut


def metric_dhar(gamma, q, D):
    """Burn from q; chips at a point block the fire until overrun.

    Rejects divisors with negative weight off q.  A point burns when the
    number of burning directions into it exceeds its chip count; segment
    interiors burn as soon as either end does.
    """
    q = _as_point(q)
    if any(w < 0 and p != q for p, w in D):
        raise ValueError("divisor must be effective off q")
    model = _Model(gamma, [q, *D.support])
    order = _kernels.burn(model.graph, model.chips(D), model.vid_of[q])
    comps = tuple(comp for comp, _cut in _components(model, order))
    return MetricDharOutcome(
        reduced=not comps,
        burn_order=tuple(model.points[v] for v in order),
        components=comps,
    )


# ---------------------------------------------------------------------------
# Making a divisor effective off q: one rounded potential.

def metric_make_effective(gamma, q, D):
    """(E, f) with E = D + Delta(f) effective off q and f(q) = 0.

    On the model M at supp(D) and q, give each model vertex p != q the
    buffer nu(p) = ceil(c(p)) - 1, where c(p) sums 1/len + [1/len not an
    integer] over the model edges at p.  Let x be the j_q-potential of
    D - nu under conductance 1/len, so D - Delta(x) = nu off q, and take
    f = -ceil(x) at the model vertices.  On a model edge of length l with
    rise r, f has slope s + 1 = ceil(r/l) up to offset t = r - s l and slope
    s after it: one kink carrying one chip when t < l, none when r/l is an
    integer (always on edges of length 1/k).  Then every model vertex p != q
    ends with 0 <= E(p) < 2 c(p), whatever the size of D.
    """
    q = _as_point(q)
    model = _Model(gamma, [q, *D.support])  # an effective D off Gamma is refused too
    if D.is_effective(skip=q):
        return D, TropicalFunction.zero(gamma)
    q_vid = model.vid_of[q]
    chips = model.chips(D)
    c = [_ZERO] * len(chips)
    for (a, b, *_), length in zip(model.medges, model.lengths):
        k = 1 / length
        k += k.denominator != 1
        c[a] += k
        c[b] += k
    target = [w - (ceil(c[v]) - 1) * (v != q_vid) for v, w in enumerate(chips)]
    values = [-ceil(x) for x in _grounded_potential(model, q_vid, target)]
    kinks = []
    for (a, b, e, o1, _o2), length in zip(model.medges, model.lengths):
        rise = values[b] - values[a]
        s = ceil(rise / length) - 1
        t = rise - s * length
        chips[a] -= s + 1
        if t < length:
            chips[b] += s
            kinks.append((e, o1 + t, values[a] + (s + 1) * t))
        else:
            chips[b] += s + 1
    E = MetricDivisor(
        list(zip(model.points, chips))
        + [(gamma.point(e, offset), 1) for e, offset, _value in kinks]
    )
    f = _tropical_from_model(gamma, model, values, kinks)
    if D + metric_laplacian(gamma, f) != E or not E.is_effective(skip=q):
        raise AssertionError("the rounded potential failed to make D effective")
    return E, f


# ---------------------------------------------------------------------------
# Luo moves and metric reduction.

@dataclass(frozen=True)
class LuoIteration:
    """One move: raise f = min(dist(., X), eps) and add its Laplacian.

    drop is the exact decrease of b_q: total_length(X) * eps
    + cut_size(X)/2 * eps^2.
    """

    component: UnburntComponent
    epsilon: Fraction
    drop: Fraction
    before: MetricDivisor
    after: MetricDivisor


@dataclass(frozen=True)
class MetricReductionReport:
    """result = D + Delta(script).  after_make_effective = D +
    Delta(make_effective_script) is where the Luo moves start."""

    result: MetricDivisor
    script: TropicalFunction
    after_make_effective: MetricDivisor
    make_effective_script: TropicalFunction
    iterations: tuple


_MAX_LUO_ITERATIONS = 100000


def metric_reduce(gamma, q, D):
    """The q-reduced divisor equivalent to D, with the full move log.

    First clears negatives off q with metric_make_effective (a no-op when D
    is effective off q), then repeats Luo moves:
    burn from q, take the first stalled component X in canonical order,
    and add Delta(min(dist(., X), eps)) with eps the shortest model edge
    leaving X, that is, move one chip from X eps along every edge leaving
    it.  Each move decreases b_q by exactly l(X) eps + (cut/2) eps^2;
    termination has no a-priori bound, so a generous safety cap guards the
    loop.  The script is the make-effective script f0 plus one function per
    move, min(dist(., X), eps): 0 on X, min(t, eps) at distance t along an
    edge leaving X, and eps everywhere else, q included, so its value at q
    is sum(eps).  It is summed at the points of the loop's model and of
    supp(D), which carry its Laplacian (result - D), and is affine between
    them; D + Delta(script) == result is checked exactly.
    """
    q = _as_point(q)
    E0, f0 = metric_make_effective(gamma, q, D)
    E, log = E0, []
    # The script so far: at the model's points in level (by model vertex),
    # and in loose at the other points of supp(D), each inside the model
    # edge home[p], and at the points the last move created.  Before the
    # first model, loose holds them all.
    start = (*map(GraphPoint.vertex, range(gamma.n)), q, *E0.support, *D.support)
    loose = {p: f0.evaluate(p) for p in start}
    model = interior = None
    for _ in range(_MAX_LUO_ITERATIONS):
        # the model depends only on the interior points of {q} and supp(E)
        points = frozenset(p for p in (q, *E.support) if p.kind == "e")
        if points != interior:
            if model is not None:
                loose.update(zip(model.points, level))
            model, interior = _Model(gamma, [q, *E.support]), points
            level = [loose.pop(p) for p in model.points]
            home = {
                p: next(
                    idx
                    for idx, (_a, _b, e, o1, o2) in enumerate(model.medges)
                    if e == p.edge and o1 < p.offset < o2
                )
                for p in D.support
                if p in loose
            }
            loose = {p: loose[p] for p in home}
        order = _kernels.burn(model.graph, model.chips(E), model.vid_of[q])
        if len(order) == len(model.points):
            break
        comp, cut = next(_components(model, order))
        eps = min(model.lengths[idx] for idx, _v in cut)
        in_x = {model.vid_of[p] for p in comp.points}
        moves, created = [], {}
        for idx, v in cut:
            a, b, e, o1, o2 = model.medges[idx]
            # the end inside X is a model vertex; the far end may fold onto one
            far = gamma.point(e, o1 + eps if v == a else o2 - eps)
            moves += [(model.points[v], -1), (far, 1)]
            if far not in model.vid_of and far not in loose:
                # the script before the move is affine around a new point
                anchors = [(o1, level[a]), (o2, level[b])]
                anchors += [(p.offset, loose[p]) for p, i in home.items() if i == idx]
                created[far] = _interpolate(sorted(anchors), far.offset) + eps
        level = [x if v in in_x else x + eps for v, x in enumerate(level)]
        for p, idx in home.items():
            a, b, _e, o1, o2 = model.medges[idx]
            if a in in_x and b in in_x:
                rise = _ZERO
            elif a in in_x:
                rise = min(p.offset - o1, eps)
            elif b in in_x:
                rise = min(o2 - p.offset, eps)
            else:
                rise = eps
            loose[p] += rise
        loose.update(created)
        after = MetricDivisor(list(E) + moves)
        drop = comp.total_length * eps + Fraction(comp.cut_size, 2) * eps * eps
        log.append(
            LuoIteration(
                component=comp, epsilon=eps, drop=drop, before=E, after=after
            )
        )
        E = after
    else:
        raise RuntimeError("reduction did not terminate within the safety cap")
    kinks = [(p.edge, p.offset, x) for p, x in loose.items()]
    try:
        script = _tropical_from_model(gamma, model, level, kinks)
    except ValueError:  # non-integral slopes: faulty moves left E - D non-principal
        script = None
    if script is None or D + metric_laplacian(gamma, script) != E:
        raise AssertionError("the moves and the script's Laplacian disagree")
    return MetricReductionReport(
        result=E,
        script=script,
        after_make_effective=E0,
        make_effective_script=f0,
        iterations=tuple(log),
    )


# ---------------------------------------------------------------------------
# Exact potential theory on the model.

class MetricPotentials:
    """Exact j_q / resistance / E_q / b_q for a fixed base point q.

    Each query subdivides Gamma at q and the points it names and reads its
    answer off the potential of one divisor, grounded at q under conductance
    1/length: one single-column exact solve per query, with no cache.
    """

    def __init__(self, gamma, q):
        self.gamma = gamma
        self.q = _as_point(q)

    def j(self, x, y):
        """j_q(x, y): potential at y, current in at x and out at q."""
        x, y = _as_point(x), _as_point(y)
        model, phi = _grounded(self.gamma, self.q, MetricDivisor({x: 1}), y)
        return phi[model.vid_of[y]]

    def resistance(self, x, y=None):
        """Effective resistance r(x, y); y defaults to the base point."""
        x = _as_point(x)
        y = self.q if y is None else _as_point(y)
        dipole = MetricDivisor([(x, 1), (y, -1)])
        model, phi = _grounded(self.gamma, self.q, dipole, x, y)
        return phi[model.vid_of[x]] - phi[model.vid_of[y]]

    def q_energy(self, D):
        """E_q(D) = <D - deg(D) q, D - deg(D) q> = sum of D(p) phi_D(p), with
        phi_D the j_q-potential of D."""
        model, phi = _grounded(self.gamma, self.q, D)
        return sum(w * phi[model.vid_of[p]] for p, w in D)

    def b(self, D):
        """b_q(D) = integral over Gamma of phi_D, the j_q-potential of D."""
        model, phi = _grounded(self.gamma, self.q, D)
        return sum(
            (
                length * (phi[a] + phi[b]) / 2
                for (a, b, *_), length in zip(model.medges, model.lengths)
            ),
            _ZERO,
        )


def metric_potentials(gamma, q):
    return MetricPotentials(gamma, q)


def unit_metric(G):
    """The metric graph with every edge of length 1."""
    return MetricGraph(G, [1] * G.m)


def divisor_to_metric(gamma, D):
    """Lift a vertex-supported divisor onto the metric graph."""
    check_divisor(gamma, D)
    return MetricDivisor(
        {GraphPoint.vertex(v): c for v, c in enumerate(D) if c}
    )
