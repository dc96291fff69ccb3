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
the offsets and values a caller sees, integers for the linear algebra and
in ticks of one denominator for the scripts); nothing here uses floats.

The working tool is the model: the subdivision of Gamma at the support of
the divisor in play (plus q and all vertices), which refuses a point not on
Gamma.  Each model keeps its edge lengths as integer ticks over one
denominator of its own, so burning, moves and potentials compare and sum
integers on the model and map the results back to points.  A MetricGraph
builds its vertex points once and hands them out wherever a vertex is
meant, and its vertex model, whose only points are the vertices, from
first use (_model_at).  Each model keeps the factor of its Laplacian in
integer conductances, grounded at model vertex 0, from first use, and every
potential query reads j_q, r, E_q or b_q off one substitution into the
factor of the model at q and the points it names (_grounded).  A divisor
is made effective off q by one rounded j_q-potential, which leaves a number
of chips per model vertex bounded by the model alone.  The Luo moves then
run on the model at q and that step's support (Gamma's vertex model when
all are vertices), and a new one is built only when the interior points of
q and the support change.  What depends only on the model is
read once and kept on it: each model edge's segment of Gamma, each Gamma
edge's length in ticks and, from first use, make-effective's buffer.  Each
move only moves chips on the model's chip vector, reads its eps and its
moves in ticks off the cut that the walk of the stalled component lists,
and builds one Fraction per value it logs.  The script is read off the
move log after the loop: the make-effective script plus min(dist(., X),
eps) for each move, summed at the final model's points and the points of
supp(D), between which it is affine.  The sum adds integer ticks of one
denominator: every move's eps once to a running total for all points, and
a correction only at the points of X and the edge points within eps of it.
Every TropicalFunction, the public constructor's and both scripts alike, is
built by one integer routine (_fill): each slope a divmod of tick
differences (one divmod for an edge with no point inside), and one Fraction
per value it keeps.  The sum or difference of two divisors merges their
canonical entry lists in one pass by point key.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import exact, _kernels
from .graph import Graph, _rational, check_divisor


class MetricGraph:
    """A connected loopless multigraph with positive rational edge lengths;
    a float length raises TypeError.  Each vertex's GraphPoint is built
    once, here, and handed out by point and vertex_point; see _model_at for
    _vertex_model.  The lengths are also kept once in integer ticks:
    _length_ticks[e] / _den is edge e's length, _den the lcm of their
    denominators, so a model or a tropical function over a multiple of _den
    scales these instead of converting each Fraction again."""

    __slots__ = (
        "graph", "lengths", "_den", "_length_ticks", "_vertex_points", "_vertex_model",
        "__weakref__",
    )

    def __init__(self, graph, lengths):
        lengths = tuple(_rational(x) for x in lengths)
        if len(lengths) != graph.m:
            raise ValueError("need one length per edge")
        if any(x <= 0 for x in lengths):
            raise ValueError("edge lengths must be positive")
        self.graph = graph
        self.lengths = lengths
        self._den = den = lcm(*(x.denominator for x in lengths))
        self._length_ticks = tuple(_ticks(x, den) for x in lengths)
        self._vertex_points = tuple(GraphPoint.vertex(v) for v in range(graph.n))
        self._vertex_model = None

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
            return self._vertex_points[u]
        if offset == self.lengths[edge]:
            return self._vertex_points[v]
        return GraphPoint("e", edge, offset)

    def vertex_point(self, v):
        if not (0 <= v < self.n):
            raise ValueError("vertex index out of range")
        return self._vertex_points[v]

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
    weights that are not integers raise TypeError.

    entries lists the (point, weight) pairs of nonzero weight in canonical
    point order.  The constructor checks and merges what a caller hands it;
    the divisors the library builds from its own points and integer weights
    skip those checks: a sum or difference is one linear pass over the two
    entry lists by point key (_combined), and a Luo move's divisor, read off
    the model's chip vector, and metric_laplacian's, built vertex by vertex
    and then kink by kink, come already in canonical order (_of_entries).
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        if isinstance(entries, dict):
            entries = entries.items()
        acc = {}
        for p, w in entries:
            p = _as_point(p)
            acc[p] = acc.get(p, 0) + operator.index(w)
        # points in acc are distinct, so sorting on their keys alone keeps the
        # canonical order without calling GraphPoint's comparisons
        nonzero = ((p, w) for p, w in acc.items() if w)
        self.entries = tuple(sorted(nonzero, key=lambda pw: pw[0]._key))

    @classmethod
    def _of_entries(cls, entries):
        """The divisor whose entries are already canonical: distinct points
        in canonical order, each with a nonzero int weight."""
        D = object.__new__(cls)
        D.entries = tuple(entries)
        return D

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
        """Every weight is >= 0, except perhaps at `skip`, a point or a vertex
        index as get takes it."""
        if skip is not None:
            skip = _as_point(skip)
        return all(w >= 0 for p, w in self.entries if p != skip)

    def __add__(self, other):
        return MetricDivisor._of_entries(_combined(self.entries, other.entries))

    def __sub__(self, other):
        negated = [(p, -w) for p, w in other.entries]
        return MetricDivisor._of_entries(_combined(self.entries, negated))

    def __eq__(self, other):
        return isinstance(other, MetricDivisor) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        return f"MetricDivisor({list(self.entries)!r})"


def _combined(xs, ys):
    """The entries of the sum of two divisors, given as their canonical
    entries: one pass over both by point key, each point once, zero sums
    dropped."""
    out, i, n = [], 0, len(xs)
    for r, u in ys:
        key = r._key
        while i < n and xs[i][0]._key < key:
            out.append(xs[i])
            i += 1
        if i < n and xs[i][0]._key == key:
            p, w = xs[i]
            if w + u:
                out.append((p, w + u))
            i += 1
        else:
            out.append((r, u))
    out.extend(xs[i:])
    return out


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
        values = tuple(_rational(x) for x in vertex_values)
        if len(values) != gamma.n:
            raise ValueError("need one value per vertex")
        if breaks is None:
            breaks = [()] * gamma.m
        if len(breaks) != gamma.m:
            raise ValueError("need one breakpoint list per edge")
        inner = []  # the checked (offset, value) breakpoints of each edge
        for length, points in zip(gamma.lengths, breaks):
            anchors, last = [], _ZERO
            for o, val in points:
                o = _rational(o)
                if not (0 < o < length):
                    raise ValueError("breakpoint offset outside edge interior")
                if o <= last:
                    raise ValueError("breakpoints must be strictly increasing")
                anchors.append((o, _rational(val)))
                last = o
            inner.append(anchors)
        den = lcm(gamma._den, *(x.denominator for x in values),
                  *(x.denominator for anchors in inner for anchor in anchors for x in anchor))
        scale = den // gamma._den
        _fill(self, gamma, den, [_ticks(x, den) for x in values],
              [[(_ticks(o, den), _ticks(x, den), o) for o, x in anchors] for anchors in inner],
              [t * scale for t in gamma._length_ticks])

    @classmethod
    def zero(cls, gamma):
        return cls(gamma, [0] * gamma.n)

    def evaluate(self, p):
        """f(p); a point off Gamma raises ValueError."""
        p = _as_point(p)
        if p.kind == "e":
            p = self.gamma.point(p.edge, p.offset)  # an endpoint becomes its vertex
        if p.kind == "v":
            self.gamma.vertex_point(p.index)  # raises off Gamma
            return self.vertex_values[p.index]
        u, v = self.gamma.graph.edges[p.edge]
        anchors = [
            (_ZERO, self.vertex_values[u]),
            *self.breaks[p.edge],
            (self.gamma.lengths[p.edge], self.vertex_values[v]),
        ]
        return _interpolate(anchors, p.offset)

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


def _ticks(x, den):
    """The rational x in integer ticks of den, a multiple of x's denominator."""
    return x.numerator * (den // x.denominator)


def _fill(f, gamma, den, values, inner, ends):
    """f, its fields set: the function on Gamma with value values[v] / den at
    each vertex v and affine between those and the anchors inner[e] of each
    edge e, (offset ticks, value ticks, offset) strictly inside the edge in
    increasing order, all in integer ticks of den, a multiple of the
    denominators of Gamma's lengths; ends[e] is edge e's length in those
    ticks.  Each slope is a divmod of tick differences, and one that is not
    an integer raises ValueError; only the anchors where the slope changes
    are kept, one Fraction per value.  An edge with no anchor is one piece:
    one divmod."""
    breaks, slopes = [], []
    for (u, v), end, anchors in zip(gamma.graph.edges, ends, inner):
        if not anchors:
            slope, r = divmod(values[v] - values[u], end)
            if r:
                raise ValueError("slopes must be integers")
            breaks.append(())
            slopes.append((slope,))
            continue
        t0, x0, o0, kinks, s = 0, values[u], None, [], []
        for t, x, o in (*anchors, (end, values[v], None)):
            slope, r = divmod(x - x0, t - t0)
            if r:
                raise ValueError("slopes must be integers")
            if not s or slope != s[-1]:
                if s:
                    kinks.append((o0, Fraction(x0, den)))
                s.append(slope)
            t0, x0, o0 = t, x, o
        breaks.append(tuple(kinks))
        slopes.append(tuple(s))
    f.gamma = gamma
    f.vertex_values = tuple([Fraction(x, den) for x in values[:gamma.n]])
    f.breaks = tuple(breaks)
    f._slopes = tuple(slopes)
    return f


def metric_laplacian(gamma, f):
    """Delta(f) as a MetricDivisor: -(sum of outgoing slopes) at each kink.

    The slopes at the vertices add up in a list indexed by vertex, and the
    kinks come edge by edge in offset order, each of nonzero weight since
    _fill keeps only slope changes: the entries are in canonical point order
    as they are built, with no merge and no sort."""
    if f.gamma != gamma:
        raise ValueError("function does not live on this metric graph")
    at, kinks = [0] * gamma.n, []
    for e, ((u, v), slopes) in enumerate(zip(gamma.graph.edges, f._slopes)):
        # outgoing slope at u along e is slopes[0]; at v it is -slopes[-1]
        at[u] -= slopes[0]
        at[v] += slopes[-1]
        if len(slopes) > 1:
            for (o, _), s1, s2 in zip(f.breaks[e], slopes, slopes[1:]):
                kinks.append((GraphPoint("e", e, o), s1 - s2))
    vertex = gamma._vertex_points
    return MetricDivisor._of_entries([*((vertex[v], w) for v, w in enumerate(at) if w), *kinks])


# ---------------------------------------------------------------------------
# The model: subdivision at a point set.

class _Model:
    """Subdivision of Gamma at a set of points (all vertices included).

    Model vertex ids follow the canonical point order: original vertices
    0..n-1 first, then interior points by (edge, offset).  Model edges are
    the maximal subsegments between consecutive model vertices, each of
    positive length: a point not on Gamma (an index out of range, or an edge
    offset not strictly inside its edge) raises ValueError; an edge with no
    interior point is one model edge.  Lengths are integer ticks over one
    denominator: ticks[i] / den is the length of medges[i], with den the lcm
    of the denominators of Gamma's lengths and the interior offsets.

    What depends only on the model is built once: segments[i] is medges[i]'s
    (edge, start, end) segment of Gamma, as a stalled component lists it,
    and edge_ticks[e] is Gamma's edge e in ticks of den, scaled from Gamma's
    own ticks.  A model holds no reference to Gamma and, as it may be
    Gamma's shared vertex model, changes after construction only by keeping
    its factor and make-effective's buffer, each built on first use.
    """

    __slots__ = (
        "points", "vid_of", "medges", "segments", "ticks", "edge_ticks", "den", "graph",
        "_factor", "_buffer", "__weakref__",
    )

    def __init__(self, gamma, extra_points):
        per_edge = {}
        for p in extra_points:
            p = _as_point(p)
            if p.kind == "v":
                gamma.vertex_point(p.index)  # raises off Gamma
            elif not (0 <= p.edge < gamma.m):
                raise ValueError("edge index out of range")
            elif not (0 < p.offset < gamma.lengths[p.edge]):
                on_edge = 0 <= p.offset <= gamma.lengths[p.edge]
                raise ValueError("edge point offset not strictly inside its edge"
                                 if on_edge else "offset outside the edge")
            else:
                per_edge.setdefault(p.edge, {})[p.offset] = p
        self.den = den = lcm(
            gamma._den, *(o.denominator for offsets in per_edge.values() for o in offsets),
        )
        scale = den // gamma._den
        points = list(gamma._vertex_points)
        self.medges = []  # (vid_a, vid_b, edge, start_off, end_off)
        self.ticks = []
        self.edge_ticks = []
        for e, (u, v) in enumerate(gamma.graph.edges):
            a, o1, t1 = u, _ZERO, 0
            for o2, p in sorted(per_edge.get(e, {}).items()):
                b, t2 = len(points), _ticks(o2, den)
                points.append(p)
                self.medges.append((a, b, e, o1, o2))
                self.ticks.append(t2 - t1)
                a, o1, t1 = b, o2, t2
            self.medges.append((a, v, e, o1, gamma.lengths[e]))
            self.edge_ticks.append(gamma._length_ticks[e] * scale)
            self.ticks.append(self.edge_ticks[-1] - t1)
        self.segments = [medge[2:] for medge in self.medges]
        self.points = tuple(points)
        self.vid_of = {p: i for i, p in enumerate(points)}
        self.graph = Graph(len(points), [(a, b) for a, b, *_ in self.medges])
        self._factor = self._buffer = None

    def grounded_factor(self):
        """(s, F), built on first use and kept: F is exact's Factor of the
        model Laplacian without vertex 0's row and column, scaled to
        integers by s = lcm(den, ticks) / den (an edge of t ticks, with
        conductance den/t, gets lcm(den, ticks) / t).  Its rows are built
        as {column: entry} dicts, with no dense matrix; the model is
        loopless and connected, so no entry they hold sums to 0."""
        if self._factor is None:
            full = lcm(self.den, *self.ticks)
            rows = [{} for _ in self.points[1:]]
            for (a, b, *_), t in zip(self.medges, self.ticks):
                c = full // t
                for u, w in ((a, b), (b, a)):
                    if u:
                        row = rows[u - 1]
                        row[u - 1] = row.get(u - 1, 0) + c
                        if w:
                            row[w - 1] = row.get(w - 1, 0) - c
            self._factor = full // self.den, exact._factor_rows(len(rows), rows)
        return self._factor

    def buffer(self):
        """nu, built on first use and kept: make-effective's buffer
        ceil(c(p)) - 1 at each model vertex p, where c(p) sums 1/len + [1/len
        not an integer] over the model edges at p.  An edge of t ticks has
        1/len = den/t, an integer iff t divides den, so s * c(p) is an
        integer for the factor's scale s, and ceil(c(p)) = -(-s c(p) // s)."""
        if self._buffer is None:
            scale, _ = self.grounded_factor()
            c = [0] * len(self.points)
            for (a, b, *_), t in zip(self.medges, self.ticks):
                k = scale * self.den // t + scale * (self.den % t != 0)
                c[a] += k
                c[b] += k
            self._buffer = [-(-x // scale) - 1 for x in c]
        return self._buffer

    def chips(self, D):
        vec = [0] * len(self.points)
        for p, w in D:
            vec[self.vid_of[p]] += w
        return vec

    def along(self, idx, v, t):
        """The point t ticks along model edge idx from its end v, strictly
        inside the edge: 0 < t < ticks[idx]."""
        a, _b, e, o1, _o2 = self.medges[idx]
        start = _ticks(o1, self.den)
        end = start + t if v == a else start + self.ticks[idx] - t
        return GraphPoint("e", e, Fraction(end, self.den))


def _tropical_from_model(gamma, model, den, values, kinks=()):
    """The TropicalFunction with `values` (one per model vertex) at the model
    vertices, affine between them and the (interior point, value) `kinks`.

    Every value is an integer over den, a multiple of model.den and of each
    kink's offset denominator, so _fill builds it off these anchors in ticks
    of den, with none of the constructor's checks of a caller's arguments; a
    slope that is not an integer raises ValueError."""
    n = gamma.n  # model vertex ids from n on are the interior points
    inner = [[] for _ in range(gamma.m)]
    for p, value in [*zip(model.points[n:], values[n:]), *kinks]:
        inner[p.edge].append((_ticks(p.offset, den), value, p.offset))
    for anchors in inner:
        anchors.sort()  # distinct offsets, so only the ticks are compared
    ends = model.edge_ticks
    if den != model.den:
        ends = [t * (den // model.den) for t in ends]
    return _fill(object.__new__(TropicalFunction), gamma, den, values, inner, ends)


def _grounded_potential(model, q_vid, chips):
    """(d, x): x / d is the j_q-potential of chips under conductance
    1/length, with x(q) = 0, Delta(x / d) = chips at every other model vertex
    and x / d affine on model edges, from one substitution into the
    model's factor.  q's entry makes the right-hand side sum to 0, so the
    solution grounded at vertex 0 also holds at q, and x is that solution
    less its value at q.  Every grounding has the same determinant
    (matrix-tree), so (d, x) is the pair a solve grounded at q gives."""
    scale, fac = model.grounded_factor()
    rhs = [scale * w for w in chips]
    rhs[q_vid] -= sum(rhs)
    d, sol = exact.substitute(fac, [[w] for w in rhs[1:]])
    x = [0, *(value for value, in sol)]
    at_q = x[q_vid]
    return d, [value - at_q for value in x]


def _model_at(gamma, points):
    """The model of Gamma at `points`: Gamma's vertex model, built on first
    use and kept, when all are vertices, else a model of their own.  Either
    way a point not on Gamma raises ValueError."""
    if any(p.kind == "e" for p in points):
        return _Model(gamma, points)
    for p in points:
        gamma.vertex_point(p.index)  # raises off Gamma
    if gamma._vertex_model is None:
        gamma._vertex_model = _Model(gamma, ())
    return gamma._vertex_model


def _grounded(gamma, q, D, *points):
    """(model at q, supp(D) and points, d, x): x / d is the j_q-potential of
    D on that model, as _grounded_potential gives it."""
    model = _model_at(gamma, [q, *D.support, *points])
    return (model, *_grounded_potential(model, model.vid_of[q], model.chips(D)))


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
    """Yield (component, cut, T) for the components the fire from q could not
    enter, in canonical order, building each only when asked for.

    Each is walked over the model graph from the lowest unburnt model vertex
    no earlier walk reached, which is then its smallest point, so the
    components come out by their first point; segments and boundary are read
    off the component's own incident edges.  One walk lists them with no set
    or dict: each inner edge once, from its end with the lower model id, and
    each boundary vertex with its count of edges toward the burnt set; the
    two lists are sorted once.  cut lists the edges leaving the component,
    all of them toward burnt vertices, as (model edge index, end inside).
    T is the inner edges' tick sum, and total_length is Fraction(T, den).
    """
    G, points, segments, ticks = model.graph, model.points, model.segments, model.ticks
    burnt = [False] * G.n
    for v in order:
        burnt[v] = True
    reached = list(burnt)
    for start in range(G.n):
        if reached[start]:
            continue
        reached[start] = True
        comp, stack, inner, boundary, cut = [], [start], [], [], []
        while stack:
            v = stack.pop()
            comp.append(v)
            out = 0
            for w, idx in zip(G._nbrs[v], G._inc[v]):
                if burnt[w]:
                    out += 1
                    cut.append((idx, v))
                    continue
                if v < w:  # the model is loopless
                    inner.append(idx)
                if not reached[w]:
                    reached[w] = True
                    stack.append(w)
            if out:
                boundary.append((v, out))
        comp.sort()
        inner.sort()
        boundary.sort()
        T = sum(map(ticks.__getitem__, inner))
        yield UnburntComponent(
            points=tuple([points[v] for v in comp]),
            segments=tuple([segments[idx] for idx in inner]),
            boundary=tuple([(points[v], out) for v, out in boundary]),
            total_length=Fraction(T, model.den),
            cut_size=len(cut),
        ), cut, T


def metric_dhar(gamma, q, D):
    """Burn from q; chips at a point block the fire until overrun.

    Rejects divisors with negative weight off q.  A point burns when the
    number of burning directions into it exceeds its chip count; segment
    interiors burn as soon as either end does.
    """
    q = _as_point(q)
    if not D.is_effective(skip=q):
        raise ValueError("divisor must be effective off q")
    model = _model_at(gamma, [q, *D.support])
    order = _kernels.burn(model.graph, model.chips(D), model.vid_of[q])
    comps = tuple(comp for comp, *_ in _components(model, order))
    burn_order = tuple(model.points[v] for v in order)
    return MetricDharOutcome(reduced=not comps, burn_order=burn_order, components=comps)


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
    model = _model_at(gamma, [q, *D.support])  # an effective D off Gamma is refused too
    if D.is_effective(skip=q):
        return D, TropicalFunction.zero(gamma)
    q_vid, den = model.vid_of[q], model.den
    chips = model.chips(D)
    # D - nu off q: _grounded_potential sets q's entry itself
    d, x = _grounded_potential(model, q_vid, [w - nu for w, nu in zip(chips, model.buffer())])
    values = [-v // d for v in x]  # -ceil(v / d)
    kinks = []  # (point, value in ticks): the kink t ticks from a, 0 < t < ticks
    for i, ((a, b, *_), ticks) in enumerate(zip(model.medges, model.ticks)):
        rise = values[b] - values[a]
        s = -(-rise * den // ticks) - 1
        t = rise * den - s * ticks
        chips[a] -= s + 1
        if t < ticks:
            chips[b] += s
            kinks.append((model.along(i, a, t), values[a] * den + (s + 1) * t))
        else:
            chips[b] += s + 1
    E = [(p, w) for p, w in zip(model.points, chips) if w]
    # model points in id order and kinks in model-edge order, each strictly
    # inside a model edge, are both canonical
    E = MetricDivisor._of_entries(_combined(E, [(p, 1) for p, _ in kinks]))
    f = _tropical_from_model(gamma, model, den, [x * den for x in values], kinks)
    if D + metric_laplacian(gamma, f) != E or not E.is_effective(skip=q):
        raise AssertionError("the rounded potential failed to make D effective")
    return E, f


# ---------------------------------------------------------------------------
# Luo moves and metric reduction.

@dataclass(frozen=True)
class LuoIteration:
    """One move: raise f = min(dist(., X), eps) and add its Laplacian; drop
    is the exact decrease of b_q, total_length(X) eps + cut_size(X)/2 eps^2."""

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

    First clears negatives off q with metric_make_effective (a no-op when
    D is effective off q), then repeats Luo moves on the model at q and
    the support of its result, rebuilt only when the interior points of q
    and the support change: burn from q, take the first stalled component
    X in canonical order, and add Delta(min(dist(., X), eps)) with eps the
    shortest model edge leaving X, that is, move one chip from X eps along
    every edge leaving it.  The divisor lives as the model's chip vector,
    which a move updates in place; a chip that lands inside a model edge,
    or a point other than q left empty, builds the model anew.  Each logged
    divisor is read off the vector in model order, which is the canonical
    point order.  Each move decreases b_q by exactly l(X) eps +
    (cut/2) eps^2.  The loop has a budget of _MAX_LUO_ITERATIONS = 100000
    moves, and an input that needs more is refused with ValueError naming
    its common denominator N, the lcm of Gamma's length denominators and
    the offset denominators of q and supp(D).  The script is read off the
    log after it: the make-effective script f0 plus min(dist(., X), eps)
    for each move (eps at q), summed at the final model's points and
    supp(D), which carry its Laplacian (result - D), and affine between
    them; D + Delta(script) == result is checked exactly.
    """
    q = _as_point(q)
    E0, f0 = metric_make_effective(gamma, q, D)
    E, log = E0, []
    # the denominator of the model at q and supp(D), which make-effective ran on
    N = lcm(gamma._den, *(p.offset.denominator for p in (q, *D.support) if p.kind == "e"))
    model = _model_at(gamma, [q, *E.support])
    chips, q_vid, n = model.chips(E), model.vid_of[q], gamma.n
    for _ in range(_MAX_LUO_ITERATIONS):
        order = _kernels.burn(model.graph, chips, q_vid)
        if len(order) == len(model.points):
            break
        comp, cut, T = next(_components(model, order))
        # eps is t ticks of the model's den; the inner edges sum to T ticks
        den, ticks = model.den, model.ticks
        t = min([ticks[idx] for idx, _v in cut])
        created = []
        for idx, v in cut:  # one chip from v, inside X, eps along each cut edge
            chips[v] -= 1
            a, b = model.medges[idx][:2]
            if t == ticks[idx]:
                chips[b if v == a else a] += 1
            else:
                created.append(model.along(idx, v, t))
        # a move changes those points when it creates one or empties one but q
        if created or any(v >= n and v != q_vid and not chips[v] for _i, v in cut):
            kept = [(p, w) for p, w in zip(model.points, chips) if w]
            model = _model_at(gamma, [q, *(p for p, _ in kept), *created])
            chips, q_vid = model.chips(kept + [(p, 1) for p in created]), model.vid_of[q]
        # model ids follow the canonical point order, so the chips read off in
        # id order are the divisor's entries as they are
        after = MetricDivisor._of_entries([(p, w) for p, w in zip(model.points, chips) if w])
        # the drop l(X) eps + (cut/2) eps^2 over the common denominator 2 den^2
        drop = Fraction(2 * T * t + comp.cut_size * t * t, 2 * den * den)
        eps = Fraction(t, den)
        log.append(LuoIteration(component=comp, epsilon=eps, drop=drop, before=E, after=after))
        E = after
    else:
        raise ValueError(f"more than _MAX_LUO_ITERATIONS = {_MAX_LUO_ITERATIONS} Luo moves,"
                         f" the budget, on an input of common denominator N = {N}")
    loose = [p for p in D.support if p not in model.vid_of]
    sites = [*model.points, *loose]
    values = [*f0.vertex_values, *map(f0.evaluate, sites[n:])]  # sites[:n] are the vertices
    # the sum in ticks of L: f0's values, every eps and every offset of X or
    # of a site are multiples of 1/L.  Every model's den divides N: its points
    # are q, supp(D) and make-effective's kinks, whole ticks of N, and points
    # a move put a whole number of ticks of such a model from one of them
    L = lcm(N, *(x.denominator for x in values))
    values = [_ticks(x, L) for x in values]
    on_edge = {}  # Gamma edge -> its edge sites, as (site index, offset ticks)
    for i in range(n, len(sites)):
        on_edge.setdefault(sites[i].edge, []).append((i, _ticks(sites[i].offset, L)))
    total = 0  # every move's eps, which each site gets less its correction
    for it in log:
        total += _add_move(gamma, it.component, it.epsilon, values, on_edge, L)
    values = [x + total for x in values]
    kinks = zip(loose, values[len(model.points):])
    try:
        script = _tropical_from_model(gamma, model, L, values, kinks)
    except ValueError:  # non-integral slopes: faulty moves left E - D non-principal
        script = None
    if script is None or D + metric_laplacian(gamma, script) != E:
        raise AssertionError("the moves and the script's Laplacian disagree")
    return MetricReductionReport(
        result=E, script=script, after_make_effective=E0, make_effective_script=f0,
        iterations=tuple(log),
    )


def _add_move(gamma, X, eps, values, on_edge, den):
    """Return eps in integer ticks of den, and add min(dist(p, X), eps) - eps
    to values[i] for each site p, the i-th, closer than eps to X: the caller
    adds the sum of the returned eps to every site once, so a site far from
    X costs nothing.  values[i] is an integer over den, and eps, every offset
    of X and of the sites and the lengths of their edges are multiples of
    1/den.  The sites are Gamma's vertices in index order, then edge points;
    on_edge maps each edge of Gamma that holds edge sites to their (site
    index, offset in ticks) pairs.

    A vertex is 0 away when X holds it, else eps or more.  Every model edge
    leaving X is at least eps long, so an edge point is read along its own
    edge: 0 inside a segment of X, else the offset to the nearest point of X
    there (its own offset when X holds it, an end of the edge when X holds
    that vertex), capped at eps.  Only an edge that X meets, by a point, a
    segment or an end, has sites closer than eps to X.
    """
    eps = _ticks(eps, den)
    at_vertex, offsets, segments = set(), {}, {}
    for p in X.points:
        if p.kind == "v":
            values[p.index] -= eps
            at_vertex.add(p.index)
        else:
            offsets.setdefault(p.edge, []).append(p.offset)
    if not on_edge:
        return eps
    for e, o1, o2 in X.segments:
        segments.setdefault(e, []).append((o1, o2))
    for e, edge_sites in on_edge.items():
        u, v = gamma.graph.edges[e]
        if e not in offsets and u not in at_vertex and v not in at_vertex:
            continue  # X misses edge e: the ends of its segments are in X
        for i, o in edge_sites:
            if any(_ticks(o1, den) < o < _ticks(o2, den) for o1, o2 in segments.get(e, ())):
                values[i] -= eps
                continue
            ends = zip((u, v), (_ZERO, gamma.lengths[e]))
            near = offsets.get(e, []) + [x for w, x in ends if w in at_vertex]
            values[i] += min([eps] + [abs(o - _ticks(x, den)) for x in near]) - eps
    return eps


# ---------------------------------------------------------------------------
# Exact potential theory on the model.

class MetricPotentials:
    """Exact j_q / resistance / E_q / b_q for a fixed base point q.

    Each query subdivides Gamma at q and the points it names and reads its
    answer off the potential of one divisor, grounded at q under conductance
    1/length: one substitution into the model's factor per query.
    """

    def __init__(self, gamma, q):
        self.gamma = gamma
        self.q = _as_point(q)

    def j(self, x, y):
        """j_q(x, y): potential at y, current in at x and out at q."""
        x, y = _as_point(x), _as_point(y)
        model, d, phi = _grounded(self.gamma, self.q, MetricDivisor({x: 1}), y)
        return Fraction(phi[model.vid_of[y]], d)

    def resistance(self, x, y=None):
        """Effective resistance r(x, y); y defaults to the base point."""
        x = _as_point(x)
        y = self.q if y is None else _as_point(y)
        dipole = MetricDivisor([(x, 1), (y, -1)])
        model, d, phi = _grounded(self.gamma, self.q, dipole, x, y)
        return Fraction(phi[model.vid_of[x]] - phi[model.vid_of[y]], d)

    def q_energy(self, D):
        """E_q(D) = <D - deg(D) q, D - deg(D) q> = sum of D(p) phi_D(p), with
        phi_D the j_q-potential of D."""
        model, d, phi = _grounded(self.gamma, self.q, D)
        return Fraction(sum(w * phi[model.vid_of[p]] for p, w in D), d)

    def b(self, D):
        """b_q(D) = integral over Gamma of phi_D, the j_q-potential of D."""
        model, d, phi = _grounded(self.gamma, self.q, D)
        # phi / d is affine on a model edge of t ticks: its integral there is
        # t / den * (phi(a) + phi(b)) / 2d
        pieces = zip(model.medges, model.ticks)
        return Fraction(sum(t * (phi[a] + phi[b]) for (a, b, *_), t in pieces), 2 * d * model.den)


def metric_potentials(gamma, q):
    return MetricPotentials(gamma, q)


def unit_metric(G):
    """The metric graph with every edge of length 1."""
    return MetricGraph(G, [1] * G.m)


def divisor_to_metric(gamma, D):
    """Lift a vertex-supported divisor onto the metric graph."""
    check_divisor(gamma, D)
    return MetricDivisor({gamma._vertex_points[v]: c for v, c in enumerate(D) if c})
