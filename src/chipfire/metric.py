"""Metric graphs: tropical functions, the metric Laplacian, burning, and
exact reduction.

Points live on a metric graph Gamma (a graph with positive rational edge
lengths) either at vertices or at interior offsets of an edge.  Tropical
functions are continuous piecewise linear with integer slopes; their
Laplacian puts -(sum of outgoing slopes) at every kink.  A TropicalFunction
is a canonical value: it keeps only its true kinks from the moment it is
built, and there is no algebra on functions, since every script is built
once as a potential.  All arithmetic is exact (Fractions); nothing here uses
floats.

The working tool is the model: the subdivision of Gamma at the support of
the divisor in play (plus q and all vertices).  Burning, moves and
potentials are all computed on the model and mapped back to points.  Every
potential is the j_q-potential of one divisor from one exact single-column
solve on a fresh model, and j_q, r, E_q and b_q are read off such a
potential; nothing is cached.  A divisor is made effective off q by one
rounded j_q-potential, which leaves a number of chips per model vertex
bounded by the model alone; Luo moves then only move chips.  Since Delta
fixes a function up to a constant, the reduction's script is built once
afterwards, as the potential of (result - D).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from . import exact, _kernels
from .graph import Graph


class MetricGraph:
    """A connected loopless multigraph with positive rational edge lengths."""

    __slots__ = ("graph", "lengths")

    def __init__(self, graph, lengths):
        lengths = tuple(Fraction(x) for x in lengths)
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
        offset = Fraction(offset)
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
    used for burn sequences and component selection.
    """

    __slots__ = ("kind", "index", "edge", "offset", "_key", "_hash")

    def __init__(self, kind, a, b=None):
        if kind == "v":
            self.kind = "v"
            self.index = int(a)
            self.edge = None
            self.offset = None
            self._key = (0, self.index, _ZERO)
        elif kind == "e":
            self.kind = "e"
            self.index = None
            self.edge = int(a)
            self.offset = Fraction(b)
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
    return GraphPoint.vertex(int(p))


class MetricDivisor:
    """Finitely supported integer divisor on the points of a metric graph."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        if isinstance(entries, dict):
            items = entries.items()
        else:
            items = entries
        acc = {}
        for p, w in items:
            p = _as_point(p)
            w = int(w)
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
    fields.  Continuity is automatic because endpoint values are shared via
    the vertices.
    """

    __slots__ = ("gamma", "vertex_values", "breaks")

    def __init__(self, gamma, vertex_values, breaks=None):
        self.gamma = gamma
        self.vertex_values = tuple(Fraction(x) for x in vertex_values)
        if len(self.vertex_values) != gamma.n:
            raise ValueError("need one value per vertex")
        if breaks is None:
            breaks = [()] * gamma.m
        if len(breaks) != gamma.m:
            raise ValueError("need one breakpoint list per edge")
        self.breaks = tuple(self._kinks(e, breaks[e]) for e in range(gamma.m))

    def _kinks(self, e, points):
        """The (offset, value) `points` on edge e where the slope changes,
        after checking every offset and that every slope is an integer."""
        u, v = self.gamma.graph.edges[e]
        length = self.gamma.lengths[e]
        anchors = [(_ZERO, self.vertex_values[u])]
        for o, val in points:
            o = Fraction(o)
            if not (0 < o < length):
                raise ValueError("breakpoint offset outside edge interior")
            if o <= anchors[-1][0]:
                raise ValueError("breakpoints must be strictly increasing")
            anchors.append((o, Fraction(val)))
        anchors.append((length, self.vertex_values[v]))
        kinks, last = [], None
        for (o1, v1), (o2, v2) in zip(anchors, anchors[1:]):
            s = (v2 - v1) / (o2 - o1)
            if s.denominator != 1:
                raise ValueError("slopes must be integers")
            if last is not None and s != last:
                kinks.append((o1, v1))
            last = s
        return tuple(kinks)

    def _anchors(self, e):
        u, v = self.gamma.graph.edges[e]
        return (
            [(Fraction(0), self.vertex_values[u])]
            + list(self.breaks[e])
            + [(self.gamma.lengths[e], self.vertex_values[v])]
        )

    def _slopes(self, e):
        anchors = self._anchors(e)
        return [
            (v2 - v1) / (o2 - o1)
            for (o1, v1), (o2, v2) in zip(anchors, anchors[1:])
        ]

    @classmethod
    def zero(cls, gamma):
        return cls(gamma, [0] * gamma.n)

    def evaluate(self, p):
        p = _as_point(p)
        if p.kind == "v":
            return self.vertex_values[p.index]
        anchors = self._anchors(p.edge)
        for (o1, v1), (o2, v2) in zip(anchors, anchors[1:]):
            if o1 <= p.offset <= o2:
                return v1 + (v2 - v1) * (p.offset - o1) / (o2 - o1)
        raise AssertionError("offset not covered by anchors")

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


def metric_laplacian(gamma, f):
    """Delta(f) as a MetricDivisor: -(sum of outgoing slopes) at each kink."""
    if f.gamma != gamma:
        raise ValueError("function does not live on this metric graph")
    weights = {}

    def bump(point, w):
        if w:
            weights[point] = weights.get(point, 0) + w

    for e in range(gamma.m):
        u, v = gamma.graph.edges[e]
        anchors = f._anchors(e)
        slopes = f._slopes(e)
        # outgoing slope at u along e is slopes[0]; at v it is -slopes[-1]
        bump(GraphPoint.vertex(u), -int(slopes[0]))
        bump(GraphPoint.vertex(v), int(slopes[-1]))
        for i in range(1, len(anchors) - 1):
            o, _ = anchors[i]
            sigma = slopes[i - 1] - slopes[i]
            bump(gamma.point(e, o), int(sigma))
    return MetricDivisor(weights)


# ---------------------------------------------------------------------------
# The model: subdivision at a point set.

class _Model:
    """Subdivision of Gamma at a set of points (all vertices included).

    Model vertex ids follow the canonical point order: original vertices
    0..n-1 first, then interior points by (edge, offset).  Model edges are
    the maximal subsegments between consecutive model vertices.
    """

    __slots__ = ("gamma", "points", "vid_of", "medges", "graph")

    def __init__(self, gamma, extra_points):
        self.gamma = gamma
        per_edge = {}
        for p in extra_points:
            p = _as_point(p)
            if p.kind == "e":
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
        self.graph = Graph(len(self.points), [(a, b) for a, b, *_ in self.medges])

    def chips(self, D):
        vec = [0] * len(self.points)
        for p, w in D:
            vec[self.vid_of[p]] += w
        return vec


def _model_for(gamma, q, D):
    return _Model(gamma, [q, *D.support])


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
    with q's row and column removed."""
    keep = [v for v in range(len(model.points)) if v != q_vid]
    row_of = {v: i for i, v in enumerate(keep)}
    lap = [[_ZERO] * len(keep) for _ in keep]
    for a, b, _e, o1, o2 in model.medges:
        c = 1 / (o2 - o1)
        for u, w in ((a, b), (b, a)):
            if u != q_vid:
                lap[row_of[u]][row_of[u]] += c
                if w != q_vid:
                    lap[row_of[u]][row_of[w]] -= c
    x = [_ZERO] * len(model.points)
    for v, (value,) in zip(keep, exact.solve(lap, [[chips[v]] for v in keep])):
        x[v] = value
    return x


def _potential(gamma, q, delta, value_at_q):
    """The function f with Delta(f) = delta and f(q) = value_at_q."""
    model = _model_for(gamma, q, delta)
    x = _grounded_potential(model, model.vid_of[q], model.chips(delta))
    return _tropical_from_model(gamma, model, [value_at_q + v for v in x])


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
    """Yield the components the fire from q could not enter, in canonical
    order, building each only when asked for.

    Each is walked over the model graph from the lowest unburnt model vertex
    no earlier walk reached, which is then its smallest point, so the
    components come out by their first point; segments and boundary are read
    off the component's own incident edges.
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
        comp, stack, inner, outdeg = [], [start], set(), {}
        while stack:
            v = stack.pop()
            comp.append(v)
            for w, idx in zip(G.neighbors(v), G.incident(v)):
                if burnt[w]:
                    outdeg[v] = outdeg.get(v, 0) + 1
                    continue
                inner.add(idx)
                if not reached[w]:
                    reached[w] = True
                    stack.append(w)
        comp.sort()
        segments = tuple(model.medges[idx][2:] for idx in sorted(inner))
        yield UnburntComponent(
            points=tuple(model.points[v] for v in comp),
            segments=segments,
            boundary=tuple((model.points[v], outdeg[v]) for v in comp if v in outdeg),
            total_length=sum((o2 - o1 for _e, o1, o2 in segments), _ZERO),
            cut_size=sum(outdeg.values()),
        )


def metric_dhar(gamma, q, D):
    """Burn from q; chips at a point block the fire until overrun.

    Rejects divisors with negative weight off q.  A point burns when the
    number of burning directions into it exceeds its chip count; segment
    interiors burn as soon as either end does.
    """
    q = _as_point(q)
    if any(w < 0 and p != q for p, w in D):
        raise ValueError("divisor must be effective off q")
    model = _model_for(gamma, q, D)
    order = _kernels.burn(model.graph, model.chips(D), model.vid_of[q])
    comps = tuple(_components(model, order))
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
    if D.is_effective(skip=q):
        return D, TropicalFunction.zero(gamma)
    model = _model_for(gamma, q, D)
    q_vid = model.vid_of[q]
    chips = model.chips(D)
    c = [_ZERO] * len(chips)
    for a, b, _e, o1, o2 in model.medges:
        k = 1 / (o2 - o1)
        k += k.denominator != 1
        c[a] += k
        c[b] += k
    target = [w - (ceil(c[v]) - 1) * (v != q_vid) for v, w in enumerate(chips)]
    values = [-ceil(x) for x in _grounded_potential(model, q_vid, target)]
    kinks = []
    for a, b, e, o1, o2 in model.medges:
        length = o2 - o1
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
    loop.  The make-effective script is 0 at q and every move function is 0
    on X and eps at the burnt point q, so the script is the potential of
    (result - D) with value sum(eps) at q.
    """
    q = _as_point(q)
    E0, f0 = metric_make_effective(gamma, q, D)
    E = E0
    log = []
    model = interior = None
    for _ in range(_MAX_LUO_ITERATIONS):
        # the model depends only on the interior points of {q} and supp(E)
        points = frozenset(p for p in (q, *E.support) if p.kind == "e")
        if points != interior:
            model, interior = _model_for(gamma, q, E), points
        order = _kernels.burn(model.graph, model.chips(E), model.vid_of[q])
        if len(order) == len(model.points):
            break
        comp = next(_components(model, order))
        inside = {model.vid_of[p] for p in comp.points}
        leaving = [
            edge for edge in model.medges if (edge[0] in inside) != (edge[1] in inside)
        ]
        eps = min(o2 - o1 for _a, _b, _e, o1, o2 in leaving)
        moves = []
        for a, _b, e, o1, o2 in leaving:
            start, step = (o1, eps) if a in inside else (o2, -eps)
            moves += [(gamma.point(e, start), -1), (gamma.point(e, start + step), 1)]
        after = E + MetricDivisor(moves)
        drop = comp.total_length * eps + Fraction(comp.cut_size, 2) * eps * eps
        log.append(
            LuoIteration(
                component=comp, epsilon=eps, drop=drop, before=E, after=after
            )
        )
        E = after
    else:
        raise RuntimeError("reduction did not terminate within the safety cap")
    try:
        script = _potential(gamma, q, E - D, sum(it.epsilon for it in log))
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

    def _grounded(self, D, *points):
        """(model at q, supp(D) and points; the j_q-potential of D on it)."""
        model = _Model(self.gamma, [self.q, *D.support, *points])
        return model, _grounded_potential(model, model.vid_of[self.q], model.chips(D))

    def j(self, x, y):
        """j_q(x, y): potential at y, current in at x and out at q."""
        x, y = _as_point(x), _as_point(y)
        model, phi = self._grounded(MetricDivisor({x: 1}), y)
        return phi[model.vid_of[y]]

    def resistance(self, x, y=None):
        """Effective resistance r(x, y); y defaults to the base point."""
        x = _as_point(x)
        y = self.q if y is None else _as_point(y)
        model, phi = self._grounded(MetricDivisor([(x, 1), (y, -1)]), x, y)
        return phi[model.vid_of[x]] - phi[model.vid_of[y]]

    def q_energy(self, D):
        """E_q(D) = <D - deg(D) q, D - deg(D) q> = sum of D(p) phi_D(p), with
        phi_D the j_q-potential of D."""
        model, phi = self._grounded(D)
        return sum(w * phi[model.vid_of[p]] for p, w in D)

    def b(self, D):
        """b_q(D) = integral over Gamma of phi_D, the j_q-potential of D."""
        model, phi = self._grounded(D)
        return sum(
            ((o2 - o1) * (phi[a] + phi[b]) / 2 for a, b, _e, o1, o2 in model.medges),
            _ZERO,
        )


def metric_potentials(gamma, q):
    return MetricPotentials(gamma, q)


def unit_metric(G):
    """The metric graph with every edge of length 1."""
    return MetricGraph(G, [1] * G.m)


def divisor_to_metric(gamma, D):
    """Lift a vertex-supported divisor onto the metric graph."""
    return MetricDivisor(
        {GraphPoint.vertex(v): c for v, c in enumerate(D) if c}
    )
