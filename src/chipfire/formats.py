"""Text format for graphs, metric graphs, and named divisors.

    # comment
    graph <n>
    edge <u> <v>                 combinatorial edge
    edge <u> <v> <len>           metric edge; len is an int or num/den
    divisor <name> <c0> ... <c_{n-1}>          (combinatorial)
    divisor <name> <point>=<w> [...]           (metric)

Point syntax: `v:<index>` for a vertex, `e:<edge>@<offset>` for an interior
point, offsets rational.  A file is metric iff every edge carries a length;
mixing is an error.  Parsing reports 1-based line numbers; serialize() and
parse() are mutually inverse on canonical files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .graph import Divisor, Graph
from .metric import MetricDivisor, MetricGraph


class GraphFormatError(ValueError):
    """Malformed graph file; carries the offending 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass
class GraphFile:
    """A parsed graph file: the graph and its named divisors."""

    graph: object
    divisors: dict = field(default_factory=dict)

    @property
    def is_metric(self):
        return isinstance(self.graph, MetricGraph)


def parse_fraction(token):
    if "/" in token:
        num, _, den = token.partition("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {token!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(token))


def format_fraction(x):
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_point(token, gamma):
    """Parse `v:<i>`, `e:<edge>@<offset>`, or a bare vertex index as a point
    of gamma: the point is range-checked (ValueError) and edge endpoints
    canonicalize to vertices.
    """
    token = token.strip()
    if token.startswith("e:"):
        body = token[2:]
        edge_s, sep, off_s = body.partition("@")
        if not sep:
            raise ValueError(f"point {token!r} is missing '@offset'")
        return gamma.point(int(edge_s), parse_fraction(off_s))
    return gamma.vertex_point(int(token[2:] if token.startswith("v:") else token))


def _parse_divisor(tokens, graph):
    """The divisor that tokens spell on graph: `point=weight` entries on a
    metric graph, one integer coefficient per vertex on a plain one;
    ValueError on a bad token or a wrong count."""
    if isinstance(graph, MetricGraph):
        entries = []
        for tok in tokens:
            point_s, sep, w_s = tok.partition("=")
            if not sep:
                raise ValueError(
                    f"metric divisor entries look like point=weight, got {tok!r}"
                )
            entries.append((parse_point(point_s, graph), int(w_s)))
        return MetricDivisor(entries)
    if len(tokens) != graph.n:
        raise ValueError(f"divisor needs {graph.n} coefficients, got {len(tokens)}")
    try:
        return Divisor(int(t) for t in tokens)
    except ValueError as exc:
        raise ValueError(f"divisor coefficients must be integers: {exc}")


def format_point(p):
    if p.kind == "v":
        return f"v:{p.index}"
    return f"e:{p.edge}@{format_fraction(p.offset)}"


def parse(text):
    """Parse a graph file; raises GraphFormatError with line diagnostics."""
    n = None
    edge_pairs = []
    edge_lengths = []
    divisor_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        fields = line.split()
        kind, args = fields[0], fields[1:]
        if kind == "graph":
            if n is not None:
                raise GraphFormatError("duplicate graph line", lineno)
            if len(args) != 1:
                raise GraphFormatError("graph line needs a vertex count", lineno)
            try:
                n = int(args[0])
            except ValueError:
                raise GraphFormatError(f"bad vertex count {args[0]!r}", lineno)
            if n < 1:
                raise GraphFormatError("vertex count must be >= 1", lineno)
        elif kind == "edge":
            if n is None:
                raise GraphFormatError("edge before graph line", lineno)
            if len(args) not in (2, 3):
                raise GraphFormatError(
                    "edge line needs 'edge u v' or 'edge u v length'", lineno
                )
            try:
                u, v = int(args[0]), int(args[1])
            except ValueError:
                raise GraphFormatError("edge endpoints must be integers", lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge endpoint out of range 0..{n-1}", lineno)
            if u == v:
                raise GraphFormatError(f"loop at vertex {u} not allowed", lineno)
            length = None
            if len(args) == 3:
                try:
                    length = parse_fraction(args[2])
                except ValueError:
                    raise GraphFormatError(f"bad edge length {args[2]!r}", lineno)
                if length <= 0:
                    raise GraphFormatError("edge length must be positive", lineno)
            edge_pairs.append((u, v))
            edge_lengths.append(length)
        elif kind == "divisor":
            if not args:
                raise GraphFormatError("divisor line needs a name", lineno)
            divisor_lines.append((lineno, args[0], args[1:]))
        else:
            raise GraphFormatError(f"unknown directive {kind!r}", lineno)
    if n is None:
        raise GraphFormatError("missing graph line")
    with_len = sum(1 for x in edge_lengths if x is not None)
    if with_len and with_len != len(edge_lengths):
        raise GraphFormatError("cannot mix edges with and without lengths")
    try:
        base = Graph(n, edge_pairs)
    except ValueError as exc:
        raise GraphFormatError(str(exc))
    if with_len:
        graph = MetricGraph(base, edge_lengths)
    else:
        graph = base

    divisors = {}
    for lineno, name, tokens in divisor_lines:
        if name in divisors:
            raise GraphFormatError(f"duplicate divisor {name!r}", lineno)
        try:
            divisors[name] = _parse_divisor(tokens, graph)
        except ValueError as exc:
            raise GraphFormatError(str(exc), lineno)
    return GraphFile(graph=graph, divisors=divisors)


def serialize(gf):
    """Canonical text for a GraphFile; parse(serialize(gf)) == gf."""
    metric = gf.is_metric
    G = gf.graph.graph if metric else gf.graph
    lines = [f"graph {G.n}"]
    for e, (u, v) in enumerate(G.edges):
        length = f" {format_fraction(gf.graph.lengths[e])}" if metric else ""
        lines.append(f"edge {u} {v}{length}")
    for name in sorted(gf.divisors):
        D = gf.divisors[name]
        entries = (f"{format_point(p)}={w}" for p, w in D) if metric else map(str, D)
        lines.append(f"divisor {name} {' '.join(entries)}".rstrip())
    return "\n".join(lines) + "\n"


def parse_divisor_arg(spec, gf):
    """Resolve a --divisor argument: named, inline, or @file.

    Named divisors come from the graph file; @path reads the tokens from a
    file; otherwise the tokens are parsed inline (comma or space
    separated).
    """
    spec = spec.strip()
    if spec in gf.divisors:
        return gf.divisors[spec]
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            spec = fh.read()
    tokens = spec.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty divisor specification")
    return _parse_divisor(tokens, gf.graph)
