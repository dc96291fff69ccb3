"""chipfire command line tool.

Subcommands wrap the library: check-reduced, reduce, to-tree, from-tree,
count-trees, jacobian, sample-tree, group-add, winnable, rank, bounds,
metric-check, metric-reduce.  Each is declared once, by its add() call in
build_parser, which names its options and its handler; run resolves the
file kind, --q (a vertex, or a point for the metric commands) and
--divisor for every command before the handler runs.  Every command emits
a RunReport in text or JSON; reports are deterministic given the same
inputs and seed, except for the wall_time_ms field.

Exit codes: 0 success, 1 negative decision (not reduced / not winnable /
rank below threshold), 2 malformed input or violated precondition, 3
internal failure (a RuntimeError, or an AssertionError from a library
self-check).  Under --format json an exit-2 or exit-3 failure also prints
one JSON object {"command", "exit_code", "error"} to stdout, with one
exception: an error that argparse catches itself (a missing required
option, or an option value of the wrong type such as --seed x) exits 2
with its usage message on stderr and nothing on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import metric, reduction, treebij
from .jacobian import (
    count_spanning_trees,
    group_add,
    jacobian as jacobian_presentation,
    rank_at_least,
    sample_spanning_tree,
    winnable,
)
from .formats import (
    GraphFormatError,
    format_fraction,
    format_point,
    parse,
    parse_divisor_arg,
    parse_point,
)


@dataclass
class RunReport:
    """What a CLI run did: inputs (with digests), seed, outputs, counters."""

    command: str
    inputs: dict
    seed: object
    outputs: dict
    move_counts: dict
    bounds: dict
    wall_time_ms: float

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    def to_text(self):
        lines = [f"command: {self.command}"]
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        for prefix, section in (
            ("", self.outputs), ("moves.", self.move_counts), ("bound.", self.bounds)
        ):
            for key in sorted(section or ()):
                lines.append(f"{prefix}{key}: {_plain(section[key])}")
        lines.append(f"wall_time_ms: {self.wall_time_ms:.3f}")
        return "\n".join(lines)


def _plain(value):
    if isinstance(value, (list, tuple)):
        if any(isinstance(v, (list, tuple, dict)) for v in value):
            return json.dumps(value, sort_keys=True)  # one JSON array keeps the items apart
        return " ".join(_plain(v) for v in value) if value else "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_graph_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    try:
        gf = parse(text)
    except GraphFormatError as exc:
        raise ValueError(f"{path}: {exc}")
    return gf, _digest(text)


def _base(gf, spec):
    """The --q of a run: a point of a metric graph, a vertex of a plain one."""
    if gf.is_metric:
        try:
            return parse_point(spec, gf.graph)
        except ValueError as exc:
            raise ValueError(f"bad point {spec!r}: {exc}")
    try:
        q = int(spec)
    except ValueError:
        raise ValueError(f"base vertex must be an integer, got {spec!r}")
    if not (0 <= q < gf.graph.n):
        raise ValueError(f"base vertex {q} out of range 0..{gf.graph.n - 1}")
    return q


def _divisor(gf, spec):
    try:
        return parse_divisor_arg(spec, gf)
    except (ValueError, OSError) as exc:
        raise ValueError(f"bad divisor {spec!r}: {exc}")


def _metric_divisor_json(D):
    return [[format_point(p), w] for p, w in D]


# --------------------------------------------------------------------------
# Command handlers: each takes the graph file, the base point q and the
# divisor D that run resolved (None where the command has no such option)
# and returns (outputs, move_counts, bounds, exit_code).

def _cmd_check_reduced(gf, q, D, args):
    out = reduction.dhar(gf.graph, q, D)
    return asdict(out), None, None, 0 if out.reduced else 1


def _cmd_reduce(gf, q, D, args):
    rep = reduction.reduce(gf.graph, q, D)
    outputs = {
        "result": list(rep.result),
        "script": list(rep.script),
        "floor_path": rep.floor_path,
    }
    moves = {
        "step1_floor_rounds": rep.floor_rounds,
        "step2_borrows": rep.moves_step2,
        "step2_unborrow_sets": rep.step2_unborrow_sets,
    }
    return outputs, moves, None, 0


def _cmd_to_tree(gf, q, D, args):
    tree = treebij.divisor_to_tree(gf.graph, q, D)
    return {k: sorted(v) for k, v in asdict(tree).items()}, None, None, 0


def _cmd_from_tree(gf, q, D, args):
    try:
        edges = [int(t) for t in args.tree.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"bad tree spec {args.tree!r}")
    divisor = treebij.tree_to_divisor(gf.graph, q, frozenset(edges), d=args.degree)
    return {"divisor": list(divisor)}, None, None, 0


def _cmd_count_trees(gf, q, D, args):
    return {"count": count_spanning_trees(gf.graph)}, None, None, 0


def _cmd_jacobian(gf, q, D, args):
    pres = jacobian_presentation(gf.graph, q)
    outputs = {
        "invariant_factors": list(pres.invariant_factors),
        "generators": [list(g) for g in pres.generators],
        "order": pres.order,
    }
    return outputs, None, None, 0


def _cmd_sample_tree(gf, q, D, args):
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    trees = sample_spanning_tree(gf.graph, q, seed=args.seed, count=args.count)
    outputs = {
        "trees": [sorted(t.tree_edges) for t in trees],
        "count": args.count,
    }
    return outputs, None, None, 0


def _cmd_group_add(gf, q, D, args):
    result = group_add(gf.graph, q, D, _divisor(gf, args.divisor2))
    return {"result": list(result)}, None, None, 0


def _cmd_winnable(gf, q, D, args):
    script = winnable(gf.graph, D, q)
    outputs = {
        "winnable": script is not None,
        "script": None if script is None else list(script),
    }
    return outputs, None, None, 0 if script is not None else 1


def _cmd_rank(gf, q, D, args):
    if args.c < 0:
        raise ValueError("--c must be >= 0")
    ok = rank_at_least(gf.graph, D, args.c)
    return {"c": args.c, "rank_at_least": ok}, None, None, 0 if ok else 1


def _cmd_bounds(gf, q, D, args):
    bounds = {
        key: format_fraction(value) if isinstance(value, Fraction) else value
        for key, value in asdict(reduction.move_bounds(gf.graph, q)).items()
        if key != "q"
    }
    return {"q": q}, None, bounds, 0


def _cmd_metric_check(gf, q, D, args):
    out = metric.metric_dhar(gf.graph, q, D)
    outputs = {
        "reduced": out.reduced,
        "burn_order": [format_point(p) for p in out.burn_order],
        "components": [
            {
                "points": [format_point(p) for p in comp.points],
                "total_length": format_fraction(comp.total_length),
                "cut_size": comp.cut_size,
            }
            for comp in out.components
        ],
    }
    return outputs, None, None, 0 if out.reduced else 1


def _cmd_metric_reduce(gf, q, D, args):
    rep = metric.metric_reduce(gf.graph, q, D)
    outputs = {
        "result": _metric_divisor_json(rep.result),
        "after_make_effective": _metric_divisor_json(rep.after_make_effective),
        "iterations": [
            {
                "epsilon": format_fraction(it.epsilon),
                "b_q_drop": format_fraction(it.drop),
                "component_points": [format_point(p) for p in it.component.points],
                "component_length": format_fraction(it.component.total_length),
                "cut_size": it.component.cut_size,
            }
            for it in rep.iterations
        ],
        "script_vertex_values": [
            format_fraction(x) for x in rep.script.vertex_values
        ],
    }
    # each kink of the make-effective script adds one chip at a point off
    # the model, that is, outside supp(D) and q
    model = {q, *D.support}
    breaks = sum(
        1 for p, _w in rep.after_make_effective if p.kind == "e" and p not in model
    )
    moves = {"make_effective_breaks": breaks, "luo_iterations": len(rep.iterations)}
    return outputs, moves, None, 0


def run(args):
    """Execute a parsed command; returns (RunReport, exit_code).

    The file kind, --q and --divisor are resolved here for every command, in
    that order, before its handler runs.
    """
    gf, digest = _load_graph_file(args.graph)
    started = time.perf_counter()
    if args.metric != gf.is_metric:
        kind = ("a metric graph (edges with lengths)" if args.metric
                else "a combinatorial graph (no edge lengths)")
        raise ValueError(f"{args.command} needs {kind}")
    q = getattr(args, "q", None)
    if q is not None:
        q = _base(gf, q)
    D = getattr(args, "divisor", None)
    if D is not None:
        D = _divisor(gf, D)
    outputs, moves, bounds, code = args.handler(gf, q, D, args)
    elapsed = (time.perf_counter() - started) * 1000.0
    inputs = {"graph": args.graph, "graph_sha256": digest}
    for key in ("q", *OPTIONS):
        val = getattr(args, key, None)
        if val is not None and key != "seed":  # the report's own seed field
            inputs[key] = val
    report = RunReport(
        command=args.command,
        inputs=inputs,
        seed=getattr(args, "seed", None),
        outputs=outputs,
        move_counts=moves,
        bounds=bounds,
        wall_time_ms=elapsed,
    )
    return report, code


# --------------------------------------------------------------------------

# The options a command may take after --q, in --help order: each add() call
# in build_parser names its own; run echoes all but --seed into the inputs.
OPTIONS = {
    "divisor": dict(required=True, help="named divisor, inline coefficients, or @file"),
    "divisor2": dict(required=True, help="second divisor (same syntax as --divisor)"),
    "tree": dict(required=True, help="edge indices of the spanning tree"),
    "degree": dict(type=int, default=None, help="target degree (default: genus)"),
    "c": dict(type=int, required=True, help="rank threshold"),
    "seed": dict(type=int, required=True, help="RNG seed (required for reproducibility)"),
    "count": dict(type=int, default=1, help="number of samples"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chipfire",
        description="Chip-firing: reduced divisors, spanning tree bijections, "
        "Jacobians, and metric graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, handler, *options, metric=False, q=True, q_required=True):
        # help is the line in `chipfire --help`; description heads the
        # subcommand's own --help
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(handler=handler, metric=metric)
        p.add_argument("graph", help="graph file")
        if q:
            p.add_argument(
                "--q",
                required=q_required,
                default=None if q_required else "0",
                help="base vertex (or point like e:0@1/2 for metric commands)",
            )
        for option in options:
            p.add_argument(f"--{option}", **OPTIONS[option])
        p.add_argument("--format", choices=("text", "json"), default="text")

    add("check-reduced", "test whether a divisor is q-reduced",
        _cmd_check_reduced, "divisor")
    add("reduce", "compute the q-reduced representative", _cmd_reduce, "divisor")
    add("to-tree", "burn a reduced divisor into its spanning tree",
        _cmd_to_tree, "divisor")
    add("from-tree", "burn a spanning tree into its reduced divisor",
        _cmd_from_tree, "tree", "degree")
    add("count-trees", "matrix-tree count of spanning trees",
        _cmd_count_trees, q=False)
    add("jacobian", "invariant factors and generators of Jac(G)",
        _cmd_jacobian, q_required=False)
    add("sample-tree", "uniform random spanning trees", _cmd_sample_tree,
        "seed", "count")
    add("group-add", "add two q-reduced degree-zero divisors",
        _cmd_group_add, "divisor", "divisor2")
    add("winnable", "dollar game: find a winning script", _cmd_winnable,
        "divisor", q_required=False)
    add("rank", "test rank >= c", _cmd_rank, "divisor", "c", q=False)
    add("bounds", "running-time bounds for reduction toward q", _cmd_bounds)
    add("metric-check", "metric burning test at a base point",
        _cmd_metric_check, "divisor", metric=True)
    add("metric-reduce", f"metric reduction, at most {metric._MAX_LUO_ITERATIONS} Luo moves, "
        "with the full move log", _cmd_metric_reduce, "divisor", metric=True)

    return parser


def _failed(args, code, label, exc):
    """Report an exit-2 or exit-3 failure on stderr and, under --format json,
    as one JSON object on stdout; returns the exit code."""
    print(f"{label}: {exc}", file=sys.stderr)
    if args.format == "json":
        failure = {"command": args.command, "exit_code": code, "error": str(exc)}
        print(json.dumps(failure, sort_keys=True))
    return code


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = run(args)
    except ValueError as exc:  # GraphFormatError is a ValueError
        return _failed(args, 2, "error", exc)
    except (RuntimeError, AssertionError) as exc:
        return _failed(args, 3, "failure", exc)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return code


if __name__ == "__main__":
    sys.exit(main())
