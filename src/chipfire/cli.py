"""chipfire command line tool.

Subcommands wrap the library: check-reduced, reduce, to-tree, from-tree,
count-trees, jacobian, sample-tree, group-add, winnable, rank, bounds,
metric-check, metric-reduce.  Every command emits a RunReport in text or
JSON; reports are deterministic given the same inputs and seed, except for
the wall_time_ms field.

Exit codes: 0 success, 1 negative decision (not reduced / not winnable /
rank below threshold), 2 malformed input or violated precondition, 3
internal failure (a RuntimeError, or an AssertionError from a library
self-check).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass

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


class InputError(ValueError):
    """Bad input from the user; maps to exit code 2."""


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

    def to_dict(self):
        return {
            "command": self.command,
            "inputs": self.inputs,
            "seed": self.seed,
            "outputs": self.outputs,
            "move_counts": self.move_counts,
            "bounds": self.bounds,
            "wall_time_ms": self.wall_time_ms,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_text(self):
        lines = [f"command: {self.command}"]
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        for key in sorted(self.outputs):
            lines.append(f"{key}: {_plain(self.outputs[key])}")
        if self.move_counts:
            for key in sorted(self.move_counts):
                lines.append(f"moves.{key}: {_plain(self.move_counts[key])}")
        if self.bounds:
            for key in sorted(self.bounds):
                lines.append(f"bound.{key}: {_plain(self.bounds[key])}")
        lines.append(f"wall_time_ms: {self.wall_time_ms:.3f}")
        return "\n".join(lines)


def _plain(value):
    if isinstance(value, (list, tuple)):
        return " ".join(_plain(v) for v in value) if value else "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_graph_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    try:
        gf = parse(text)
    except GraphFormatError as exc:
        raise InputError(f"{path}: {exc}")
    return gf, _digest(text)


def _need_plain(gf, command):
    if gf.is_metric:
        raise InputError(f"{command} needs a combinatorial graph (no edge lengths)")
    return gf.graph


def _need_metric(gf, command):
    if not gf.is_metric:
        raise InputError(f"{command} needs a metric graph (edges with lengths)")
    return gf.graph


def _vertex_q(G, q):
    try:
        q = int(q)
    except (TypeError, ValueError):
        raise InputError(f"base vertex must be an integer, got {q!r}")
    if not (0 <= q < G.n):
        raise InputError(f"base vertex {q} out of range 0..{G.n - 1}")
    return q


def _point_q(gamma, spec):
    try:
        return parse_point(str(spec), gamma)
    except (ValueError, IndexError) as exc:
        raise InputError(f"bad point {spec!r}: {exc}")


def _divisor(gf, spec):
    try:
        return parse_divisor_arg(spec, gf)
    except (ValueError, OSError) as exc:
        raise InputError(f"bad divisor {spec!r}: {exc}")


def _metric_divisor_json(D):
    return [[format_point(p), w] for p, w in D]


# --------------------------------------------------------------------------
# Command handlers: each returns (outputs, move_counts, bounds, exit_code).

def _cmd_check_reduced(gf, args):
    G = _need_plain(gf, "check-reduced")
    q = _vertex_q(G, args.q)
    D = _divisor(gf, args.divisor)
    out = reduction.dhar(G, q, D)
    outputs = {
        "reduced": out.reduced,
        "burn_order": list(out.burn_order),
        "unburnt": list(out.unburnt),
        "negative": list(out.negative),
    }
    return outputs, None, None, 0 if out.reduced else 1


def _cmd_reduce(gf, args):
    G = _need_plain(gf, "reduce")
    q = _vertex_q(G, args.q)
    D = _divisor(gf, args.divisor)
    rep = reduction.reduce(G, q, D)
    outputs = {
        "result": list(rep.result),
        "script": list(rep.script),
        "fired_sets": [list(A) for A in rep.fired_sets],
        "floor_path": rep.floor_path,
    }
    moves = {
        "step1_floor_rounds": rep.floor_rounds,
        "step2_borrows": rep.moves_step2,
        "step2_unborrow_sets": rep.step2_unborrow_sets,
        "step3_set_firings": rep.moves_step3,
        "step3_vertices_fired": rep.total_set_fire_vertices,
        "total_single_vertex_moves": rep.total_moves,
    }
    return outputs, moves, None, 0


def _cmd_to_tree(gf, args):
    G = _need_plain(gf, "to-tree")
    q = _vertex_q(G, args.q)
    D = _divisor(gf, args.divisor)
    try:
        tree = treebij.divisor_to_tree(G, q, D)
    except ValueError as exc:
        raise InputError(str(exc))
    outputs = {
        "tree_edges": sorted(tree.tree_edges),
        "ext_active": sorted(tree.ext_active),
        "ext_passive": sorted(tree.ext_passive),
    }
    return outputs, None, None, 0


def _cmd_from_tree(gf, args):
    G = _need_plain(gf, "from-tree")
    q = _vertex_q(G, args.q)
    try:
        edges = [int(t) for t in args.tree.replace(",", " ").split()]
    except ValueError:
        raise InputError(f"bad tree spec {args.tree!r}")
    try:
        D = treebij.tree_to_divisor(G, q, frozenset(edges), d=args.degree)
    except ValueError as exc:
        raise InputError(str(exc))
    return {"divisor": list(D)}, None, None, 0


def _cmd_count_trees(gf, args):
    G = _need_plain(gf, "count-trees")
    return {"count": count_spanning_trees(G)}, None, None, 0


def _cmd_jacobian(gf, args):
    G = _need_plain(gf, "jacobian")
    q = _vertex_q(G, args.q)
    pres = jacobian_presentation(G, q)
    outputs = {
        "invariant_factors": list(pres.invariant_factors),
        "generators": [list(g) for g in pres.generators],
        "order": pres.order,
    }
    return outputs, None, None, 0


def _cmd_sample_tree(gf, args):
    G = _need_plain(gf, "sample-tree")
    q = _vertex_q(G, args.q)
    if args.count < 1:
        raise InputError("--count must be >= 1")
    trees = sample_spanning_tree(G, q, seed=args.seed, count=args.count)
    outputs = {
        "trees": [sorted(t.tree_edges) for t in trees],
        "count": args.count,
    }
    return outputs, None, None, 0


def _cmd_group_add(gf, args):
    G = _need_plain(gf, "group-add")
    q = _vertex_q(G, args.q)
    D1 = _divisor(gf, args.divisor)
    D2 = _divisor(gf, args.divisor2)
    try:
        result = group_add(G, q, D1, D2)
    except ValueError as exc:
        raise InputError(str(exc))
    return {"result": list(result)}, None, None, 0


def _cmd_winnable(gf, args):
    G = _need_plain(gf, "winnable")
    q = _vertex_q(G, args.q)
    D = _divisor(gf, args.divisor)
    script = winnable(G, D, q)
    outputs = {
        "winnable": script is not None,
        "script": None if script is None else list(script),
    }
    return outputs, None, None, 0 if script is not None else 1


def _cmd_rank(gf, args):
    G = _need_plain(gf, "rank")
    D = _divisor(gf, args.divisor)
    if args.c < 0:
        raise InputError("--c must be >= 0")
    ok = rank_at_least(G, D, args.c)
    return {"c": args.c, "rank_at_least": ok}, None, None, 0 if ok else 1


def _cmd_bounds(gf, args):
    G = _need_plain(gf, "bounds")
    q = _vertex_q(G, args.q)
    mb = reduction.move_bounds(G, q)
    bounds = {
        "exact": format_fraction(mb.exact),
        "resistance": format_fraction(mb.resistance),
        "rmax_degree": format_fraction(mb.rmax_degree),
        "rmax_coarse": format_fraction(mb.rmax_coarse),
        "foster": format_fraction(mb.foster),
        "spectral": mb.spectral,
        "spectral_is_approximate": True,
        "diameter": format_fraction(mb.diameter),
    }
    return {"q": q}, None, bounds, 0


def _cmd_metric_check(gf, args):
    gamma = _need_metric(gf, "metric-check")
    q = _point_q(gamma, args.q)
    D = _divisor(gf, args.divisor)
    try:
        out = metric.metric_dhar(gamma, q, D)
    except ValueError as exc:
        raise InputError(str(exc))
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


def _cmd_metric_reduce(gf, args):
    gamma = _need_metric(gf, "metric-reduce")
    q = _point_q(gamma, args.q)
    D = _divisor(gf, args.divisor)
    rep = metric.metric_reduce(gamma, q, D)
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


_HANDLERS = {
    "check-reduced": _cmd_check_reduced,
    "reduce": _cmd_reduce,
    "to-tree": _cmd_to_tree,
    "from-tree": _cmd_from_tree,
    "count-trees": _cmd_count_trees,
    "jacobian": _cmd_jacobian,
    "sample-tree": _cmd_sample_tree,
    "group-add": _cmd_group_add,
    "winnable": _cmd_winnable,
    "rank": _cmd_rank,
    "bounds": _cmd_bounds,
    "metric-check": _cmd_metric_check,
    "metric-reduce": _cmd_metric_reduce,
}


def run(args):
    """Execute a parsed command; returns (RunReport, exit_code)."""
    gf, digest = _load_graph_file(args.graph)
    started = time.perf_counter()
    outputs, moves, bounds, code = _HANDLERS[args.command](gf, args)
    elapsed = (time.perf_counter() - started) * 1000.0
    inputs = {"graph": args.graph, "graph_sha256": digest}
    for key in ("q", "divisor", "divisor2", "tree", "degree", "c", "count"):
        val = getattr(args, key, None)
        if val is not None:
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

def build_parser():
    parser = argparse.ArgumentParser(
        prog="chipfire",
        description="Chip-firing: reduced divisors, spanning tree bijections, "
        "Jacobians, and metric graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, divisor=False, divisor2=False, q=True,
            q_required=True, tree=False, degree=False, c=False, seed=False,
            count=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("graph", help="graph file")
        if q:
            p.add_argument(
                "--q",
                required=q_required,
                default=None if q_required else "0",
                help="base vertex (or point like e:0@1/2 for metric commands)",
            )
        if divisor:
            p.add_argument("--divisor", required=True,
                           help="named divisor, inline coefficients, or @file")
        if divisor2:
            p.add_argument("--divisor2", required=True,
                           help="second divisor (same syntax as --divisor)")
        if tree:
            p.add_argument("--tree", required=True,
                           help="edge indices of the spanning tree")
        if degree:
            p.add_argument("--degree", type=int, default=None,
                           help="target degree (default: genus)")
        if c:
            p.add_argument("--c", type=int, required=True,
                           help="rank threshold")
        if seed:
            p.add_argument("--seed", type=int, required=True,
                           help="RNG seed (required for reproducibility)")
        if count:
            p.add_argument("--count", type=int, default=1,
                           help="number of samples")
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    add("check-reduced", "test whether a divisor is q-reduced", divisor=True)
    add("reduce", "compute the q-reduced representative", divisor=True)
    add("to-tree", "burn a reduced divisor into its spanning tree", divisor=True)
    add("from-tree", "burn a spanning tree into its reduced divisor",
        tree=True, degree=True)
    add("count-trees", "matrix-tree count of spanning trees", q=False)
    add("jacobian", "invariant factors and generators of Jac(G)",
        q_required=False)
    add("sample-tree", "uniform random spanning trees", seed=True, count=True)
    add("group-add", "add two q-reduced degree-zero divisors",
        divisor=True, divisor2=True)
    add("winnable", "dollar game: find a winning script", divisor=True,
        q_required=False)
    add("rank", "test rank >= c", divisor=True, c=True, q=False)
    add("bounds", "running-time bounds for reduction toward q")
    add("metric-check", "metric burning test at a base point", divisor=True)
    add("metric-reduce", "metric reduction with the full move log",
        divisor=True)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = run(args)
    except (GraphFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 3
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return code


if __name__ == "__main__":
    sys.exit(main())
