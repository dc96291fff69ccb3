"""File format and command-line interface.

Core claims:
    - parse/serialize round-trip graph files, reject malformed input with
      1-based line numbers, and distinguish plain from metric files.
    - Every subcommand produces correct output in text and json modes;
      exit codes are 0 (success), 1 (negative decision), 2 (bad input),
      3 (internal failure: a RuntimeError or a self-check AssertionError).
      Under --format json an exit-2 or exit-3 failure also prints one JSON
      object {command, exit_code, error} to stdout, except a refusal that
      argparse makes itself, which prints only its usage to stderr.
    - A metric file given to reduce, a base vertex, divisor entry or tree
      edge that is not an integer, and a negative rank bound are each
      refused with exit 2 and their own message, and so is a metric base
      point off its edge, and so is a metric-reduce input past its budget
      of Luo moves, with the budget and N named; metric-reduce failing its
      exact script check exits 3, and so does reduce failing its exact
      script check.  A missing graph file exits 2 with one JSON
      object naming it.
    - A file naming 10**12 vertices and no edges is refused with exit 2 and
      one JSON object, not with a MemoryError.
    - JSON reports are deterministic apart from wall_time_ms, and every
      subcommand's report is pinned by one digest.  A text report prints
      one `key: value` line per entry, a list that holds lists or dicts
      (trees, Luo moves, unburnt components) as one JSON array, and ends
      with its wall_time_ms line.
    - `jacobian` returns within a timeout on graphs where an unbounded
      Smith form stalled.
    - The parser and each subcommand declare their options in a pinned order
      with pinned required flags, defaults, types, choices and help texts.
      Each subcommand's own --help states what it does, in the words
      `chipfire --help` lists for it; metric-reduce's names its budget.
    - Importing chipfire and its CLI loads no numpy, and neither do the
      tree bijection, is_reduced, the Jacobian, the tree count and
      metric_reduce with a negative vertex; reduce and the tree sampler
      load it on first use.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from random import Random

import pytest

import chipfire
from chipfire import _kernels, cli, metric, potential
from chipfire.formats import (
    GraphFormatError,
    format_fraction,
    format_point,
    parse,
    parse_divisor_arg,
    parse_fraction,
    parse_point,
    serialize,
)
from chipfire.graph import Divisor, Graph
from chipfire.jacobian import count_spanning_trees
from chipfire.metric import GraphPoint, MetricGraph

from corpus import genus_21_multigraph, tree_plus_edges

K3_TEXT = """# triangle
graph 3
edge 0 1
edge 1 2
edge 0 2
divisor start 5 0 0
divisor flat 1 1 1
"""

SEGMENT_TEXT = """graph 2
edge 0 1 1
divisor twoa v:1=2
divisor mix v:1=-1 e:0@1/2=2
"""


# the child imports the same chipfire as this process, installed or not
_SRC = os.path.dirname(os.path.dirname(cli.__file__))
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
))


def run_cli(args, text=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "chipfire.cli", *args],
        capture_output=True,
        text=True,
        input=text,
        env=_ENV,
        timeout=timeout,
    )


@pytest.fixture()
def k3_file(tmp_path):
    p = tmp_path / "k3.cf"
    p.write_text(K3_TEXT)
    return str(p)


@pytest.fixture()
def seg_file(tmp_path):
    p = tmp_path / "seg.cf"
    p.write_text(SEGMENT_TEXT)
    return str(p)


# -- Format primitives ---------------------------------------------------------

def test_fraction_round_trip():
    for tok in ("3", "-2", "1/2", "-7/3"):
        assert format_fraction(parse_fraction(tok)) == tok
    with pytest.raises(ValueError):
        parse_fraction("1.5.2")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_fraction("1/0")


def test_point_round_trip():
    gamma = MetricGraph(Graph(4, [(0, 1), (1, 2), (2, 3)]), [1, 1, 1])
    for tok, want in (
        ("v:1", GraphPoint.vertex(1)),
        ("3", GraphPoint.vertex(3)),
        ("e:0@1/2", GraphPoint("e", 0, Fraction(1, 2))),
        ("e:0@1", GraphPoint.vertex(1)),
    ):
        assert parse_point(tok, gamma) == want
    assert format_point(GraphPoint("e", 2, Fraction(1, 3))) == "e:2@1/3"
    assert format_point(GraphPoint.vertex(4)) == "v:4"
    with pytest.raises(ValueError, match="missing '@offset'"):
        parse_point("e:0", gamma)


# -- Parsing ----------------------------------------------------------------------

def test_parse_plain_file():
    gf = parse(K3_TEXT)
    assert not gf.is_metric
    assert gf.graph.n == 3 and gf.graph.m == 3
    assert gf.divisors["start"] == Divisor((5, 0, 0))


def test_parse_metric_file():
    gf = parse(SEGMENT_TEXT)
    assert gf.is_metric
    assert gf.graph.lengths == (Fraction(1),)
    assert gf.divisors["twoa"].get(GraphPoint.vertex(1)) == 2


def test_serialize_round_trip_plain():
    gf = parse(K3_TEXT)
    again = parse(serialize(gf))
    assert again.graph == gf.graph
    assert again.divisors == gf.divisors


def test_serialize_round_trip_metric():
    gf = parse(SEGMENT_TEXT)
    again = parse(serialize(gf))
    assert again.graph == gf.graph
    assert again.divisors == gf.divisors


def test_parse_error_line_numbers():
    bad = "graph 2\nedge 0 0\n"
    with pytest.raises(GraphFormatError) as err:
        parse(bad)
    assert "line 2" in str(err.value)

    bad = "graph 2\nedge 0 1\ndivisor a 1\n"
    with pytest.raises(GraphFormatError) as err:
        parse(bad)
    assert "line 3" in str(err.value)


def test_parse_rejects_mixed_lengths():
    bad = "graph 3\nedge 0 1 2\nedge 1 2\nedge 0 2 1\n"
    with pytest.raises(GraphFormatError):
        parse(bad)


def test_parse_rejects_duplicates():
    with pytest.raises(GraphFormatError):
        parse("graph 2\ngraph 2\nedge 0 1\n")
    with pytest.raises(GraphFormatError):
        parse("graph 2\nedge 0 1\ndivisor a 1 0\ndivisor a 0 1\n")


# (text, 1-based line or None for a whole-file fault, message)
_PARSE_REFUSALS = [
    ("graph\n", 1, "needs a vertex count"),
    ("graph x\n", 1, "bad vertex count"),
    ("graph 0\n", 1, ">= 1"),
    ("edge 0 1\ngraph 2\n", 1, "edge before graph line"),
    ("graph 2\nedge 0\n", 2, "edge line needs"),
    ("graph 2\nedge a 1\n", 2, "must be integers"),
    ("graph 2\nedge 0 2\n", 2, "out of range 0..1"),
    ("graph 2\nedge 0 1 x\n", 2, "bad edge length"),
    ("graph 2\nedge 0 1 0\n", 2, "must be positive"),
    ("graph 2\nedge 0 1\ndivisor\n", 3, "needs a name"),
    ("graph 2\nvertex 0\n", 2, "unknown directive"),
    ("# only a comment\n", None, "missing graph line"),
    ("graph 3\nedge 0 1\n", None, "must be connected"),
    ("graph 2\nedge 0 1 1\ndivisor d v:0\n", 3, "point=weight"),
    ("graph 2\nedge 0 1\ndivisor d 1 x\n", 3, "must be integers"),
    ("graph 2\nedge 0 1 1\ndivisor d v:5=1\n", 3, "out of range"),
]


@pytest.mark.parametrize("text, line, message", _PARSE_REFUSALS)
def test_parse_refusals_carry_line_and_cause(text, line, message):
    with pytest.raises(GraphFormatError, match=re.escape(message)) as err:
        parse(text)
    assert err.value.line == line


def test_parse_divisor_arg_forms(tmp_path):
    gf = parse(K3_TEXT)
    assert parse_divisor_arg("start", gf) == Divisor((5, 0, 0))
    assert parse_divisor_arg("2 -1 0", gf) == Divisor((2, -1, 0))
    assert parse_divisor_arg("2,-1,0", gf) == Divisor((2, -1, 0))
    ext = tmp_path / "d.txt"
    ext.write_text("0 4 -4")
    assert parse_divisor_arg(f"@{ext}", gf) == Divisor((0, 4, -4))
    with pytest.raises(ValueError, match="empty divisor specification"):
        parse_divisor_arg(" , ", gf)
    with pytest.raises(ValueError, match="needs 3 coefficients, got 2"):
        parse_divisor_arg("1 2", gf)


# -- Declarations -----------------------------------------------------------------

# (option strings, required, default, type, choices, help) of each action, in
# order; unlike rendered --help, it does not depend on the terminal width
_HELP = (["-h", "--help"], False, argparse.SUPPRESS, None, None,
         "show this help message and exit")
_GRAPH = ([], True, None, None, None, "graph file")
_Q_HELP = "base vertex (or point like e:0@1/2 for metric commands)"
_Q = (["--q"], True, None, None, None, _Q_HELP)
_Q_AT_0 = (["--q"], False, "0", None, None, _Q_HELP)
_DIVISOR = (["--divisor"], True, None, None, None,
            "named divisor, inline coefficients, or @file")
_FORMAT = (["--format"], False, "text", None, ["text", "json"], None)
_COMMAND_OPTIONS = {
    "check-reduced": [_Q, _DIVISOR],
    "reduce": [_Q, _DIVISOR],
    "to-tree": [_Q, _DIVISOR],
    "from-tree": [
        _Q,
        (["--tree"], True, None, None, None, "edge indices of the spanning tree"),
        (["--degree"], False, None, "int", None, "target degree (default: genus)"),
    ],
    "count-trees": [],
    "jacobian": [_Q_AT_0],
    "sample-tree": [
        _Q,
        (["--seed"], True, None, "int", None, "RNG seed (required for reproducibility)"),
        (["--count"], False, 1, "int", None, "number of samples"),
    ],
    "group-add": [
        _Q,
        _DIVISOR,
        (["--divisor2"], True, None, None, None,
         "second divisor (same syntax as --divisor)"),
    ],
    "winnable": [_Q_AT_0, _DIVISOR],
    "rank": [_DIVISOR, (["--c"], True, None, "int", None, "rank threshold")],
    "bounds": [_Q],
    "metric-check": [_Q, _DIVISOR],
    "metric-reduce": [_Q, _DIVISOR],
}


def _declarations(parser):
    return [
        (a.option_strings, a.required, a.default, a.type and a.type.__name__,
         a.choices and list(a.choices), a.help)
        for a in parser._actions
    ]


def test_cli_declarations_are_pinned():
    parser = cli.build_parser()
    commands = ([], True, None, None, list(_COMMAND_OPTIONS), None)
    assert _declarations(parser) == [_HELP, commands]
    subparsers = parser._actions[1].choices
    for name, options in _COMMAND_OPTIONS.items():
        assert _declarations(subparsers[name]) == [_HELP, _GRAPH, *options, _FORMAT], name


def test_subcommand_help_says_what_the_command_does():
    # each subcommand's own --help opens with the line `chipfire --help`
    # lists for it; metric-reduce's names its Luo-move budget
    parser = cli.build_parser()
    listed = {a.dest: a.help for a in parser._actions[1]._choices_actions}
    subparsers = parser._actions[1].choices
    assert set(listed) == set(subparsers)
    for name, sub in subparsers.items():
        assert sub.description == listed[name]
        assert listed[name] in " ".join(sub.format_help().split()), name
    out = run_cli(["metric-reduce", "--help"])
    assert out.returncode == 0
    budget = f"at most {cli.metric._MAX_LUO_ITERATIONS} Luo moves"
    assert f"metric reduction, {budget}, with the full move log" in " ".join(
        out.stdout.split()
    )


# -- Subcommands ------------------------------------------------------------------

def test_cli_reduce_text(k3_file):
    out = run_cli(["reduce", k3_file, "--q", "2", "--divisor", "start"])
    assert out.returncode == 0
    assert "result: 0 1 4" in out.stdout
    assert "script: 3 1 0" in out.stdout


def test_cli_reduce_json_deterministic(k3_file):
    a = run_cli(["reduce", k3_file, "--q", "2", "--divisor", "start", "--format", "json"])
    b = run_cli(["reduce", k3_file, "--q", "2", "--divisor", "start", "--format", "json"])
    assert a.returncode == 0
    da, db = json.loads(a.stdout), json.loads(b.stdout)
    del da["wall_time_ms"], db["wall_time_ms"]
    assert da == db
    assert da["outputs"]["result"] == [0, 1, 4]
    assert da["command"] == "reduce"
    assert "graph_sha256" in da["inputs"]


def test_cli_reduce_json_layout(k3_file, capsys):
    # every key is a value steps 1-2 compute; none stands for a step that
    # never runs
    args = ["reduce", k3_file, "--q", "2", "--divisor", "start", "--format", "json"]
    assert cli.main(args) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["outputs"]) == {"floor_path", "result", "script"}
    assert set(report["move_counts"]) == {
        "step1_floor_rounds", "step2_borrows", "step2_unborrow_sets",
    }


# sha256 over the JSON stdout and exit code of every subcommand on the K3
# and segment fixtures, plus three exit-2 failures; wall_time_ms and the
# graph's tmp path are dropped first, and the float spectral bound rounded
CLI_JSON_DIGEST = "9fab919f1830cf37a5c4febe15a2624f5a051bd119be5c8424c24eb5c54f99ed"

# (fixture, argv after the graph file); a failure's error line names no path
CLI_JSON_RUNS = [
    ("k3", ["check-reduced", "--q", "2", "--divisor", "start"]),
    ("k3", ["reduce", "--q", "2", "--divisor", "start"]),
    ("k3", ["to-tree", "--q", "2", "--divisor", "0 1 4"]),
    ("k3", ["from-tree", "--q", "0", "--tree", "0 1"]),
    ("k3", ["count-trees"]),
    ("k3", ["jacobian"]),
    ("k3", ["sample-tree", "--q", "0", "--seed", "1", "--count", "3"]),
    ("k3", ["group-add", "--q", "2", "--divisor", "1 0 -1", "--divisor2", "1 0 -1"]),
    ("k3", ["winnable", "--divisor", "-1 0 0"]),
    ("k3", ["rank", "--divisor", "flat", "--c", "2"]),
    ("k3", ["bounds", "--q", "2"]),
    ("seg", ["metric-check", "--q", "v:0", "--divisor", "twoa"]),
    ("seg", ["metric-reduce", "--q", "v:0", "--divisor", "v:1=-1 e:0@2/5=2"]),
    ("k3", ["reduce", "--q", "7", "--divisor", "start"]),
    ("k3", ["metric-reduce", "--q", "v:0", "--divisor", "start"]),
    ("k3", ["sample-tree", "--q", "0", "--seed", "1", "--count", "0"]),
]


# each of the two Luo moves that carry v:1=2 on the unit segment to v:0
_SEG_MOVE = (
    '{"b_q_drop": "1/2", "component_length": "0", "component_points": ["v:1"], '
    '"cut_size": 1, "epsilon": "1"}'
)


@pytest.mark.parametrize(
    "fixture, args, code, want",
    [
        ("k3", ["reduce", "--q", "2", "--divisor", "start"], 0, [
            "command: reduce", "floor_path: float", "result: 0 1 4", "script: 3 1 0",
            "moves.step1_floor_rounds: 1", "moves.step2_borrows: 0",
            "moves.step2_unborrow_sets: 0",
        ]),
        ("k3", ["check-reduced", "--q", "2", "--divisor", "0 1 4"], 0, [
            "command: check-reduced", "burn_order: 2 0 1", "negative: -", "reduced: true",
            "unburnt: -",
        ]),
        ("k3", ["sample-tree", "--q", "0", "--seed", "7", "--count", "2"], 0, [
            "command: sample-tree", "seed: 7", "count: 2", "trees: [[0, 1], [0, 2]]",
        ]),
        ("seg", ["metric-reduce", "--q", "v:0", "--divisor", "twoa"], 0, [
            "command: metric-reduce",
            'after_make_effective: [["v:1", 2]]',
            f"iterations: [{_SEG_MOVE}, {_SEG_MOVE}]",
            'result: [["v:0", 2]]',
            "script_vertex_values: 2 0",
            "moves.luo_iterations: 2",
            "moves.make_effective_breaks: 0",
        ]),
        ("seg", ["metric-check", "--q", "v:0", "--divisor", "twoa"], 1, [
            "command: metric-check", "burn_order: v:0",
            'components: [{"cut_size": 1, "points": ["v:1"], "total_length": "0"}]',
            "reduced: false",
        ]),
    ],
    ids=["reduce", "check_reduced", "sample_tree", "metric_reduce", "metric_check"],
)
def test_cli_text_report_lines(k3_file, seg_file, capsys, fixture, args, code, want):
    # metric-check exits 1 on a divisor that is not reduced
    path = {"k3": k3_file, "seg": seg_file}[fixture]
    assert cli.main([args[0], path, *args[1:]]) == code
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == want
    assert re.fullmatch(r"wall_time_ms: \d+\.\d{3}", lines[-1])


def test_cli_bounds_text_report_lines(tmp_path, capsys):
    # K3 with edge 0-1 doubled: three of the bounds toward 0 are not integers
    p = tmp_path / "k3x2.cf"
    p.write_text("graph 3\nedge 0 1\nedge 0 1\nedge 1 2\nedge 0 2\n")
    assert cli.main(["bounds", str(p), "--q", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the eigenvalue bound is a float, equal to 20 up to rounding
    key, spectral = lines.pop(8).split(": ")
    assert key == "bound.spectral" and abs(float(spectral) - 20) < 1e-9
    assert lines[:-1] == [
        "command: bounds", "q: 0", "bound.diameter: 30", "bound.exact: 51/5",
        "bound.foster: 75", "bound.resistance: 72/5", "bound.rmax_coarse: 108/5",
        "bound.rmax_degree: 18", "bound.spectral_is_approximate: true",
    ]
    assert re.fullmatch(r"wall_time_ms: \d+\.\d{3}", lines[-1])


def test_cli_json_digest(k3_file, seg_file, capsys):
    files = {"k3": k3_file, "seg": seg_file}
    records = []
    for fixture, (command, *rest) in CLI_JSON_RUNS:
        code = cli.main([command, files[fixture], *rest, "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        report.pop("wall_time_ms", None)
        report.get("inputs", {}).pop("graph", None)
        if report.get("bounds"):
            # a float64 eigenvalue: its last bits depend on the LAPACK build
            report["bounds"]["spectral"] = round(report["bounds"]["spectral"], 9)
        records.append([code, report])
    assert [code for code, _ in records] == [1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 2, 2, 2]
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == CLI_JSON_DIGEST


def test_cli_reduce_json_reports_the_floor_path(k3_file, monkeypatch, capsys):
    args = ["reduce", k3_file, "--q", "2", "--divisor", "start", "--format", "json"]
    assert cli.main(args) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["outputs"]["floor_path"] == "float"
    assert report["move_counts"]["step1_floor_rounds"] == 1
    # a float solve that makes no progress sends step 1 to the exact solve
    monkeypatch.setattr(
        potential.PotentialTable,
        "float_inverse",
        lambda table: [[0.0] * (table.n - 1)] * (table.n - 1),
    )
    assert cli.main(args) == 0
    forced = json.loads(capsys.readouterr().out)
    assert forced["outputs"]["floor_path"] == "exact"
    assert forced["outputs"]["result"] == report["outputs"]["result"] == [0, 1, 4]


def test_cli_reduce_json_reports_the_step2_descent(tmp_path, capsys):
    # step 2's float guess overshoots here and one set is fired back
    rng = Random(1)
    G = tree_plus_edges(16, 32, rng)
    chips = [rng.randint(-9, 9) for _ in range(G.n)]
    p = tmp_path / "g16.cf"
    p.write_text(
        f"graph {G.n}\n"
        + "".join(f"edge {u} {v}\n" for u, v in G.edges)
        + "divisor d " + " ".join(map(str, chips)) + "\n"
    )
    args = ["reduce", str(p), "--q", "0", "--divisor", "d", "--format", "json"]
    assert cli.main(args) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["move_counts"]["step2_unborrow_sets"] == 1
    assert report["move_counts"]["step2_borrows"] == 23
    assert report["outputs"]["result"] == [12, 0, 0, 4, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 2]


def test_cli_check_reduced_exit_codes(k3_file):
    ok = run_cli(["check-reduced", k3_file, "--q", "2", "--divisor", "0 1 4"])
    assert ok.returncode == 0
    no = run_cli(["check-reduced", k3_file, "--q", "2", "--divisor", "start"])
    assert no.returncode == 1


def test_cli_tree_round_trip(k3_file, capsys):
    out = run_cli(["to-tree", k3_file, "--q", "0", "--divisor", "0 0 1"])
    assert out.returncode == 0
    tree_line = [l for l in out.stdout.splitlines() if l.startswith("tree_edges:")][0]
    edges = tree_line.split(":", 1)[1].split()
    back = run_cli(["from-tree", k3_file, "--q", "0", "--tree", " ".join(edges), "--degree", "1"])
    assert back.returncode == 0
    assert "divisor: 0 0 1" in back.stdout
    # edges 01, 12, 02: the path 0-1-2 leaves edge 2 externally active, so
    # its divisor of degree g = 1 keeps its one chip at q
    assert cli.main(["from-tree", k3_file, "--q", "0", "--tree", "0,1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["outputs"]["divisor"] == [1, 0, 0]
    assert cli.main(["to-tree", k3_file, "--q", "0", "--divisor", "1 0 0", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)["outputs"]
    assert out["tree_edges"] == [0, 1] and out["ext_active"] == [2]


def test_cli_to_tree_rejects_unreduced(k3_file, capsys):
    out = run_cli(["to-tree", k3_file, "--q", "2", "--divisor", "start"])
    assert out.returncode == 2
    assert out.stderr.strip()
    # vertex 1 never burns: the edge scan stalls, which is the refusal
    args = ["to-tree", k3_file, "--q", "2", "--divisor", "1 1 0", "--format", "json"]
    assert cli.main(args) == 2
    assert capsys.readouterr().out == (
        '{"command": "to-tree", "error": "divisor is not q-reduced", "exit_code": 2}\n'
    )


def test_cli_sample_tree_self_check_exits_3(k3_file, monkeypatch, capsys):
    # an unreduced divisor from the sampler's reduction core is an internal
    # fault, not bad input: the core ends at [-2, 1, 1], which on K3 with
    # q = 0 never burns past q
    monkeypatch.setattr(
        sys.modules["chipfire.jacobian"], "_steps_1_2",
        lambda G, q, D, floor=None: ([0, 0, 0], [-2, 1, 1], [0, 0, 0], [0, 0, 0], 0, 0, "float", 0),
    )
    args = ["sample-tree", k3_file, "--q", "0", "--seed", "1", "--format", "json"]
    assert cli.main(args) == 3
    assert json.loads(capsys.readouterr().out) == {
        "command": "sample-tree",
        "error": "reduce returned a divisor that is not q-reduced",
        "exit_code": 3,
    }


def test_cli_count_trees_and_jacobian(k3_file):
    out = run_cli(["count-trees", k3_file])
    assert out.returncode == 0 and "count: 3" in out.stdout
    out = run_cli(["jacobian", k3_file, "--format", "json"])
    rep = json.loads(out.stdout)
    assert rep["outputs"]["invariant_factors"] == [3]
    assert rep["outputs"]["order"] == 3


# (graph, q) on which a Smith form over Z without entry bounds ran for
# minutes: random_multigraph(10, 30) at seeds 46, 56 and 70, and an 8-vertex
# multigraph with 52,129 spanning trees
SMITH_STALLS = [
    (tree_plus_edges(10, 30, Random(46)), 0),
    (tree_plus_edges(10, 30, Random(56)), 0),
    (tree_plus_edges(10, 30, Random(70)), 0),
    (Graph(8, [(1, 0), (2, 0), (3, 2), (4, 2), (5, 1), (6, 1), (7, 2), (0, 6),
               (0, 5), (0, 6), (7, 4), (1, 7), (4, 6), (7, 0), (3, 5), (7, 1),
               (4, 3), (4, 3), (0, 3), (4, 3), (7, 6), (0, 5), (3, 1), (1, 4)]), 5),
]


@pytest.mark.parametrize(
    "G, q", SMITH_STALLS, ids=["seed46", "seed56", "seed70", "eight_vertices_q5"]
)
def test_cli_jacobian_returns_on_former_smith_stalls(tmp_path, G, q):
    p = tmp_path / "g.cf"
    p.write_text("".join([f"graph {G.n}\n"] + [f"edge {u} {v}\n" for u, v in G.edges]))
    # a stall fails on the timeout instead of hanging the suite
    out = run_cli(["jacobian", str(p), "--q", str(q), "--format", "json"], timeout=30)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["outputs"]["order"] == count_spanning_trees(G)


def test_cli_sample_tree_deterministic(k3_file):
    a = run_cli(["sample-tree", k3_file, "--q", "0", "--seed", "42", "--count", "5", "--format", "json"])
    b = run_cli(["sample-tree", k3_file, "--q", "0", "--seed", "42", "--count", "5", "--format", "json"])
    ta = json.loads(a.stdout)["outputs"]["trees"]
    tb = json.loads(b.stdout)["outputs"]["trees"]
    assert ta == tb and len(ta) == 5


def test_cli_group_add(k3_file):
    out = run_cli(["group-add", k3_file, "--q", "2", "--divisor", "1 0 -1", "--divisor2", "1 0 -1"])
    assert out.returncode == 0
    assert "result: 0 1 -1" in out.stdout


def test_cli_winnable_exit_codes(k3_file):
    win = run_cli(["winnable", k3_file, "--divisor", "2 -1 0"])
    assert win.returncode == 0
    assert "winnable: true" in win.stdout
    lose = run_cli(["winnable", k3_file, "--divisor", "-1 0 0"])
    assert lose.returncode == 1
    assert "winnable: false" in lose.stdout


def test_cli_rank(k3_file, tmp_path):
    yes = run_cli(["rank", k3_file, "--divisor", "flat", "--c", "2"])
    assert yes.returncode == 0
    no = run_cli(["rank", k3_file, "--divisor", "flat", "--c", "3"])
    assert no.returncode == 1
    # C(252, 2) = 31,626 divisors of degree 250 on K3, but deg D - c = 50 >= g
    # = 1 answers yes without testing them
    assert run_cli(["rank", k3_file, "--divisor", "300 0 0", "--c", "250"]).returncode == 0
    # C(201, 2) = 20,100 divisors of degree 199, but Riemann-Roch gives r = 198
    assert run_cli(["rank", k3_file, "--divisor", "199 0 0", "--c", "199"]).returncode == 1
    # 20 (v0) has degree g - 1 = 20 and no smaller side: C(19, 10) = 92,378
    # divisors, refused
    G = genus_21_multigraph()
    g21 = tmp_path / "g21.cf"
    g21.write_text(f"graph {G.n}\n" + "".join(f"edge {u} {v}\n" for u, v in G.edges))
    big = run_cli(["rank", str(g21), "--divisor", "20" + " 0" * 9, "--c", "10"])
    assert big.returncode == 2
    assert "cap" in big.stderr and big.stdout == ""


def test_cli_huge_vertex_count_exits_2(tmp_path, capsys):
    huge = tmp_path / "huge.cf"
    huge.write_text("graph 1000000000000\n")
    assert cli.main(["count-trees", str(huge), "--format", "json"]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert json.loads(out) == {
        "command": "count-trees",
        "error": f"{huge}: graph must be connected",
        "exit_code": 2,
    }


def test_cli_bounds(k3_file):
    out = run_cli(["bounds", k3_file, "--q", "2", "--format", "json"])
    rep = json.loads(out.stdout)
    assert rep["bounds"]["exact"] == "12"
    assert rep["bounds"]["resistance"] == "16"
    assert rep["bounds"]["spectral_is_approximate"] is True


def test_cli_metric_commands(seg_file):
    chk = run_cli(["metric-check", seg_file, "--q", "v:0", "--divisor", "twoa"])
    assert chk.returncode == 1  # two chips at the far end are not reduced
    red = run_cli(["metric-reduce", seg_file, "--q", "v:0", "--divisor", "twoa", "--format", "json"])
    assert red.returncode == 0
    rep = json.loads(red.stdout)
    assert rep["outputs"]["result"] == [["v:0", 2]]
    assert rep["outputs"]["after_make_effective"] == [["v:1", 2]]  # effective: kept
    assert rep["move_counts"]["make_effective_breaks"] == 0
    assert rep["move_counts"]["luo_iterations"] >= 1
    # f = 2 dist(v:0, .) on the two length-1/2 model edges: no kinks
    mix = json.loads(run_cli(["metric-reduce", seg_file, "--q", "v:0", "--divisor", "mix", "--format", "json"]).stdout)
    assert mix["outputs"]["after_make_effective"] == [["v:0", -2], ["v:1", 1], ["e:0@1/2", 2]]
    assert mix["move_counts"]["make_effective_breaks"] == 0
    # model edges of length 2/5 and 3/5: f = 2 at e:0@2/5 and 4 at v:1, so
    # slope 5 on the first edge; slopes 4 then 3 on the second, with one
    # kink (and its one chip) at e:0@3/5
    kink = run_cli(["metric-reduce", seg_file, "--q", "v:0", "--divisor", "v:1=-1 e:0@2/5=2", "--format", "json"])
    rep = json.loads(kink.stdout)
    assert rep["outputs"]["after_make_effective"] == [
        ["v:0", -5], ["v:1", 2], ["e:0@2/5", 3], ["e:0@3/5", 1]
    ]
    assert rep["move_counts"]["make_effective_breaks"] == 1
    chk2 = run_cli(["metric-check", seg_file, "--q", "v:0", "--divisor", "v:0=2"])
    assert chk2.returncode == 0


def test_cli_bad_input_exit_2(tmp_path, k3_file):
    missing = run_cli(["reduce", str(tmp_path / "nope.cf"), "--q", "0", "--divisor", "1 0 0"])
    assert missing.returncode == 2
    bad = tmp_path / "bad.cf"
    bad.write_text("graph 2\nedge 0 0\n")
    loops = run_cli(["reduce", str(bad), "--q", "0", "--divisor", "1 0"])
    assert loops.returncode == 2
    assert "line 2" in loops.stderr
    badq = run_cli(["reduce", k3_file, "--q", "7", "--divisor", "start"])
    assert badq.returncode == 2
    seg = tmp_path / "seg.graph"
    seg.write_text("graph 2\nedge 0 1 1\n")
    for command, q, divisor in (
        ("metric-reduce", "v:0", "v:9=1"),
        ("metric-reduce", "v:7", "v:1=1"),
        ("metric-check", "v:0", "v:9=1"),
        ("metric-reduce", "v:0", "v:-1=1"),
        ("metric-reduce", "e:0@1/0", "v:1=1"),
        ("metric-reduce", "v:0", "e:0@1/0=1"),
    ):
        out = run_cli([command, str(seg), "--q", q, "--divisor", divisor])
        assert out.returncode == 2
        assert out.stderr.startswith("error:")


def test_cli_missing_file_under_json_prints_one_json_object(tmp_path, capsys):
    missing = str(tmp_path / "nope.cf")
    assert cli.main(["reduce", missing, "--q", "0", "--divisor", "0", "--format", "json"]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    report = json.loads(out)
    assert report["command"] == "reduce" and report["exit_code"] == 2
    assert report["error"].startswith(f"cannot read {missing}: ")


@pytest.mark.parametrize(
    "args, error",
    [
        (["reduce", "{seg}", "--q", "0", "--divisor", "1 0"],
         "reduce needs a combinatorial graph (no edge lengths)"),
        (["reduce", "{k3}", "--q", "x", "--divisor", "start"],
         "base vertex must be an integer, got 'x'"),
        (["reduce", "{k3}", "--q", "0", "--divisor", "1,x,0"],
         "bad divisor '1,x,0': "),
        (["from-tree", "{k3}", "--q", "0", "--tree", "0,a"],
         "bad tree spec '0,a'"),
        (["from-tree", "{k3}", "--q", "0", "--tree", "0,0,1"],
         "bad tree spec '0,0,1': edge 0 is repeated"),
        (["rank", "{k3}", "--divisor", "flat", "--c", "-1"],
         "--c must be >= 0"),
        (["metric-reduce", "{seg}", "--q", "e:0@3", "--divisor", "twoa"],
         "bad point 'e:0@3': offset outside the edge"),
    ],
    ids=[
        "reduce_metric_file", "q_not_int", "divisor_not_int", "tree_not_int",
        "tree_edge_repeated", "c_negative", "q_off_the_edge",
    ],
)
def test_cli_refusals_name_their_cause(k3_file, seg_file, capsys, args, error):
    args = [a.format(k3=k3_file, seg=seg_file) for a in args] + ["--format", "json"]
    assert cli.main(args) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    report = json.loads(out)
    assert report["command"] == args[0] and report["exit_code"] == 2
    # the divisor refusal ends with the int() parser's own message
    if error.endswith(": "):
        assert report["error"].startswith(error)
    else:
        assert report["error"] == error


def test_cli_metric_reduce_safety_cap_exits_2(seg_file, monkeypatch, capsys):
    monkeypatch.setattr("chipfire.metric._MAX_LUO_ITERATIONS", 1)
    args = ["metric-reduce", seg_file, "--q", "v:0", "--divisor", "twoa", "--format", "json"]
    assert cli.main(args) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert json.loads(out) == {
        "command": "metric-reduce",
        "error": "more than _MAX_LUO_ITERATIONS = 1 Luo moves, the budget, "
        "on an input of common denominator N = 1",
        "exit_code": 2,
    }


def test_cli_metric_reduce_self_check_exits_3(tmp_path, monkeypatch, capsys):
    # the one move leaves a chip at e:0@2/3, a point it creates; a script
    # one off there fails metric_reduce's exact check
    tri = tmp_path / "tri.cf"
    tri.write_text("graph 3\nedge 0 1 1\nedge 1 2 1/2\nedge 0 2 1/3\n")
    interpolate = metric._interpolate
    monkeypatch.setattr(metric, "_interpolate", lambda *args: interpolate(*args) + 1)
    args = ["metric-reduce", str(tri), "--q", "v:0", "--divisor", "v:1=1 v:2=1", "--format", "json"]
    assert cli.main(args) == 3
    assert json.loads(capsys.readouterr().out) == {
        "command": "metric-reduce",
        "error": "the moves and the script's Laplacian disagree",
        "exit_code": 3,
    }


def test_cli_reduce_script_mismatch_exits_3(k3_file, monkeypatch, capsys):
    # borrow counts one off at vertex 0 give a script whose Laplacian misses
    # the result: reduce's exact self-check, not bad input
    borrow = _kernels.borrow_until_effective

    def miscounted(*args):
        d2, counts, borrows, unborrows = borrow(*args)
        return d2, [counts[0] + 1, *counts[1:]], borrows, unborrows

    monkeypatch.setattr(_kernels, "borrow_until_effective", miscounted)
    args = ["reduce", k3_file, "--q", "2", "--divisor", "start", "--format", "json"]
    assert cli.main(args) == 3
    assert json.loads(capsys.readouterr().out) == {
        "command": "reduce", "error": "reduction script mismatch", "exit_code": 3,
    }


@pytest.mark.parametrize("exc", [RuntimeError, AssertionError])
def test_cli_internal_failure_exit_3(k3_file, monkeypatch, capsys, exc):
    def broken(*_args):
        raise exc("self-check tripped")

    monkeypatch.setattr(cli, "_cmd_reduce", broken)
    code = cli.main(["reduce", k3_file, "--q", "2", "--divisor", "start"])
    out = capsys.readouterr()
    assert code == 3
    assert out.out == ""
    assert out.err == "failure: self-check tripped\n"


@pytest.mark.parametrize(
    "exc, code, label",
    [(ValueError, 2, "error"), (RuntimeError, 3, "failure"), (AssertionError, 3, "failure")],
)
def test_cli_failure_under_json_prints_one_json_object(
    k3_file, monkeypatch, capsys, exc, code, label
):
    def broken(*_args):
        raise exc("self-check tripped")

    monkeypatch.setattr(cli, "_cmd_reduce", broken)
    args = ["reduce", k3_file, "--q", "2", "--divisor", "start", "--format", "json"]
    assert cli.main(args) == code
    out = capsys.readouterr()
    assert json.loads(out.out) == {
        "command": "reduce", "exit_code": code, "error": "self-check tripped"
    }
    assert out.out.count("\n") == 1
    assert out.err == f"{label}: self-check tripped\n"


def test_cli_argparse_refusals_print_no_json(k3_file):
    # argparse refuses these itself, before run: exit 2 with its usage on
    # stderr, and no JSON object on stdout even under --format json
    for args, cause in (
        (["reduce", k3_file, "--q", "2"], "required: --divisor"),
        (["sample-tree", k3_file, "--q", "0", "--seed", "x"], "invalid int value: 'x'"),
    ):
        out = run_cli([*args, "--format", "json"])
        assert out.returncode == 2
        assert out.stdout == ""
        assert cause in out.stderr


def test_cli_metric_command_on_plain_file(k3_file):
    out = run_cli(["metric-reduce", k3_file, "--q", "v:0", "--divisor", "start"])
    assert out.returncode == 2


# Imports the package and its CLI, runs the exact algorithms, then the two
# float ones, and prints what each returned; True/False say whether numpy
# was loaded at the two points the child checks.
_LAZY_NUMPY_CHILD = """
import sys

import chipfire
import chipfire.cli
from chipfire import (
    Graph, MetricGraph, count_spanning_trees, divisor_to_metric, divisor_to_tree,
    is_reduced, jacobian, metric_reduce, reduce, sample_spanning_tree, tree_to_divisor,
)

G = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1)])
gamma = MetricGraph(Graph(3, [(0, 1), (1, 2), (0, 2)]), [1, "1/2", "1/3"])
out = []
tree = divisor_to_tree(G, 0, [0, 1, 1, 1])
out.append(tree)
out.append(tree_to_divisor(G, 0, tree))
out.append(is_reduced(G, 0, [0, 1, 1, 1]))
out.append(jacobian(G, 0))
out.append(count_spanning_trees(G))
report = metric_reduce(gamma, 2, divisor_to_metric(gamma, [3, -1, 0]))
out.append((report.after_make_effective, report.result))
out.append("numpy" in sys.modules)
out.append(reduce(G, 0, [0, 9, -2, 4]).result)
out.append(sample_spanning_tree(G, 0, 7, count=3))
out.append("numpy" in sys.modules)
print(repr(out))
"""


def test_exact_algorithms_run_without_loading_numpy():
    # this process has numpy loaded already, so a fresh child checks
    child = subprocess.run(
        [sys.executable, "-c", _LAZY_NUMPY_CHILD],
        capture_output=True, text=True, env=_ENV, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    got = child.stdout.strip()
    G = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1)])
    gamma = MetricGraph(Graph(3, [(0, 1), (1, 2), (0, 2)]), [1, "1/2", "1/3"])
    tree = chipfire.divisor_to_tree(G, 0, [0, 1, 1, 1])
    report = metric.metric_reduce(gamma, 2, metric.divisor_to_metric(gamma, [3, -1, 0]))
    want = [
        tree,
        chipfire.tree_to_divisor(G, 0, tree),
        chipfire.is_reduced(G, 0, [0, 1, 1, 1]),
        chipfire.jacobian(G, 0),
        count_spanning_trees(G),
        (report.after_make_effective, report.result),
        False,  # the bijection, Dhar, the Jacobian and make-effective's solve
        chipfire.reduce(G, 0, [0, 9, -2, 4]).result,  # step 1's float floor
        chipfire.sample_spanning_tree(G, 0, 7, count=3),  # the Philox stream
        True,
    ]
    assert got == repr(want)
