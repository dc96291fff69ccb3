"""File format and command-line interface.

Core claims:
    - parse/serialize round-trip graph files, reject malformed input with
      1-based line numbers, and distinguish plain from metric files.
    - Every subcommand produces correct output in text and json modes;
      exit codes are 0 (success), 1 (negative decision), 2 (bad input),
      3 (internal failure: a RuntimeError or a self-check AssertionError).
    - JSON reports are deterministic apart from wall_time_ms.
    - `jacobian` returns within a timeout on graphs where an unbounded
      Smith form stalled.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from random import Random

import pytest

from chipfire import cli, potential
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
from chipfire.metric import GraphPoint

from corpus import tree_plus_edges

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


def test_point_round_trip():
    for tok, want in (
        ("v:1", GraphPoint.vertex(1)),
        ("3", GraphPoint.vertex(3)),
        ("e:0@1/2", GraphPoint("e", 0, Fraction(1, 2))),
    ):
        assert parse_point(tok) == want
    assert format_point(GraphPoint("e", 2, Fraction(1, 3))) == "e:2@1/3"
    assert format_point(GraphPoint.vertex(4)) == "v:4"


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


def test_parse_divisor_arg_forms(tmp_path):
    gf = parse(K3_TEXT)
    assert parse_divisor_arg("start", gf) == Divisor((5, 0, 0))
    assert parse_divisor_arg("2 -1 0", gf) == Divisor((2, -1, 0))
    assert parse_divisor_arg("2,-1,0", gf) == Divisor((2, -1, 0))
    ext = tmp_path / "d.txt"
    ext.write_text("0 4 -4")
    assert parse_divisor_arg(f"@{ext}", gf) == Divisor((0, 4, -4))


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


def test_cli_tree_round_trip(k3_file):
    out = run_cli(["to-tree", k3_file, "--q", "0", "--divisor", "0 0 1"])
    assert out.returncode == 0
    tree_line = [l for l in out.stdout.splitlines() if l.startswith("tree_edges:")][0]
    edges = tree_line.split(":", 1)[1].split()
    back = run_cli(["from-tree", k3_file, "--q", "0", "--tree", " ".join(edges), "--degree", "1"])
    assert back.returncode == 0
    assert "divisor: 0 0 1" in back.stdout


def test_cli_to_tree_rejects_unreduced(k3_file):
    out = run_cli(["to-tree", k3_file, "--q", "2", "--divisor", "start"])
    assert out.returncode == 2
    assert out.stderr.strip()


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


def test_cli_rank(k3_file):
    yes = run_cli(["rank", k3_file, "--divisor", "flat", "--c", "2"])
    assert yes.returncode == 0
    no = run_cli(["rank", k3_file, "--divisor", "flat", "--c", "3"])
    assert no.returncode == 1
    # C(252, 2) = 31,626 divisors of degree 250 on K3: refused, exit 2
    big = run_cli(["rank", k3_file, "--divisor", "300 0 0", "--c", "250"])
    assert big.returncode == 2
    assert "cap" in big.stderr and big.stdout == ""


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


@pytest.mark.parametrize("exc", [RuntimeError, AssertionError])
def test_cli_internal_failure_exit_3(k3_file, monkeypatch, capsys, exc):
    def broken(gf, args):
        raise exc("self-check tripped")

    monkeypatch.setitem(cli._HANDLERS, "reduce", broken)
    code = cli.main(["reduce", k3_file, "--q", "2", "--divisor", "start"])
    out = capsys.readouterr()
    assert code == 3
    assert out.out == ""
    assert out.err == "failure: self-check tripped\n"


def test_cli_metric_command_on_plain_file(k3_file):
    out = run_cli(["metric-reduce", k3_file, "--q", "v:0", "--divisor", "start"])
    assert out.returncode == 2
