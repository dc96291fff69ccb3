"""Step 1 of the reduction: the exact floor of L_(q) [D] from float solves.

Core claims:
    - after_step1 equals D - Delta(floor(L_(q) [D])) computed exactly: from
      the j-table on graphs up to 30 vertices and from one exact solve up to
      200, with chips in +-120 and +-2^70, on graphs with pendant vertices
      and bridges (whose solutions can be integral in some coordinates only)
      and on principal divisors, whose floor step lands on 0 after one
      float solve.
    - Every one of those floors is certified on the float path.
    - A float solve that makes no progress, or one that is not finite,
      sends step 1 to the exact solve, with an identical report.
    - reduce never builds the exact j-table: step 1 reads only its float
      view.
    - A 1000-vertex multigraph with 2^70 chips reduces in about a second.
    - A chip count beyond the float range at q reduces through step 2's
      float guess, which does not read q.
    - is_linearly_equivalent, decided by step 1 on D1 - D2, gives the script
      or None that one exact solve of L_(q) [D1 - D2] gives, up to 200
      vertices, with no exact factor or substitution and no exact j-table.
    - The path, round count and divisor of step 1 on 400 seeded inputs
      (2-45 vertices, chips up to +-2^200) match a pinned digest, so a
      change to how a float solve is rounded cannot move the rounds unseen.
"""

import dataclasses
import hashlib
import json
import warnings
from random import Random

import numpy as np
import pytest

from chipfire import exact, potential
from chipfire.graph import (
    Divisor, FiringScript, Graph, apply_laplacian, reduced_laplacian,
)
from chipfire.potential import j_function
from chipfire.reduction import (
    dhar, is_linearly_equivalent, reduce as reduce_divisor,
)

from corpus import random_multigraph

FLOOR_DIGEST = "b1285be7e531385f2c12238046f2a19649222184bab49f21b90bbd8ac7a52fce"


def _fresh_graph(n, rng):
    """A multigraph core on about half the vertices with the rest hung off
    it as trees, so the graph has bridges and pendant vertices."""
    core = max(2, n // 2)
    edges = list(random_multigraph(core, 2 * core, rng).edges)
    for v in range(core, n):
        edges.append((int(rng.integers(0, v)), v))
    return Graph(n, edges)


def _big_chips(n, rng):
    """n chip counts uniform in [-2^70, 2^70)."""
    hi = rng.integers(0, 2**36, size=n)
    lo = rng.integers(0, 2**35, size=n)
    return Divisor((int(a) << 35 | int(b)) - 2**70 for a, b in zip(hi, lo))


def _divisors(G, rng):
    """Chips in +-120 and +-2^70, and a principal divisor -Delta(f)."""
    n = G.n
    f = [int(rng.integers(-40, 41)) for _ in range(n)]
    return [
        Divisor(int(rng.integers(-120, 121)) for _ in range(n)),
        _big_chips(n, rng),
        -apply_laplacian(G, f),
    ]


def _step1(G, D, floors):
    return D - apply_laplacian(G, floors)


def test_after_step1_matches_the_j_table_floor():
    rng = np.random.default_rng(606)
    for n in list(range(2, 21)) + [25, 30]:
        G = _fresh_graph(n, rng)
        for q in {0, n - 1, int(rng.integers(0, n))}:
            table = j_function(G, q)
            for D in _divisors(G, rng):
                x = [sum(map(int.__mul__, row, D)) for row in table.num]
                rep = reduce_divisor(G, q, D)
                assert rep.floor_path == "float"
                assert rep.after_step1 == _step1(G, D, [s // table.den for s in x])


def test_after_step1_matches_the_exact_solve_floor_up_to_200_vertices():
    rng = np.random.default_rng(607)
    for n in (60, 120, 200):
        G = _fresh_graph(n, rng)
        q = int(rng.integers(0, n))
        keep = [v for v in G.vertices if v != q]
        divisors = _divisors(G, rng)
        rhs = [[D[v] for D in divisors] for v in keep]
        d, sol = exact.solve(reduced_laplacian(G, q).tolist(), rhs)
        for j, D in enumerate(divisors):
            floors = [0] * n
            for v, row in zip(keep, sol):
                floors[v] = row[j] // d
            rep = reduce_divisor(G, q, D)
            assert rep.floor_path == "float"
            assert rep.after_step1 == _step1(G, D, floors)


def test_principal_divisors_land_on_zero_after_step1():
    rng = np.random.default_rng(608)
    for n in (5, 40, 150):
        G = _fresh_graph(n, rng)
        f = [int(x) for x in rng.integers(-2**40, 2**40, size=n)]
        rep = reduce_divisor(G, 0, -apply_laplacian(G, f))
        assert rep.after_step1 == Divisor([0] * n)
        # round(x~) has a zero residual after the first solve
        assert (rep.floor_path, rep.floor_rounds) == ("float", 1)


def test_a_leaf_base_vertex_gives_an_integral_coordinate():
    # q hangs off vertex 1 by a bridge, so x(1) = sum of D off q is an
    # integer while the rest of the solution is fractional: no margin can
    # certify floor(x(1)); the 1/(2T) rule does.
    G = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 2), (2, 4)])
    D = Divisor([0, 3, -2, 5, 1, -4])
    table = j_function(G, 0)
    x = [sum(map(int.__mul__, row, D)) for row in table.num]
    assert x[1] == 3 * table.den and any(s % table.den for s in x)
    rep = reduce_divisor(G, 0, D)
    assert rep.floor_path == "float"
    assert rep.after_step1 == _step1(G, D, [s // table.den for s in x])


def test_no_progress_in_the_float_solve_falls_back_to_the_exact_solve(monkeypatch):
    rng = np.random.default_rng(609)
    cases = []
    for n in (2, 7, 30):
        G = _fresh_graph(n, rng)
        for D in _divisors(G, rng)[:2]:
            cases.append((G, n - 1, D, reduce_divisor(G, n - 1, D)))
    monkeypatch.setattr(
        potential.PotentialTable,
        "float_inverse",
        lambda table: np.zeros((table.n - 1, table.n - 1)),
    )
    for G, q, D, rep in cases:
        forced = reduce_divisor(G, q, D)
        assert forced.floor_path == "exact"
        assert forced.floor_rounds == 1
        # the zero inverse also gives step 2 a zero guess, so it takes the
        # same borrows without descent rounds
        assert forced.step2_unborrow_sets == 0
        assert dataclasses.replace(
            forced,
            floor_path=rep.floor_path,
            floor_rounds=rep.floor_rounds,
            step2_unborrow_sets=rep.step2_unborrow_sets,
        ) == rep


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_float_solve_falls_back_to_the_exact_solve(monkeypatch, bad):
    # the true inverse with one non-finite entry off index 0: the first float
    # solve is not finite, so step 1 takes the exact solve after one round,
    # without casting the non-finite solve to integers
    rng = np.random.default_rng(612)
    cases = []
    for n in (7, 30):
        G = _fresh_graph(n, rng)
        for D in _divisors(G, rng)[:2]:
            cases.append((G, n - 1, D, reduce_divisor(G, n - 1, D)))
    true_inverse = potential.PotentialTable.float_inverse

    def poisoned(table):
        inv = true_inverse(table).copy()
        inv[table.n // 2, 1] = bad
        return inv

    monkeypatch.setattr(potential.PotentialTable, "float_inverse", poisoned)
    for G, q, D, rep in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # NaN and inf * 0 in the matvec
            forced = reduce_divisor(G, q, D)
        assert not [w for w in caught if "encountered in cast" in str(w.message)]
        assert forced.floor_path == "exact"
        assert forced.floor_rounds == 1
        assert forced.result == rep.result
        assert forced.script == rep.script
        assert forced.after_step1 == rep.after_step1
        assert dataclasses.replace(
            forced,
            floor_path=rep.floor_path,
            floor_rounds=rep.floor_rounds,
            step2_unborrow_sets=rep.step2_unborrow_sets,
        ) == rep


def test_reduce_does_not_build_the_j_table(monkeypatch):
    def refuse(table):
        raise AssertionError("exact j-table built")

    monkeypatch.setattr(potential.PotentialTable, "_build", refuse)
    rng = np.random.default_rng(610)
    G = _fresh_graph(12, rng)
    for D in _divisors(G, rng):
        rep = reduce_divisor(G, 3, D)
        assert dhar(G, 3, rep.result).reduced


def test_reduce_on_1000_vertices_with_chips_beyond_64_bits():
    rng = np.random.default_rng(611)
    G = random_multigraph(1000, 2001, rng)
    assert G.m == 3000
    D = _big_chips(G.n, rng)
    rep = reduce_divisor(G, 0, D)
    assert dhar(G, 0, rep.result).reduced
    assert rep.result.degree == D.degree


def test_chips_beyond_the_float_range_at_q_reduce():
    rng = np.random.default_rng(614)
    G = random_multigraph(20, 30, rng)
    D = [int(c) for c in rng.integers(-9, 10, size=G.n)]
    D[3] = 10**400
    rep = reduce_divisor(G, 3, Divisor(D))
    # step 2 borrows, so on 20 vertices it starts from the float guess
    assert rep.moves_step2 > 0
    assert dhar(G, 3, rep.result).reduced
    assert rep.result.degree == sum(D)


def _exact_solve_scripts(G, q, pairs):
    """The script of each pair (D1, D2) from one exact solve of
    Q_(q) x = D1 - D2 off q for all pairs at once: None when the degrees
    differ or x is not integral."""
    keep = [v for v in G.vertices if v != q]
    rhs = [[D1[v] - D2[v] for D1, D2 in pairs] for v in keep]
    d, sol = exact.solve(reduced_laplacian(G, q).tolist(), rhs)
    scripts = []
    for j, (D1, D2) in enumerate(pairs):
        xs = [row[j] for row in sol]
        if D1.degree != D2.degree or any(x % d for x in xs):
            scripts.append(None)
            continue
        f = [0] * G.n
        for v, x in zip(keep, xs):
            f[v] = x // d
        scripts.append(FiringScript(f, q))
    return scripts


def _unit(n, v):
    return Divisor(int(w == v) for w in range(n))


def test_linear_equivalence_matches_one_exact_solve(monkeypatch):
    rng = np.random.default_rng(612)
    cases = []
    for n in list(range(2, 31)) + [60, 120, 200]:
        G = _fresh_graph(n, rng)
        # for n >= 3, n - 1 is a leaf joined to its neighbor p by a bridge,
        # so (n - 1) - (p) is principal; (u) - (w) for random u != w mostly
        # is not
        p = G.neighbors(n - 1)[0]
        for q in sorted({0, n - 1, int(rng.integers(0, n))}):
            pairs, scripts = [], []
            for D in _divisors(G, rng)[:2]:
                f = FiringScript(rng.integers(-2**40, 2**40, size=n).tolist(), q)
                E = D - apply_laplacian(G, f)
                u, w = (int(x) for x in rng.choice(n, size=2, replace=False))
                pairs += [
                    (D, E),
                    (D, E + _unit(n, u) - _unit(n, w)),
                    (D, E + _unit(n, n - 1) - _unit(n, p)),
                    (D, E + _unit(n, u)),
                ]
                scripts.append(f)
            expected = _exact_solve_scripts(G, q, pairs)
            assert expected[0::4] == scripts
            cases.append((G, q, pairs, expected))

    def refuse(*args):
        raise AssertionError("exact elimination run")

    # every exact system on Q_(q) is factored by _factor_rows and solved by
    # substitute, step 1's fallback included
    monkeypatch.setattr(exact, "_factor_rows", refuse)
    monkeypatch.setattr(exact, "substitute", refuse)
    answers = set()
    for G, q, pairs, expected in cases:
        got = [is_linearly_equivalent(G, D1, D2, q) for D1, D2 in pairs]
        assert got == expected
        for (D1, D2), script in zip(pairs, got):
            if script is not None:
                assert D1 - apply_laplacian(G, script) == D2
        answers.update(s is None for s in got[1::4])
    # the (u) - (w) pairs follow the oracle both ways
    assert answers == {True, False}


def _floor_records():
    rng = np.random.default_rng(613)
    chips = Random(613)
    records = []
    for i in range(400):
        n = int(rng.integers(2, 46))
        G = random_multigraph(n, int(rng.integers(0, 2 * n + 1)), rng)
        q = int(rng.integers(0, n))
        span = (3, 120, 2**70, 2**200)[i % 4]
        D = Divisor(chips.randint(-span, span) for _ in range(n))
        rep = reduce_divisor(G, q, D)
        records.append([rep.floor_path, rep.floor_rounds, list(rep.after_step1)])
    return records


def test_step1_path_rounds_and_divisor_match_pinned_digest():
    blob = json.dumps(_floor_records(), separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == FLOOR_DIGEST
