"""Step 1 of the reduction: the exact floor of L_(q) [D] from float solves.

Core claims:
    - after_step1 equals D - Delta(floor(L_(q) [D])) computed exactly: from
      the j-table on graphs up to 30 vertices and from one exact solve up to
      200, with chips in +-120 and +-2^70, on graphs with pendant vertices
      and bridges (whose solutions can be integral in some coordinates only)
      and on principal divisors, whose floor step lands on 0 after one
      float solve.
    - Every one of those floors is certified on the float path.
    - A float solve that makes no progress sends step 1 to the exact solve,
      with an identical report.
    - reduce and make_effective never build the exact j-table: step 1 reads
      only its float view.
    - A 1000-vertex multigraph with 2^70 chips reduces in about a second.
"""

import dataclasses

import numpy as np

from chipfire import exact, potential
from chipfire.graph import Divisor, Graph, apply_laplacian, reduced_laplacian
from chipfire.potential import j_function
from chipfire.reduction import dhar, make_effective, reduce as reduce_divisor

from corpus import random_multigraph


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
        sol = exact.solve(reduced_laplacian(G, q).tolist(), rhs)
        for j, D in enumerate(divisors):
            floors = [0] * n
            for v, row in zip(keep, sol):
                floors[v] = row[j].numerator // row[j].denominator
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


def test_reduce_does_not_build_the_j_table(monkeypatch):
    def refuse(matrix):
        raise AssertionError("exact adjugate built")

    monkeypatch.setattr(exact, "adjugate", refuse)
    rng = np.random.default_rng(610)
    G = _fresh_graph(12, rng)
    for D in _divisors(G, rng):
        rep = reduce_divisor(G, 3, D)
        assert dhar(G, 3, rep.result).reduced
        assert make_effective(G, 3, D)[0] == rep.after_step2


def test_reduce_on_1000_vertices_with_chips_beyond_64_bits():
    rng = np.random.default_rng(611)
    G = random_multigraph(1000, 2001, rng)
    assert G.m == 3000
    D = _big_chips(G.n, rng)
    rep = reduce_divisor(G, 0, D)
    assert dhar(G, 0, rep.result).reduced
    assert rep.result.degree == D.degree
