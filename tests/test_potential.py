"""Generalized inverses, potentials, resistance and energies.

Core claims:
    - The three inverse constructions all satisfy Q G Q = Q; the weighted
      family interpolates them and the shifted form vanishes on mu.  The
      reprs of L_(q) and Q+ are pinned.
    - j_q values are symmetric nonnegative rationals with denominator
      dividing the tree count; r(p, q) = j_q(p, p) matches frozen values.
    - Foster's theorem: effective resistances over edges sum to n - 1.
    - The energy pairing is the same under every generalized inverse and
      refuses an inverse of another size than the graph.
    - b_q and the q-energy respond to single moves by exact integers:
      borrowing off q adds 1, firing a set off q subtracts its size.
    - The pentagon move drops the total energy by exactly 2 deg(v) |y|.
    - The j-tables, L_(q), Q+ and every move bound are pinned by one digest
      over the SMALL and RANDOM corpora; beyond them, the j-table equals
      sympy's adjugate over det on 40 vertices and Q+ sympy's pinv on 10.
      On a 60-vertex multigraph, past where sympy's adjugate is quick, the
      j-table's numerators are Q_(q)'s adjugate by the certificate
      Q_(q) num = den I, and den is a modular determinant.
"""

import dataclasses
import hashlib
import json
from fractions import Fraction
from random import Random

import numpy as np
import pytest
import sympy

from chipfire.graph import (
    Divisor,
    VertexFunction,
    apply_laplacian,
    complete_graph,
    cycle_graph,
    fire_set,
    indicator,
    laplacian,
    path_graph,
    reduced_laplacian,
    _laplacian_list,
)
from chipfire.potential import (
    GeneralizedInverse,
    b_q,
    effective_resistance,
    energy_pairing,
    j_function,
    moore_penrose,
    pentagon_move,
    q_energy,
    reduced_inverse,
    total_energy,
    weighted_inverse,
)

from chipfire.reduction import move_bounds
from corpus import (
    RANDOM, SMALL, modular_det, random_divisor, random_multigraph, tree_plus_edges,
)

POTENTIAL_DIGEST = "4764b428d90b713f198f1e8f36e2966f3c25f0d4d216118bceb5e9587e599c74"


def _potential_record(G):
    """Every generalized inverse and move bound of G, as JSON-ready strings."""

    def rows(L):
        return [[str(x) for x in row] for row in L]

    def bounds(q):
        fields = dataclasses.asdict(move_bounds(G, q))
        # the one float: rounded so a last-bit BLAS difference does not show
        fields["spectral"] = f"{fields['spectral']:.10g}"
        return {k: str(v) for k, v in fields.items()}

    tables = [j_function(G, q) for q in G.vertices]
    return {
        "j": [[[list(row) for row in t.num], t.den] for t in tables],
        "reduced": [rows(reduced_inverse(G, q).L) for q in G.vertices],
        "moore_penrose": rows(moore_penrose(G).L),
        "bounds": [bounds(q) for q in G.vertices],
    }


# -- Generalized inverses ------------------------------------------------------

def test_potential_outputs_match_pinned_digest():
    # j-tables at every q, L_(q), Q+ and every move bound, over both corpora
    records = [_potential_record(G) for G in SMALL + RANDOM]
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == POTENTIAL_DIGEST


def test_generalized_inverse_reprs():
    G = path_graph(3)
    assert repr(reduced_inverse(G, 1)) == "GeneralizedInverse('reduced', n=3, q=1)"
    assert repr(moore_penrose(G)) == "GeneralizedInverse('moore_penrose', n=3)"


def test_j_function_matches_sympy_adjugate_on_40_vertices():
    # Matrix.adjugate() expands cofactors one by one and runs for minutes at
    # this size; the domain-matrix adjugate is sympy's fast exact route
    G = random_multigraph(40, 80, np.random.default_rng(1))
    q = 17
    M = sympy.Matrix(reduced_laplacian(G, q).tolist())
    adj = M.to_DM().adjugate().to_Matrix()
    table = j_function(G, q)
    assert table.den == M.det()
    keep = [v for v in G.vertices if v != q]
    for a, p in enumerate(keep):
        assert [table.num[p][v] for v in keep] == adj.row(a).tolist()[0]
    assert table.num[q] == (0,) * G.n
    assert all(row[q] == 0 for row in table.num)


def test_j_table_is_the_adjugate_on_60_vertices():
    # exact.factor's unit phase runs ahead of the Bareiss pass here; the
    # certificate and the determinant share no code with it
    G = tree_plus_edges(60, 180, Random(1))
    q = 0
    Q = reduced_laplacian(G, q).tolist()
    table = j_function(G, q)
    keep = [v for v in G.vertices if v != q]
    adj = [[table.num[p][v] for v in keep] for p in keep]
    kappa = table.den
    assert kappa == modular_det(Q)
    QA = [[sum(a * b for a, b in zip(row, col)) for col in zip(*adj)] for row in Q]
    assert QA == [[kappa if i == j else 0 for j in range(len(Q))] for i in range(len(Q))]


def test_moore_penrose_matches_sympy_pinv_on_10_vertices():
    G = random_multigraph(10, 15, np.random.default_rng(2))
    want = sympy.Matrix(laplacian(G).tolist()).pinv().tolist()
    assert [list(row) for row in moore_penrose(G).L] == want


def test_reduced_inverse_triangle_oracle():
    G = complete_graph(3)
    inv = reduced_inverse(G, 2)
    third = Fraction(1, 3)
    want = [
        [2 * third, third, 0],
        [third, 2 * third, 0],
        [0, 0, 0],
    ]
    assert [list(row) for row in inv.L] == want
    assert inv.q == 2


def test_moore_penrose_triangle_oracle():
    G = complete_graph(3)
    inv = moore_penrose(G)
    for i in range(3):
        for j in range(3):
            want = Fraction(2, 9) if i == j else Fraction(-1, 9)
            assert inv.L[i][j] == want


def _qgq(G, L):
    Q = laplacian(G)
    n = G.n
    QL = [[sum(Fraction(int(Q[i][k])) * L[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [
        [sum(QL[i][k] * int(Q[k][j]) for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def test_qgq_identity_all_kinds():
    rng = np.random.default_rng(23)
    for G in SMALL[2:10] + RANDOM[:6]:
        Q = laplacian(G)
        candidates = [reduced_inverse(G, 0), moore_penrose(G)]
        mu = [Fraction(1 + int(rng.integers(0, 3)), 1) for _ in range(G.n)]
        s = sum(mu)
        mu = [x / s for x in mu]
        candidates.append(weighted_inverse(G, mu))
        for inv in candidates:
            got = _qgq(G, inv.L)
            assert got == [[Fraction(int(Q[i][j])) for j in range(G.n)] for i in range(G.n)]


def test_weighted_inverse_rejects_bad_mu():
    G = complete_graph(3)
    with pytest.raises(ValueError):
        weighted_inverse(G, [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError, match="size"):
        weighted_inverse(cycle_graph(4), [1, 0, 0])


def test_float_weights_and_entries_are_refused():
    # a float is read at its binary value: [0.1, 0.2, 0.3, 0.4] does not sum
    # to 1 and h = 0.1 made b_q 118895030162581095/2**57 instead of 33/40
    G = cycle_graph(4)
    D = Divisor((0, 1, 0, 0))
    assert b_q(G, 0, D, h=[1, "1/10", 1, 1]) == Fraction(33, 40)
    exact_mu = [Fraction(k, 10) for k in (1, 2, 3, 4)]
    assert weighted_inverse(G, exact_mu).mu == tuple(exact_mu)
    with pytest.raises(TypeError, match="must be exact"):
        weighted_inverse(G, [0.1, 0.2, 0.3, 0.4])
    with pytest.raises(TypeError, match="must be exact"):
        b_q(G, 0, D, h=[1, 0.1, 1, 1])
    with pytest.raises(TypeError, match="must be exact"):
        j_function(G, 0).b(D, h=[1, 0.1, 1, 1])
    with pytest.raises(TypeError, match="must be exact"):
        GeneralizedInverse("reduced", [[0.5, 0], [0, 0]], q=1)
    with pytest.raises(TypeError, match="must be exact"):
        GeneralizedInverse("weighted", [[0, 0], [0, 0]], mu=[0.5, 0.5])


def test_weighted_uniform_shifted_is_moore_penrose():
    G = cycle_graph(5)
    mu = [Fraction(1, 5)] * 5
    shifted = weighted_inverse(G, mu, shifted=True)
    mp = moore_penrose(G)
    assert shifted.L == mp.L


def test_shifted_inverse_kills_mu():
    rng = np.random.default_rng(31)
    for G in SMALL[4:9]:
        mu = [Fraction(1 + int(rng.integers(0, 4)), 1) for _ in range(G.n)]
        s = sum(mu)
        mu = [x / s for x in mu]
        inv = weighted_inverse(G, mu, shifted=True)
        for row in inv.L:
            assert sum(r * m for r, m in zip(row, mu)) == 0


def test_weighted_inverse_is_the_mu_mix_of_reduced_inverses():
    # weighted_inverse reads L_mu off one j-table; the definition sums the
    # L_(i) of every vertex with a nonzero weight
    rng = np.random.default_rng(37)
    for G in SMALL + RANDOM:
        mu = [Fraction(int(rng.integers(0, 3))) for _ in range(G.n)]
        mu[int(rng.integers(0, G.n))] += 1
        total = sum(mu)
        mu = [x / total for x in mu]
        inverses = [reduced_inverse(G, i).L for i in G.vertices]
        want = tuple(
            tuple(sum(m * L[p][v] for m, L in zip(mu, inverses)) for v in G.vertices)
            for p in G.vertices
        )
        assert weighted_inverse(G, mu).L == want
        c = sum(x * m for x, m in zip(want[0], mu))
        shifted = tuple(tuple(x - c for x in row) for row in want)
        assert weighted_inverse(G, mu, shifted=True).L == shifted


def test_inverse_apply_solves_degree_zero():
    G = cycle_graph(4)
    D = Divisor((1, -1, 0, 0))
    inv = moore_penrose(G)
    f = inv.apply(list(D))
    back = _laplacian_list(G, f)
    assert back == [Fraction(x) for x in D]
    # a short vector is refused, not read as if padded with zeros
    with pytest.raises(ValueError, match="need a vector of length 4"):
        inv.apply([1, -1, 0])


# -- j-function and resistance ---------------------------------------------------

def test_j_symmetric_nonneg_and_denominator():
    from chipfire.jacobian import count_spanning_trees

    for G in SMALL[2:14] + RANDOM[:6]:
        q = G.n - 1
        table = j_function(G, q)
        trees = count_spanning_trees(G)
        assert table.den == trees
        for p in G.vertices:
            for v in G.vertices:
                assert table.num[p][v] == table.num[v][p]
                assert table.num[p][v] >= 0
                assert table.j(p, v) == Fraction(table.num[p][v], table.den)
            assert table.j(p, q) == 0


def test_resistance_oracles():
    assert effective_resistance(complete_graph(3), 0, 1) == Fraction(2, 3)
    assert effective_resistance(cycle_graph(4), 0, 1) == Fraction(3, 4)
    for k in (2, 3, 5):
        G = path_graph(k + 1)
        assert effective_resistance(G, 0, k) == k


def test_resistance_symmetric_and_triangle_inequality():
    for G in RANDOM[:6]:
        for p in G.vertices:
            for q in G.vertices:
                r1 = effective_resistance(G, p, q)
                assert r1 == effective_resistance(G, q, p)
                assert (r1 == 0) == (p == q)


def test_foster_theorem():
    # sum of effective resistances across edges equals n - 1
    for G in SMALL[2:20] + RANDOM[:8]:
        total = sum(effective_resistance(G, u, v) for u, v in G.edges)
        assert total == G.n - 1


def test_g_function_laplacian_identity():
    # Delta(g_q) = sum_v (v) - n (q) and g_q(q) = 0
    for G in SMALL[2:12]:
        q = 0
        table = j_function(G, q)
        g = [table.g(v) for v in G.vertices]
        assert g[q] == 0
        got = _laplacian_list(G, g)
        want = [1 - (G.n if v == q else 0) for v in G.vertices]
        assert got == want


# -- Energies ---------------------------------------------------------------------

def test_b_and_energy_triangle_oracle():
    G = complete_graph(3)
    D = Divisor((1, 1, 0))
    assert b_q(G, 2, D) == 2
    assert q_energy(G, 2, D) == 2


def test_b_weight_validation():
    G = complete_graph(3)
    table = j_function(G, 2)
    with pytest.raises(ValueError):
        table.b(Divisor((1, 1, 0)), h=[1, 0, 1])


@pytest.mark.parametrize("h", [[1, 1, 1], [1] * 6], ids=["short", "long"])
def test_b_weights_of_the_wrong_size_are_refused(h):
    # a short h used to reach an IndexError and a long one was read as its
    # first n entries
    with pytest.raises(ValueError, match="weight vector size does not match graph"):
        b_q(complete_graph(4), 0, Divisor((1, 0, 0, 0)), h=h)


def test_b_with_positive_weights():
    G = cycle_graph(4)
    table = j_function(G, 0)
    D = Divisor((0, 2, -1, 1))
    default = table.b(D)
    weighted = table.b(D, h=[1, 1, 1, 1])
    assert default == weighted
    doubled = table.b(D, h=[1, 2, 2, 2])
    assert doubled != default


def test_borrow_identity():
    # borrowing at v != q (reverse firing) raises b_q by exactly 1
    rng = np.random.default_rng(41)
    for G in SMALL[3:13] + RANDOM[:6]:
        q = int(rng.integers(0, G.n))
        D = random_divisor(G.n, rng)
        before = b_q(G, q, D)
        for v in G.vertices:
            if v == q:
                continue
            borrowed = D + apply_laplacian(G, indicator(G.n, {v}))
            assert b_q(G, q, borrowed) == before + 1


def test_fire_set_identity():
    # firing a set A avoiding q lowers b_q by exactly |A|
    rng = np.random.default_rng(43)
    for G in SMALL[3:13] + RANDOM[:6]:
        q = int(rng.integers(0, G.n))
        D = random_divisor(G.n, rng)
        others = [v for v in G.vertices if v != q]
        for _ in range(4):
            k = int(rng.integers(1, len(others) + 1)) if others else 0
            if k == 0:
                continue
            A = set(rng.choice(others, size=k, replace=False).tolist())
            fired = fire_set(G, D, A)
            assert b_q(G, q, fired) == b_q(G, q, D) - len(A)


def test_q_energy_nonnegative_and_zero_iff_multiple():
    rng = np.random.default_rng(47)
    for G in SMALL[3:10]:
        q = 0
        for _ in range(20):
            D = random_divisor(G.n, rng)
            e = q_energy(G, q, D)
            assert e >= 0
            shifted = [D[v] - (D.degree if v == q else 0) for v in G.vertices]
            if any(shifted[v] != 0 for v in G.vertices if v != q):
                assert e > 0
    # the energy vanishes exactly on multiples of (q)
    G = complete_graph(3)
    assert q_energy(G, 1, Divisor((0, 7, 0))) == 0


def test_energy_pairing_rules():
    G = cycle_graph(4)
    D1 = Divisor((1, -1, 0, 0))
    D2 = Divisor((0, 1, 0, -1))
    with pytest.raises(ValueError):
        energy_pairing(G, Divisor((1, 0, 0, 0)), D2)
    a = energy_pairing(G, D1, D2)
    assert a == energy_pairing(G, D2, D1)
    # independent of the chosen generalized inverse on degree-zero pairs
    assert a == energy_pairing(G, D1, D2, inverse=moore_penrose(G))
    assert a == energy_pairing(G, D1, D2, inverse=reduced_inverse(G, 2))
    # an inverse of another graph's size is refused, neither read in part
    # (K4's on K3) nor run off its end (K2's on K3)
    K3 = complete_graph(3)
    E1, E2 = Divisor((1, -1, 0)), Divisor((0, 1, -1))
    assert energy_pairing(K3, E1, E2) == Fraction(-1, 3)
    for size in (4, 2):
        with pytest.raises(ValueError, match="inverse has size"):
            energy_pairing(K3, E1, E2, inverse=reduced_inverse(complete_graph(size), 0))


def test_pentagon_move_drops_total_energy():
    # the drop is 2 s (-y) where s is the (positive) sum of all numbers
    rng = np.random.default_rng(53)
    G = cycle_graph(5)
    done = 0
    while done < 30:
        D = Divisor([int(rng.integers(-4, 5)) for _ in range(5)])
        negs = [v for v in G.vertices if D[v] < 0]
        if D.degree < 1 or not negs:
            continue
        v = negs[0]
        y = D[v]
        before = total_energy(G, D)
        moved = pentagon_move(G, D, v)
        after = total_energy(G, moved)
        assert before - after == 2 * D.degree * (-y)
        assert moved[v] == -y  # chips at v flip sign
        done += 1


def test_pentagon_move_requires_negative():
    G = cycle_graph(5)
    with pytest.raises(ValueError):
        pentagon_move(G, Divisor((1, 0, 0, 0, 0)), 0)


