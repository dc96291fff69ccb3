"""End-to-end release gate: eight checks, one printed verdict line each.

Every check prints "ACCEPTANCE k: PASS/FAIL - ..." into the terminal
summary (see conftest) and also asserts, so a red line always comes with
a failing test.  All comparisons are exact integer or Fraction
arithmetic except the chi-square statistic, which is a float compared
against a frozen 0.999 quantile; the floating spectral move bound is
deliberately not gated.

Core claims:
 - determinant tree counts, Smith invariant factors and brute-force
   enumeration agree on the whole corpus in under a minute
 - reduction output passes Dhar and the subset definition, and strictly
   minimizes E_q and b_q among random equivalent divisors
 - every set firing drops b_q by exactly the set size, checked on the
   set-firing fixpoint from K+ and K+ plus effective divisors, where sets
   fire (reduce itself fires none); totals sit below the exact and
   resistance bounds and the b_q(D_2) cap; the bound chain is ordered
 - every spanning tree round-trips through the bijection with the
   independently computed activity split and a_q = d - g + ex(T)
 - enumerating the Jacobian covers each tree exactly once; seeded
   sampling is reproducible and uniform at significance 0.001
 - the sign game on positive-total configurations terminates and each
   move drops the total energy by exactly 2 s |D(v)|
 - metric reduction matches combinatorial reduction on unit graphs and
   every Luo drop equals l(X) eps + (cut/2) eps^2, confirmed against
   exact metric potentials
 - dollar-game winnability matches brute-force script search and
   canonical divisors have rank g - 1
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from math import prod

import numpy as np

import conftest
import corpus
from chipfire import _kernels
from chipfire import (
    Divisor,
    GraphPoint,
    MetricDivisor,
    MetricGraph,
    apply_laplacian,
    canonical_plus,
    complete_graph,
    count_spanning_trees,
    cycle_graph,
    dhar,
    divisor_to_metric,
    divisor_to_tree,
    enumerate_spanning_trees,
    external_activity,
    fire_set,
    j_function,
    jacobian,
    metric_potentials,
    metric_reduce,
    move_bounds,
    outdeg,
    path_graph,
    pentagon_move,
    reduce,
    sample_spanning_tree,
    tree_to_divisor,
    unit_metric,
    winnable,
)
from chipfire.jacobian import rank_at_least
from chipfire.reduction import random_equivalent

SEED = 20240817
CHI2_CRIT_999_DF15 = 37.69729821835383  # 0.999 quantile, 15 degrees of freedom

GATE_CORPUS = corpus.SMALL + corpus.NAMED + corpus.RANDOM


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_LINES.append(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    conftest.ACCEPTANCE_LINES.append(f"ACCEPTANCE {num}: PASS - {description}")


def _genus(G):
    return len(G.edges) - G.n + 1


def _brute_reduced(G, q, D):
    """Definition check: effective off q, no fireable subset avoiding q."""
    if any(D[v] < 0 for v in G.vertices if v != q):
        return False
    others = [v for v in G.vertices if v != q]
    for mask in range(1, 1 << len(others)):
        A = {others[i] for i in range(len(others)) if mask >> i & 1}
        if all(D[v] >= outdeg(G, A, v) for v in A):
            return False
    return True


def test_acceptance_1_tree_counts():
    with criterion(1, "tree counts: determinant == enumeration == product of invariant factors, under 60 s"):
        start = time.monotonic()
        for G in GATE_CORPUS:
            kappa = count_spanning_trees(G)
            assert kappa == len(list(enumerate_spanning_trees(G)))
            assert kappa == prod(jacobian(G, 0).invariant_factors)
        assert time.monotonic() - start < 60.0


def test_acceptance_2_reduced_divisors():
    with criterion(2, "reduction: Dhar-reduced, subset definition, strict E_q and b_q minimizer"):
        rng = random.Random(SEED)
        nrng = np.random.default_rng(SEED)
        for G in GATE_CORPUS:
            q = rng.randrange(G.n)
            table = j_function(G, q)
            for _ in range(50):
                D = corpus.random_divisor(G.n, nrng)
                red = reduce(G, q, D).result
                assert dhar(G, q, red).reduced
                assert _brute_reduced(G, q, red)
                if G.n == 1:
                    continue  # |D|_q is a singleton
                e0 = table.energy(red)
                b0 = table.b(red)
                for _ in range(100):
                    other = random_equivalent(G, q, red, rng)
                    assert other != red
                    assert table.energy(other) > e0
                    assert table.b(other) > b0


def test_acceptance_3_move_accounting():
    with criterion(3, "moves: each firing drops b_q by |A|; totals under exact and resistance bounds; chain ordered"):
        rng = random.Random(SEED + 1)
        nrng = np.random.default_rng(SEED + 1)
        fired = 0
        for G in GATE_CORPUS:
            q = rng.randrange(G.n)
            table = j_function(G, q)
            mb = move_bounds(G, q)
            assert mb.exact <= mb.resistance <= mb.diameter
            for _ in range(4):
                D = corpus.random_divisor(G.n, nrng)
                rep = reduce(G, q, D)
                if G.n > 1:
                    assert rep.moves_step2 < mb.exact
                    assert rep.moves_step2 < mb.resistance
            # reduce fires no set, so walk the fixpoint kernel where sets fire
            K = canonical_plus(G)
            for start in (K, K + Divisor(nrng.integers(0, 4, size=G.n).tolist())):
                end, sets = _kernels.fire_until_reduced(G, list(start), q)
                cur = start
                for A in sets:
                    nxt = fire_set(G, cur, A)
                    assert q not in A
                    assert table.b(cur) - table.b(nxt) == len(A)
                    cur = nxt
                assert list(cur) == end == list(reduce(G, q, start).result)
                assert sum(map(len, sets)) <= table.b(start)
                fired += len(sets)
        assert fired > 0


def test_acceptance_4_tree_bijection():
    with criterion(4, "bijection: every tree round-trips with matching activity split and a_q = d - g + ex(T)"):
        for G in GATE_CORPUS:
            g = _genus(G)
            bases = (0, G.n - 1) if G in corpus.SMALL else (0,)
            for q in bases:
                for T in enumerate_spanning_trees(G):
                    D = tree_to_divisor(G, q, T)
                    active, passive, count = external_activity(G, T)
                    st = divisor_to_tree(G, q, D)
                    assert st.tree_edges == T
                    assert st.ext_active == active
                    assert st.ext_passive == passive
                    mask = [e in T for e in range(G.m)]
                    in_r = _kernels.divisor_from_tree(G, mask, q)[1]
                    assert st.processed_edges == {e for e, r in enumerate(in_r) if r}
                    assert D.degree == g and D[q] == count  # d defaults to g
                    D2 = tree_to_divisor(G, q, T, d=g + 2)
                    assert D2[q] == 2 + count


def test_acceptance_5_jacobian_and_sampler():
    with criterion(5, "sampler: Jacobian enumerates trees bijectively; seeding reproducible; chi-square < 37.697"):
        for G in (complete_graph(3), complete_graph(4), cycle_graph(5)):
            pres = jacobian(G, 0)
            seen = []
            for exps in product(*(range(f) for f in pres.invariant_factors)):
                red = reduce(G, 0, pres.element(exps)).result
                seen.append(divisor_to_tree(G, 0, red).tree_edges)
            trees = list(enumerate_spanning_trees(G))
            assert len(seen) == pres.order == len(trees)
            assert set(seen) == set(trees)

        K4 = complete_graph(4)
        run1 = [t.tree_edges for t in sample_spanning_tree(K4, 0, seed=SEED, count=8)]
        run2 = [t.tree_edges for t in sample_spanning_tree(K4, 0, seed=SEED, count=8)]
        assert run1 == run2
        assert run1[:3] == [t.tree_edges for t in sample_spanning_tree(K4, 0, seed=SEED, count=3)]

        counts = {}
        for t in sample_spanning_tree(K4, 0, seed=SEED, count=16000):
            counts[t.tree_edges] = counts.get(t.tree_edges, 0) + 1
        obs = [counts.get(T, 0) for T in enumerate_spanning_trees(K4)]
        assert len(obs) == 16 and sum(obs) == 16000
        stat = sum((o - 1000) ** 2 for o in obs) / 1000.0
        assert stat < CHI2_CRIT_999_DF15


def test_acceptance_6_pentagon_game():
    with criterion(6, "sign game: 100 positive-total C5 configurations terminate with exact energy drops"):
        G = cycle_graph(5)
        tables = [j_function(G, q) for q in G.vertices]

        def energy(D):
            return sum(t.energy(D) for t in tables)

        rng = random.Random(SEED + 2)
        for _ in range(100):
            while True:
                D = Divisor([rng.randint(-4, 6) for _ in G.vertices])
                if D.degree >= 1:
                    break
            s = D.degree
            e_cur = energy(D)
            guard = int(e_cur) // 2 + 2
            steps = 0
            while not D.is_effective():
                v = next(u for u in G.vertices if D[u] < 0)
                y = D[v]
                D = pentagon_move(G, D, v)
                e_next = energy(D)
                assert e_cur - e_next == 2 * s * (-y)
                e_cur = e_next
                steps += 1
                assert steps <= guard


def test_acceptance_7_metric_reduction():
    with criterion(7, "metric: segment drops 1/2 then 1/2; unit graphs match combinatorial; Luo drops exact"):
        gamma = MetricGraph(path_graph(2), [1])
        q = GraphPoint.vertex(0)
        a = GraphPoint.vertex(1)
        rep = metric_reduce(gamma, q, MetricDivisor([(a, 2)]))
        assert rep.result == MetricDivisor([(q, 2)])
        assert [it.drop for it in rep.iterations] == [Fraction(1, 2), Fraction(1, 2)]
        pots = metric_potentials(gamma, q)
        for it in rep.iterations:
            assert pots.b(it.before) - pots.b(it.after) == it.drop

        rng = random.Random(SEED + 3)
        nrng = np.random.default_rng(SEED + 3)
        for G in GATE_CORPUS:
            gamma = unit_metric(G)
            q = rng.randrange(G.n)
            for _ in range(2):
                D = corpus.random_divisor(G.n, nrng, lo=-2, hi=4)
                want = reduce(G, q, D).result
                mrep = metric_reduce(gamma, GraphPoint.vertex(q), divisor_to_metric(gamma, D))
                assert mrep.result == divisor_to_metric(gamma, want)
                for it in mrep.iterations:
                    X = it.component
                    assert it.drop == X.total_length * it.epsilon + Fraction(X.cut_size, 2) * it.epsilon**2

        # replay the drops against exact potentials on the small graphs
        nrng = np.random.default_rng(SEED + 4)
        for G in (g for g in corpus.SMALL if 2 <= g.n <= 4):
            gamma = unit_metric(G)
            pots = metric_potentials(gamma, GraphPoint.vertex(0))
            D = corpus.random_divisor(G.n, nrng, lo=-2, hi=4)
            mrep = metric_reduce(gamma, GraphPoint.vertex(0), divisor_to_metric(gamma, D))
            for it in mrep.iterations:
                assert pots.b(it.before) - pots.b(it.after) == it.drop


def test_acceptance_8_dollar_game():
    with criterion(8, "dollar game: winnability matches brute-force search; canonical divisors have rank g - 1"):
        nrng = np.random.default_rng(SEED + 5)
        for G in (g for g in corpus.SMALL if g.n <= 4):
            for _ in range(25):
                D = corpus.random_divisor(G.n, nrng, lo=-2, hi=3)
                script = winnable(G, D)
                bound = 4
                if script is not None:
                    # the script is a certificate; widen the search to its
                    # magnitude so the brute side cannot miss the witness
                    assert (D - apply_laplacian(G, list(script.values))).is_effective()
                    base = script.values[0]
                    bound = max(bound, max(abs(v - base) for v in script.values))
                assert (script is not None) == _brute_script_search(G, D, bound)
        for G in (cycle_graph(4), cycle_graph(5), complete_graph(4)):
            K = Divisor([d - 2 for d in G.deg])
            g = _genus(G)
            assert rank_at_least(G, K, g - 1)
            assert not rank_at_least(G, K, g)


def _brute_script_search(G, D, bound=4):
    """Winnability by trying every script with entries in [-bound, bound]."""
    for vals in product(range(-bound, bound + 1), repeat=G.n - 1):
        f = [0] + list(vals)
        if (D - apply_laplacian(G, f)).is_effective():
            return True
    return False
