"""One PotentialTable per graph: j_function(G, q) keeps the table of the last
base vertex asked for on G and builds a new one when q changes.

Core claims:
    - Reductions and step bounds at q1, then q2, then q1 again on one Graph
      equal those on a fresh, equal Graph, over the RANDOM corpus and
      hypothesis graphs.
    - K trees sampled on one (G, q) build one float inverse from 16
      vertices on and none below; reduce followed
      by the step bounds and verify_minimizer builds one exact adjugate: one
      factor of Q_(q) and one substitution of the identity into it.
    - One factor of Q_(q) per (G, q) serves step 1's exact fallback, linear
      equivalence, b_q, verify_minimizer, jacobian, the sampler and the
      tree count; a second q factors once more, the tree count reads the
      factor of whatever q the graph holds, and a dropped graph frees the
      factor by reference counting alone.
    - The cached float inverse is read-only, a patched
      PotentialTable.float_inverse takes effect on a warm table, and a
      dropped graph frees its table's inverse by reference counting alone.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chipfire import exact, potential
from chipfire.graph import Divisor, Graph
from chipfire.jacobian import count_spanning_trees, jacobian, sample_spanning_tree
from chipfire.potential import b_q, j_function
from chipfire.reduction import (
    is_linearly_equivalent,
    reduce as reduce_divisor,
    step_bound_borrows,
    verify_minimizer,
)

from corpus import RANDOM, random_divisor, random_multigraph


def _record(G, q, D):
    rep = reduce_divisor(G, q, D)
    return (
        rep,
        step_bound_borrows(G, q, rep.after_step1),
        b_q(G, q, rep.result),
    )


def _fresh(G):
    return Graph(G.n, G.edges)


def _check_q1_q2_q1(G, q1, q2, D1, D2):
    for q, D in ((q1, D1), (q2, D2), (q1, D2), (q1, D1)):
        assert _record(G, q, D) == _record(_fresh(G), q, D)
        assert G._table.q == q


def test_switching_base_vertex_matches_a_fresh_graph_on_the_random_corpus():
    rng = np.random.default_rng(1511)
    for G in RANDOM:
        q1 = int(rng.integers(0, G.n))
        q2 = (q1 + 1 + int(rng.integers(0, G.n - 1))) % G.n
        assert q1 != q2
        D1 = random_divisor(G.n, rng, lo=-9, hi=9)
        D2 = random_divisor(G.n, rng, lo=-9, hi=9)
        _check_q1_q2_q1(G, q1, q2, D1, D2)


@st.composite
def _cases(draw):
    """(G, q1, q2 != q1, D1, D2) on connected multigraphs with 2-20 vertices."""
    n = draw(st.integers(2, 20))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    for _ in range(draw(st.integers(0, 2 * n))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 2))
        edges.append((u, v + (v >= u)))
    G = Graph(n, draw(st.permutations(edges)))
    q1 = draw(st.integers(0, n - 1))
    q2 = draw(st.integers(0, n - 1).filter(lambda q: q != q1))
    chips = st.lists(st.integers(-30, 30), min_size=n, max_size=n)
    return G, q1, q2, Divisor(draw(chips)), Divisor(draw(chips))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_cases())
def test_switching_base_vertex_matches_a_fresh_graph(case):
    _check_q1_q2_q1(*case)


def test_a_table_is_kept_until_another_base_vertex_is_asked_for():
    G = random_multigraph(9, 8, np.random.default_rng(1512))
    t0 = j_function(G, 0)
    assert j_function(G, 0) is t0
    assert t0.float_inverse() is t0.float_inverse()
    t3 = j_function(G, 3)
    assert t3 is not t0 and G._table is t3
    assert j_function(G, 0) is not t0
    # a table handed out earlier stays valid after it is replaced
    assert t0.num == j_function(_fresh(G), 0).num


def test_k_trees_build_one_float_inverse(monkeypatch):
    # step 1 of a sampled tree reads its floor off one exact solve per call,
    # so only step 2's guess, taken from 16 vertices on, builds the inverse
    calls = []
    inv = np.linalg.inv

    def counting(a):
        calls.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    for n, want in ((8, 0), (20, 2)):
        G = random_multigraph(n, n, np.random.default_rng(1513))
        calls.clear()
        trees = sample_spanning_tree(G, 2, 77, count=24)
        assert trees == sample_spanning_tree(_fresh(G), 2, 77, count=24)
        assert len(calls) == want  # one per graph, not one per tree


def _count_factors(monkeypatch):
    """The size n of each exact._factor_rows call, through which every
    factor of Q_(q) runs, in a list that grows as they are made."""
    calls = []
    factor = exact._factor_rows

    def counting(n, rows):
        calls.append(n)
        return factor(n, rows)

    monkeypatch.setattr(exact, "_factor_rows", counting)
    return calls


def test_reduce_then_the_exact_checks_build_one_adjugate(monkeypatch):
    G = random_multigraph(10, 9, np.random.default_rng(1514))
    D = random_divisor(G.n, np.random.default_rng(1515), lo=-9, hi=9)
    factors = _count_factors(monkeypatch)
    substitutions = []
    substitute = exact.substitute

    def counting(fac, B):
        substitutions.append((fac.n, len(B[0])))
        return substitute(fac, B)

    monkeypatch.setattr(exact, "substitute", counting)
    rep = reduce_divisor(G, 4, D)
    step_bound_borrows(G, 4, rep.after_step1)
    b_q(G, 4, rep.result)
    assert verify_minimizer(G, 4, rep.result, trials=8)
    assert factors == [G.n - 1]  # the factor of Q_(q), once
    assert substitutions == [(G.n - 1, G.n - 1)]  # the identity into it, once


def test_one_factor_serves_every_exact_caller_on_one_graph_and_q(monkeypatch):
    G = random_multigraph(10, 12, np.random.default_rng(1520))
    q, q2 = 5, 3
    D = random_divisor(G.n, np.random.default_rng(1521), lo=-30, hi=30)
    factors = _count_factors(monkeypatch)
    true_inverse = potential.PotentialTable.float_inverse

    def poisoned(table):
        inv = true_inverse(table).copy()
        inv[table.n // 2, 1] = np.nan
        return inv

    with monkeypatch.context() as m:
        m.setattr(potential.PotentialTable, "float_inverse", poisoned)
        rep = reduce_divisor(G, q, D)
    assert (rep.floor_path, rep.floor_rounds) == ("exact", 1)
    assert factors == [G.n - 1]
    assert is_linearly_equivalent(G, D, rep.result, q) == rep.script
    b_q(G, q, rep.result)
    assert verify_minimizer(G, q, rep.result, trials=8)
    kappa = jacobian(G, q).order
    assert len(sample_spanning_tree(G, q, 1522, count=3)) == 3
    assert count_spanning_trees(G) == kappa
    assert factors == [G.n - 1]  # one factor for all of them
    jacobian(G, q2)
    assert factors == [G.n - 1] * 2  # a second q factors once more
    assert G._table.q == q2 and count_spanning_trees(G) == kappa
    assert factors == [G.n - 1] * 2  # every grounding has the same det
    was_enabled = gc.isenabled()
    gc.disable()  # a reference cycle would keep the factor alive here
    try:
        ref = weakref.ref(G._table.factor())
        del G
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_the_cached_float_inverse_is_read_only():
    G = random_multigraph(6, 5, np.random.default_rng(1516))
    inv = j_function(G, 1).float_inverse()
    with pytest.raises(ValueError):
        inv[0, 0] = 1.0
    with pytest.raises(ValueError):
        inv *= 2.0


def test_a_patched_float_inverse_takes_effect_on_a_warm_table(monkeypatch):
    G = random_multigraph(12, 10, np.random.default_rng(1517))
    D = random_divisor(G.n, np.random.default_rng(1518), lo=-30, hi=30)
    want = reduce_divisor(G, 0, D)
    assert want.floor_path == "float"
    assert G._table.q == 0 and G._table._inv is not None
    monkeypatch.setattr(
        potential.PotentialTable,
        "float_inverse",
        lambda table: np.zeros((table.n - 1, table.n - 1)),
    )
    forced = reduce_divisor(G, 0, D)
    assert (forced.floor_path, forced.floor_rounds) == ("exact", 1)
    assert dataclasses.replace(
        forced,
        floor_path=want.floor_path,
        floor_rounds=want.floor_rounds,
        step2_unborrow_sets=want.step2_unborrow_sets,
    ) == want


def test_a_dropped_graph_frees_its_float_inverse_without_a_collection():
    was_enabled = gc.isenabled()
    gc.disable()  # a reference cycle would keep the inverse alive here
    try:
        G = random_multigraph(30, 40, np.random.default_rng(1519))
        table = j_function(G, 5)
        ref = weakref.ref(table.float_inverse())
        reduce_divisor(G, 5, Divisor([3] * G.n))
        assert ref() is not None
        del G
        assert ref() is not None  # the table still holds it
        del table
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()
