"""Dhar's criterion and the two-step reduction pipeline.

Core claims:
    - dhar agrees with the brute-force definition: reduced iff effective off
      q and no nonempty subset avoiding q can fire without going negative.
      is_reduced, one burn and a negativity test, agrees with dhar, also
      where a negative vertex off q lets the burn reach every vertex.
    - A stalled burn returns a certificate set that can legally fire.
    - reduce produces a reduced divisor, a script with
      D - Delta(script) == result, and is idempotent; the reduced
      representative of a class is unique.
    - Steps 1-2 alone end q-reduced on paths, cycles, stars, ladders, K_n,
      heavy parallel edges and random multigraphs, for K+-like divisors and
      chips up to +-2^200, on both floor paths and with the float guess
      forced at every size: the paper's set-firing step 3 fires nothing.
    - Replaying the move log: every borrow raises b_q by 1; the set-firing
      fixpoint from K+ and K+ plus effective divisors, where sets do fire,
      lowers b_q by |A| per fired set A and stays under the b_q(D_2) cap.
    - The move-count upper bounds are correctly ordered and all dominate the
      actual count.
    - Step 2 is confluent: any borrowing order reaches the same divisor with
      the same per-vertex counts.
"""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from chipfire import _kernels, potential, reduction
from chipfire.graph import (
    Divisor,
    Graph,
    apply_laplacian,
    canonical_plus,
    complete_graph,
    cycle_graph,
    fire_set,
    indicator,
    outdeg,
    path_graph,
)
from chipfire.potential import b_q, j_function, q_energy
from chipfire.reduction import (
    dhar,
    diameter,
    is_reduced,
    move_bounds,
    random_equivalent,
    reduce as reduce_divisor,
    step_bound_borrows,
    verify_minimizer,
)

from corpus import RANDOM, SMALL, random_divisor, random_multigraph


def _brute_force_reduced(G, q, D):
    """Definition check: effective off q, no fireable subset avoiding q."""
    if any(D[v] < 0 for v in G.vertices if v != q):
        return False
    others = [v for v in G.vertices if v != q]
    for mask in range(1, 1 << len(others)):
        A = {others[i] for i in range(len(others)) if mask >> i & 1}
        if all(D[v] >= outdeg(G, A, v) for v in A):
            return False
    return True


# -- Dhar burning ---------------------------------------------------------------

def test_dhar_triangle_traces():
    G = complete_graph(3)
    out = dhar(G, 2, Divisor((0, 0, 2)))
    assert out.reduced and out.burn_order == (2, 0, 1)
    stalled = dhar(G, 2, Divisor((1, 1, 0)))
    assert not stalled.reduced
    assert stalled.burn_order == (2,)
    assert set(stalled.unburnt) == {0, 1}


def test_dhar_negative_is_distinct_outcome():
    G = complete_graph(3)
    out = dhar(G, 2, Divisor((-1, 0, 3)))
    assert not out.reduced
    assert out.negative == (0,)


def test_dhar_matches_brute_force():
    rng = np.random.default_rng(61)
    for G in SMALL:
        for _ in range(8):
            q = int(rng.integers(0, G.n))
            D = Divisor([int(rng.integers(0, 4)) for _ in range(G.n)])
            assert dhar(G, q, D).reduced == _brute_force_reduced(G, q, D)


def test_is_reduced_matches_dhar_with_negative_entries_off_q():
    # a vertex with negative chips burns at once, so the burn reaches every
    # vertex here and only the negativity test says False
    K3 = complete_graph(3)
    assert len(_kernels.burn(K3, [3, -1, 0], 0)) == 3
    assert not is_reduced(K3, 0, Divisor((3, -1, 0)))
    assert not dhar(K3, 0, Divisor((3, -1, 0))).reduced
    rng = np.random.default_rng(71)
    for G in SMALL:
        for _ in range(8):
            q = int(rng.integers(0, G.n))
            D = Divisor([int(rng.integers(-2, 4)) for _ in range(G.n)])
            assert is_reduced(G, q, D) == dhar(G, q, D).reduced
            assert is_reduced(G, q, list(D)) == dhar(G, q, D).reduced


def test_stall_certificate_can_fire():
    rng = np.random.default_rng(67)
    for G in SMALL[3:] + RANDOM[:8]:
        for _ in range(6):
            q = int(rng.integers(0, G.n))
            D = Divisor([int(rng.integers(0, 5)) for _ in range(G.n)])
            out = dhar(G, q, D)
            if out.reduced or out.negative:
                continue
            A = set(out.unburnt)
            assert A and q not in A
            assert all(D[v] >= outdeg(G, A, v) for v in A)
            assert fire_set(G, D, A).is_effective(skip=q)


# -- Reduction pipeline ------------------------------------------------------------

def test_reduce_triangle_oracles():
    G = complete_graph(3)
    r = reduce_divisor(G, 2, Divisor((5, 0, 0)))
    assert r.result == Divisor((0, 1, 4))
    assert r.script.values == (3, 1, 0)
    r2 = reduce_divisor(G, 2, Divisor((1, 1, 0)))
    assert r2.result == Divisor((0, 0, 2))
    assert r2.script.values == (1, 1, 0)


def test_reduce_effective_off_q_triangle_oracle():
    G = complete_graph(3)
    r = reduce_divisor(G, 2, Divisor((-1, 0, 1)))
    assert r.result == Divisor((0, 1, -1))
    assert r.script.values == (-1, -1, 0)


def test_reduce_produces_equivalent_reduced_divisor():
    rng = np.random.default_rng(71)
    for G in SMALL + RANDOM[:10]:
        for _ in range(6):
            q = int(rng.integers(0, G.n))
            D = random_divisor(G.n, rng)
            r = reduce_divisor(G, q, D)
            assert dhar(G, q, r.result).reduced
            assert D - apply_laplacian(G, r.script) == r.result
            assert r.result.degree == D.degree


def _ladder(k):
    """2 x k ladder: two paths of k vertices joined by k rungs."""
    rails = [(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
    return Graph(2 * k, rails + [(i, k + i) for i in range(k)])


def _heavy(n, rng):
    """A random tree with every edge repeated 1 to 8 times, plus one chord."""
    edges = []
    for v in range(1, n):
        edges += [(int(rng.integers(0, v)), v)] * int(rng.integers(1, 9))
    return Graph(n, edges + [(0, n - 1)] * int(rng.integers(1, 9)))


def _family_graphs(rng):
    """Paths, cycles, stars, ladders, K_n, heavy parallel edges and random
    multigraphs, from 2 to 40 vertices, so both guess rules run by default."""
    graphs = []
    for n in (2, 5, 9, 17, 24, 40):
        graphs += [
            path_graph(n),
            cycle_graph(max(n, 3)),
            Graph(n, [(0, v) for v in range(1, n)]),
            _ladder(max(n // 2, 2)),
            _heavy(n, rng),
            random_multigraph(n, n + 1, rng),
        ]
    return graphs + [complete_graph(n) for n in (3, 6, 12, 18)]


def _family_divisors(G, rng):
    """Chips in +-3, +-120 and +-2^200, and K+ shifted by small noise and by
    a random principal divisor."""
    n = G.n
    K = canonical_plus(G)
    f = rng.integers(-50, 51, size=n).tolist()
    return [
        Divisor(rng.integers(-3, 4, size=n).tolist()),
        Divisor(rng.integers(-120, 121, size=n).tolist()),
        Divisor(int(x) * 2**140 + int(y) for x, y in zip(
            rng.integers(-2**60, 2**60, size=n), rng.integers(0, 2**60, size=n)
        )),
        K + Divisor(rng.integers(-1, 3, size=n).tolist()),
        K - apply_laplacian(G, f),
    ]


@pytest.mark.parametrize("path", ["float floor", "float guess at every size", "exact floor"])
def test_steps_1_2_end_q_reduced(monkeypatch, path):
    # the proof in reduction's docstring: step 2 ends at the least-action
    # borrow vector, and L_(q) >= 0 leaves no set that could still fire
    rng = np.random.default_rng(107)
    cases = [
        (G, int(rng.integers(0, G.n)), D)
        for G in _family_graphs(rng)
        for _ in range(3)
        for D in _family_divisors(G, rng)
    ]
    if path == "float guess at every size":
        monkeypatch.setattr(reduction, "_GUESS_MIN_VERTICES", 1)
    if path == "exact floor":
        monkeypatch.setattr(
            potential.PotentialTable,
            "float_inverse",
            lambda table: np.zeros((table.n - 1, table.n - 1)),
        )
    unborrows = 0
    for G, q, D in cases:
        r = reduce_divisor(G, q, D)
        if r.floor_rounds:  # D zero off q needs no solve
            assert r.floor_path == ("exact" if path == "exact floor" else "float")
        assert dhar(G, q, r.result).reduced
        assert _kernels.fire_until_reduced(G, list(r.result), q) == (list(r.result), [])
        assert D - apply_laplacian(G, r.script) == r.result
        unborrows += r.step2_unborrow_sets
    # the guess's descent, which takes c back down to c*, ran
    assert (unborrows > 0) == (path != "exact floor")


def test_reduce_idempotent():
    # the endpoint and script are fixed; the move count need not be zero
    # because step 1 can overshoot by one when a potential is an exact
    # integer (e.g. C4, q=0, D=(0,0,1,0)) and step 2 undoes it
    rng = np.random.default_rng(73)
    for G in SMALL[5:20]:
        q = int(rng.integers(0, G.n))
        D = random_divisor(G.n, rng)
        first = reduce_divisor(G, q, D)
        again = reduce_divisor(G, q, first.result)
        assert again.result == first.result
        assert set(again.script.values) == {0}


def test_reduce_fixed_point_boundary_case():
    G = cycle_graph(4)
    D = Divisor((0, 0, 1, 0))
    r = reduce_divisor(G, 0, D)
    assert r.result == D
    assert set(r.script.values) == {0}
    assert r.moves_step2 == 1  # step 1 fired v2, one borrow undoes it


def test_reduced_representative_unique_in_bounded_family():
    rng = np.random.default_rng(79)
    for G in SMALL[2:6]:  # n <= 4 keeps the script box enumerable
        q = 0
        D = random_divisor(G.n, rng, lo=-2, hi=4)
        want = reduce_divisor(G, q, D).result
        others = [v for v in G.vertices if v != q]
        reduced_members = set()
        from itertools import product

        for vals in product(range(-2, 3), repeat=len(others)):
            f = [0] * G.n
            for v, x in zip(others, vals):
                f[v] = x
            member = D - apply_laplacian(G, f)
            assert reduce_divisor(G, q, member).result == want
            if is_reduced(G, q, member):
                reduced_members.add(member)
        assert len(reduced_members) <= 1
        if reduced_members:
            assert reduced_members == {want}


def test_verify_minimizer_on_reduced():
    rng = np.random.default_rng(83)
    for G in SMALL[2:16] + RANDOM[:6]:
        q = int(rng.integers(0, G.n))
        D = reduce_divisor(G, q, random_divisor(G.n, rng)).result
        assert verify_minimizer(G, q, D, trials=32, seed=7)


def test_verify_minimizer_fails_when_a_member_does_not_beat_d(monkeypatch):
    # D itself as the "other" member ties E_q and b_q, so D is not a strict
    # minimizer against it
    monkeypatch.setattr(reduction, "random_equivalent", lambda G, q, D, rng: D)
    G = complete_graph(3)
    D = reduce_divisor(G, 2, Divisor((5, 0, 0))).result
    assert verify_minimizer(G, 2, D, trials=4) is False


def test_verify_minimizer_rejects_unreduced():
    G = complete_graph(3)
    with pytest.raises(ValueError):
        verify_minimizer(G, 2, Divisor((1, 1, 0)))


def test_random_equivalent_is_equivalent():
    py_rng = random.Random(5)
    G = cycle_graph(5)
    D = Divisor((2, 0, 1, 0, 0))
    for _ in range(20):
        other = random_equivalent(G, 0, D, py_rng)
        assert other.degree == D.degree
        r1 = reduce_divisor(G, 0, D).result
        r2 = reduce_divisor(G, 0, other).result
        assert r1 == r2


# 3000 seeded random_equivalent outputs over the RANDOM corpus, and the rng
# state after each graph.  Acceptance 2's draws rest on the same rng calls
# and the same accept/reject decisions, so a faster candidate loop must
# leave this digest as it is.
RANDOM_EQUIVALENT_DIGEST = "b98286b3ff2d326820518e23b41e8066bbc0fbd01c8bab54a505fa8d8f12fbf1"


def test_random_equivalent_draws_match_pinned_digest():
    rng = random.Random(1501)
    nrng = np.random.default_rng(1501)
    records = []
    for G in RANDOM:
        q = int(nrng.integers(0, G.n))
        raw = random_divisor(G.n, nrng)
        red = reduce_divisor(G, q, raw).result
        for k in range(150):
            D = red if k % 2 else raw
            # one attempt in five reaches the borrow-at-q fallback more often
            attempts = 1 if k % 5 == 0 else 20
            records.append(random_equivalent(G, q, D, rng, attempts).coeffs)
        records.append(rng.getrandbits(64))
    assert len(records) == 3000 + len(RANDOM)
    blob = repr(records).encode()
    assert hashlib.sha256(blob).hexdigest() == RANDOM_EQUIVALENT_DIGEST


# -- Move accounting ------------------------------------------------------------------

def test_replay_move_log_exact_b_drops():
    rng = np.random.default_rng(89)
    fired = 0
    for G in SMALL[4:18] + RANDOM[:8]:
        q = int(rng.integers(0, G.n))
        D = random_divisor(G.n, rng)
        r = reduce_divisor(G, q, D)
        table = j_function(G, q)
        # step 2: borrows raise b_q by exactly 1 each
        assert r.moves_step2 == sum(r.borrow_counts)
        assert table.b(r.result) == table.b(r.after_step1) + r.moves_step2
        # reduce fires no set, so replay the set-firing fixpoint from K+ and
        # K+ plus an effective divisor, where sets do fire
        K = canonical_plus(G)
        for start in (K, K + Divisor(rng.integers(0, 4, size=G.n).tolist())):
            end, sets = _kernels.fire_until_reduced(G, list(start), q)
            cur = start
            for A in sets:
                nxt = fire_set(G, cur, A)
                assert table.b(nxt) == table.b(cur) - len(A)
                assert q not in A
                cur = nxt
            assert list(cur) == end == list(reduce_divisor(G, q, start).result)
            total = sum(len(A) for A in sets)
            assert total <= table.b(start)
            fired += total
    assert fired > 0


def test_step_bounds_hold():
    rng = np.random.default_rng(97)
    for G in SMALL[4:20] + RANDOM[:8]:
        q = int(rng.integers(0, G.n))
        D = random_divisor(G.n, rng)
        r = reduce_divisor(G, q, D)
        assert r.moves_step2 <= step_bound_borrows(G, q, r.after_step1)


def test_move_bounds_triangle_oracle():
    b = move_bounds(complete_graph(3), 2)
    assert b.exact == 12
    assert b.resistance == 16
    assert b.rmax_degree == 16
    assert b.rmax_coarse == 16
    assert b.foster == 72
    assert b.diameter == 24
    assert abs(b.spectral - 16.0) < 1e-9
    assert b.spectral_is_approximate


def test_move_bounds_ordering_and_domination():
    rng = np.random.default_rng(101)
    for G in SMALL[1:] + RANDOM[:10]:
        q = int(rng.integers(0, G.n))
        b = move_bounds(G, q)
        assert 0 < b.exact <= b.resistance <= b.rmax_degree
        assert b.rmax_degree <= b.rmax_coarse
        assert b.rmax_degree <= b.foster
        assert b.resistance <= b.diameter
        slack = 1e-6 * float(b.rmax_degree) + 1e-9
        assert float(b.rmax_degree) <= b.spectral + slack
        for _ in range(4):
            D = random_divisor(G.n, rng)
            r = reduce_divisor(G, q, D)
            assert r.moves_step2 < b.exact


def test_single_vertex_degenerate():
    G = Graph(1, [])
    D = Divisor((5,))
    r = reduce_divisor(G, 0, D)
    assert r.result == D and r.moves_step2 == 0
    assert dhar(G, 0, D).reduced
    b = move_bounds(G, 0)
    assert b.exact == 0 and b.resistance == 0 and b.diameter == 0
    assert verify_minimizer(G, 0, D)


def test_diameter():
    assert diameter(path_graph(5)) == 4
    assert diameter(cycle_graph(6)) == 3
    assert diameter(complete_graph(4)) == 1


# -- Step-2 confluence -------------------------------------------------------------

def test_borrowing_order_does_not_matter():
    rng = np.random.default_rng(103)
    py_rng = random.Random(29)
    for G in SMALL[4:16] + RANDOM[:6]:
        q = int(rng.integers(0, G.n))
        D = random_divisor(G.n, rng, lo=-5, hi=3)
        r = reduce_divisor(G, q, D)
        cur = list(r.after_step1)
        counts = [0] * G.n
        guard = 0
        while True:
            needy = [v for v in G.vertices if v != q and cur[v] < 0]
            if not needy:
                break
            v = py_rng.choice(needy)
            moved = Divisor(cur) + apply_laplacian(G, indicator(G.n, {v}))
            cur = list(moved)
            counts[v] += 1
            guard += 1
            assert guard < 10000
        assert Divisor(cur) == r.result
        assert tuple(counts) == r.borrow_counts
