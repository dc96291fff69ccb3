"""The burning kernels.

Core claims:
    - Burn orders, borrow counts, fired sets, the intermediate divisors of
      `reduce` and both bijection burns are pinned by one digest over the
      SMALL and RANDOM corpora at a fixed seed, so any change to a loop or a
      tie-break shows up here.
    - A second digest pins the same kernels past the corpus: both bijection
      burns and the Dhar burn on a 400-vertex, 1200-edge multigraph for a
      dozen seeded trees and q, and the fired sets of step 3 on a
      200-vertex multigraph.  It was computed with the lowest-index rescan
      kernels, before they were replaced by heaps.
    - A third digest pins the borrow counts, the divisor after step 2, the
      fired sets and the result of `reduce` on a 1000-vertex, 3000-edge
      multigraph with q = 0, for chips in +-120 and in +-2^70.  It was
      computed with the one-borrow-vertex-at-a-time worklist of step 2.
    - A tree -> divisor -> tree round trip on 4000 vertices and 12,000 edges
      returns the same tree in well under two seconds.
    - Chip counts far beyond 64 bits reduce exactly.
"""

import hashlib
import json
import time
from random import Random

import numpy as np

from chipfire import _kernels
from chipfire.graph import Divisor, complete_graph
from chipfire.reduction import dhar, reduce as reduce_divisor
from chipfire.treebij import divisor_to_tree, tree_to_divisor

from corpus import (
    RANDOM,
    SMALL,
    kruskal_tree,
    random_divisor,
    random_multigraph,
    tree_plus_edges,
)

KERNEL_DIGEST = "a28d0fadcc8461de525a2888f488eda327d5880db982c787b93c43368952561e"
LARGE_DIGEST = "5042944d2d2b45d063892c425d791813a96b3ed467e96f977e24462319356bed"
REDUCE_1000_DIGEST = "e009e4f467a4c86503d7b96c9a6d6d1e87f8f055fe66b7e09292e25b39c2462a"


def _kernel_record(G, q, D, rng):
    """Every kernel output for one (G, q, D), as JSON-ready lists."""
    chips = [int(x) for x in rng.integers(0, 4, size=G.n)]
    d2, counts, total, _unborrows = _kernels.borrow_until_effective(G, list(D), q)
    d3, sets = _kernels.fire_until_reduced(G, list(d2), q)
    rep = reduce_divisor(G, q, D)
    tree, tree_r = _kernels.tree_from_reduced(G, list(rep.result), q)
    mask = [e in set(tree) for e in range(G.m)]
    a, div_r = _kernels.divisor_from_tree(G, mask, q)
    return {
        "q": q,
        "D": list(D),
        "burn": list(_kernels.burn(G, chips, q)),
        "burn_input": list(_kernels.burn(G, list(D), q)),
        "borrow": [list(d2), list(counts), total],
        "fire": [list(d3), [list(A) for A in sets]],
        "reduce": [list(rep.after_step1), list(rep.after_step2), list(rep.result)],
        "tree_from_reduced": [list(tree), list(tree_r)],
        "divisor_from_tree": [list(a), list(div_r)],
    }


def test_kernel_outputs_match_pinned_digest():
    rng = np.random.default_rng(311)
    records = []
    for G in SMALL + RANDOM:
        for _ in range(3):
            q = int(rng.integers(0, G.n))
            D = random_divisor(G.n, rng)
            records.append(_kernel_record(G, q, D, rng))
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == KERNEL_DIGEST


def _large_records():
    rng = np.random.default_rng(701)
    G = random_multigraph(400, 801, rng)
    records = []
    for _ in range(12):
        tree = kruskal_tree(G, rng.permutation(G.m))
        q = int(rng.integers(0, G.n))
        mask = [e in tree for e in range(G.m)]
        a, div_r = _kernels.divisor_from_tree(G, mask, q)
        D = list(a)
        D[q] = G.genus() - sum(a)
        order, tree_r = _kernels.tree_from_reduced(G, D, q)
        chips = [int(x) for x in rng.integers(-2, 4, size=G.n)]
        records.append({
            "q": q,
            "divisor_from_tree": [list(a), list(div_r)],
            "tree_from_reduced": [list(order), list(tree_r)],
            "burn_reduced": list(_kernels.burn(G, D, q)),
            "burn": list(_kernels.burn(G, chips, q)),
        })
    H = random_multigraph(200, 401, rng)
    for _ in range(4):
        q = int(rng.integers(0, H.n))
        D = random_divisor(H.n, rng, -3, 8)
        d2, _counts, _total, _unborrows = _kernels.borrow_until_effective(H, list(D), q)
        d3, sets = _kernels.fire_until_reduced(H, list(d2), q)
        records.append({"q": q, "fire": [list(d2), list(d3), [list(A) for A in sets]]})
    return records


def test_large_graph_kernel_outputs_match_pinned_digest():
    blob = json.dumps(_large_records(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == LARGE_DIGEST


def _reduce_1000_records():
    rng = Random(0)
    G = tree_plus_edges(1000, 3000, rng)
    records = []
    for span in (120, 2**70):
        D = Divisor(rng.randint(-span, span) for _ in range(G.n))
        rep = reduce_divisor(G, 0, D)
        records.append({
            "borrow_counts": list(rep.borrow_counts),
            "after_step2": list(rep.after_step2),
            "fired_sets": [list(A) for A in rep.fired_sets],
            "result": list(rep.result),
            "moves": rep.moves_step2,
        })
    return records


def test_reduce_on_1000_vertices_matches_pinned_digest():
    blob = json.dumps(_reduce_1000_records(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == REDUCE_1000_DIGEST


def test_bijection_round_trip_on_4000_vertices_is_fast():
    rng = np.random.default_rng(702)
    G = random_multigraph(4000, 8001, rng)
    assert G.m == 12000
    tree = kruskal_tree(G, rng.permutation(G.m))
    q = int(rng.integers(0, G.n))
    start = time.perf_counter()
    D = tree_to_divisor(G, q, tree)
    back = divisor_to_tree(G, q, D)
    elapsed = time.perf_counter() - start
    assert back.tree_edges == frozenset(tree)
    assert elapsed < 2.0, f"round trip took {elapsed:.2f} s"


def test_reduce_is_exact_on_chip_counts_beyond_64_bits():
    G = complete_graph(3)
    big = 2**70
    r = reduce_divisor(G, 2, Divisor((big, 0, 0)))
    assert r.result.degree == big
    assert dhar(G, 2, r.result).reduced
    # the off-q part of a reduced divisor on K3 is one of (0,0),(1,0),(0,1)
    assert tuple(r.result)[:2] in ((0, 0), (1, 0), (0, 1))
