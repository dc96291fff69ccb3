"""The burning kernels.

Core claims:
    - Burn orders, borrow counts, fired sets, the intermediate divisors of
      `reduce` and both bijection burns are pinned by one digest over the
      SMALL and RANDOM corpora at a fixed seed, so any change to a loop or a
      tie-break shows up here.
    - Chip counts far beyond 64 bits reduce exactly.
"""

import hashlib
import json

import numpy as np

from chipfire import _kernels
from chipfire.graph import Divisor, complete_graph
from chipfire.reduction import dhar, reduce as reduce_divisor

from corpus import RANDOM, SMALL, random_divisor

KERNEL_DIGEST = "a28d0fadcc8461de525a2888f488eda327d5880db982c787b93c43368952561e"


def _kernel_record(G, q, D, rng):
    """Every kernel output for one (G, q, D), as JSON-ready lists."""
    chips = [int(x) for x in rng.integers(0, 4, size=G.n)]
    d2, counts, total = _kernels.borrow_until_effective(G, list(D), q)
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


def test_reduce_is_exact_on_chip_counts_beyond_64_bits():
    G = complete_graph(3)
    big = 2**70
    r = reduce_divisor(G, 2, Divisor((big, 0, 0)))
    assert r.result.degree == big
    assert dhar(G, 2, r.result).reduced
    # the off-q part of a reduced divisor on K3 is one of (0,0),(1,0),(0,1)
    assert tuple(r.result)[:2] in ((0, 0), (1, 0), (0, 1))
