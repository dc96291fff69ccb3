"""Dhar's burning algorithm and q-reduction of divisors.

The reduction pipeline has three steps: a lattice step that subtracts
Q * floor(L_(q) [D]) to bring all off-q coefficients into (-deg, deg), a
borrowing loop that clears negatives off q, and iterated Dhar burns that
fire each stalled unburnt set until everything burns.  Move counts and the
fired sets are logged so the b_q accounting can be replayed exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .graph import (
    Divisor,
    FiringScript,
    apply_laplacian,
    canonical_plus,
    laplacian,
)
from .potential import j_function


@dataclass(frozen=True)
class DharOutcome:
    """Result of one burning pass from q.

    reduced is True iff no off-q coefficient is negative and the fire
    reached every vertex.  When the fire stalls, `unburnt` is the full
    stalled set: a nonempty certificate A with D(v) >= outdeg_A(v) for all
    v in A.  Negative off-q coefficients are reported in `negative`
    (a not-reduced outcome distinct from a stalled burn).
    """

    reduced: bool
    burn_order: tuple
    unburnt: tuple
    negative: tuple


@dataclass(frozen=True)
class ReductionReport:
    """Full log of a reduction run.

    result = input - Delta(script); moves_step2 counts borrowing moves,
    moves_step3 counts set firings, total_set_fire_vertices is the sum of
    the fired set sizes (i.e. step 3 measured in single-vertex moves).
    after_step1/after_step2 are the intermediate divisors the running-time
    bounds refer to.
    """

    result: Divisor
    script: FiringScript
    moves_step2: int
    moves_step3: int
    total_set_fire_vertices: int
    fired_sets: tuple
    borrow_counts: tuple
    after_step1: Divisor
    after_step2: Divisor

    @property
    def total_moves(self):
        """Single-vertex moves: borrows plus vertices fired across sets."""
        return self.moves_step2 + self.total_set_fire_vertices


def _check(G, q, D):
    if not (0 <= q < G.n):
        raise ValueError("base vertex out of range")
    if len(D) != G.n:
        raise ValueError("divisor size does not match graph")


def dhar(G, q, D):
    """Burn from q: v ignites when its burnt-edge count exceeds D(v)."""
    _check(G, q, D)
    order = _kernels.burn(G, list(D), q)
    in_order = set(order)
    unburnt = tuple(v for v in G.vertices if v not in in_order)
    negative = tuple(v for v in G.vertices if v != q and D[v] < 0)
    reduced = not unburnt and not negative
    return DharOutcome(reduced, tuple(order), unburnt, negative)


def make_effective(G, q, D):
    """Steps 1-2 only: an equivalent divisor that is effective off q.

    Returns (divisor, script) with divisor = D - Delta(script).
    """
    _check(G, q, D)
    d1, f1 = _floor_step(G, q, D)
    d2, counts, _total = _kernels.borrow_until_effective(G, list(d1), q)
    f = [f1[v] - counts[v] for v in G.vertices]
    script = FiringScript(f, q)
    result = Divisor(d2)
    if D - apply_laplacian(G, script) != result:
        raise AssertionError("make_effective script mismatch")
    return result, script


def _floor_step(G, q, D):
    """Step 1: subtract Q * floor(L_(q) [D]); returns (divisor, floor vector)."""
    table = j_function(G, q)
    den = table.den
    f1 = [0] * G.n
    for p in G.vertices:
        if p == q:
            continue
        num = sum(table.num[p][v] * D[v] for v in G.vertices)
        f1[p] = num // den  # exact floor: den > 0
    d1 = D - apply_laplacian(G, f1)
    return d1, f1


def reduce(G, q, D):
    """The unique q-reduced divisor equivalent to D, with a full move log."""
    _check(G, q, D)
    d1, f1 = _floor_step(G, q, D)
    d2, counts, borrows = _kernels.borrow_until_effective(G, list(d1), q)
    d3, sets = _kernels.fire_until_reduced(G, list(d2), q)
    f = [f1[v] - counts[v] for v in G.vertices]
    for A in sets:
        for v in A:
            f[v] += 1
    script = FiringScript(f, q)
    result = Divisor(d3)
    if D - apply_laplacian(G, script) != result:
        raise AssertionError("reduction script mismatch")
    return ReductionReport(
        result=result,
        script=script,
        moves_step2=borrows,
        moves_step3=len(sets),
        total_set_fire_vertices=sum(len(A) for A in sets),
        fired_sets=tuple(tuple(A) for A in sets),
        borrow_counts=tuple(counts),
        after_step1=Divisor(d1),
        after_step2=Divisor(d2),
    )


def is_reduced(G, q, D):
    return dhar(G, q, D).reduced


def random_equivalent(G, q, D, rng, attempts=20):
    """A random member of |D|_q other than D itself.

    Members are D + Delta(g) with g >= 0, g(q) = 0.  Tries small random g
    and falls back to borrowing at q (g constant off q), which always
    preserves effectivity off q.
    """
    for _ in range(attempts):
        g = [rng.randint(0, 2) for _ in G.vertices]
        g[q] = 0
        if all(x == 0 for x in g):
            continue
        cand = D + apply_laplacian(G, g)
        if cand != D and cand.is_effective(skip=q):
            return cand
    c = rng.randint(1, 3)
    g = [c] * G.n
    g[q] = 0
    return D + apply_laplacian(G, g)


def verify_minimizer(G, q, D, trials=64, seed=0):
    """Check that a q-reduced divisor strictly minimizes E_q and b_q in |D|_q."""
    _check(G, q, D)
    if not dhar(G, q, D).reduced:
        raise ValueError("divisor is not q-reduced")
    if G.n == 1:
        return True
    table = j_function(G, q)
    base_e = table.energy(D)
    base_b = table.b(D)
    rng = random.Random(seed)
    for _ in range(trials):
        other = random_equivalent(G, q, D, rng)
        if table.energy(other) <= base_e or table.b(other) <= base_b:
            return False
    return True


def _bfs_ecc(G, s):
    dist = [-1] * G.n
    dist[s] = 0
    queue = [s]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for w in G.neighbors(v):
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def diameter(G):
    return max(max(_bfs_ecc(G, s)) for s in G.vertices)


@dataclass(frozen=True)
class MoveBounds:
    """Upper bounds on single-vertex moves of `reduce`, best to coarsest.

    exact and resistance are the sharp rational bounds; rmax_degree,
    rmax_coarse, foster and diameter relax them through R_max, Foster's
    theorem and the graph diameter.  spectral uses the algebraic
    connectivity and is the one floating-point (approximate) entry.
    """

    q: int
    exact: Fraction
    resistance: Fraction
    rmax_degree: Fraction
    rmax_coarse: Fraction
    foster: Fraction
    spectral: float
    diameter: Fraction
    spectral_is_approximate: bool = True


def move_bounds(G, q):
    """All running-time bounds for reduction toward q."""
    if not (0 <= q < G.n):
        raise ValueError("base vertex out of range")
    n = G.n
    if n == 1:
        zero = Fraction(0)
        return MoveBounds(q, zero, zero, zero, zero, zero, 0.0, zero)
    table = j_function(G, q)
    exact = 3 * sum(table.g(v) * G.deg[v] for v in G.vertices)
    resistance = 3 * (n - 1) * sum(
        table.resistance(v) * G.deg[v] for v in G.vertices if v != q
    )
    # r(u, v) = L[u][u] + L[v][v] - 2 L[u][v] for any generalized inverse L
    L = table.num
    rmax = Fraction(
        max(L[u][u] + L[v][v] - 2 * L[u][v] for u in range(n) for v in range(u)),
        table.den,
    )
    off_q_degree = sum(G.deg[v] for v in G.vertices if v != q)
    rmax_degree = 3 * (n - 1) * rmax * off_q_degree
    rmax_coarse = 3 * (n - 1) ** 2 * rmax * max(G.deg)
    foster = (
        9 * (n - 1)
        * sum(Fraction(1, G.deg[v] + 1) for v in G.vertices)
        * off_q_degree
    )
    eigs = np.linalg.eigvalsh(laplacian(G).astype(np.float64))
    lambda1 = float(eigs[1])
    spectral = 6.0 * (n - 1) / lambda1 * float(off_q_degree)
    diam = diameter(G)
    diam_bound = Fraction(3 * (n - 1) * diam * off_q_degree)
    return MoveBounds(
        q=q,
        exact=exact,
        resistance=resistance,
        rmax_degree=rmax_degree,
        rmax_coarse=rmax_coarse,
        foster=foster,
        spectral=spectral,
        diameter=diam_bound,
    )


def step_bound_borrows(G, q, after_step1):
    """b_q(K+ - D_1): cap on the number of step-2 borrowing moves."""
    return j_function(G, q).b(canonical_plus(G) - after_step1)


def step_bound_fires(G, q, after_step2):
    """b_q(D_2): cap on the total number of vertices fired in step 3."""
    return j_function(G, q).b(after_step2)
