"""Dhar's burning algorithm and q-reduction of divisors.

The reduction pipeline has three steps: a lattice step that subtracts
Q * floor(L_(q) [D]) to bring all off-q coefficients into (-deg, deg), a
borrowing loop that clears negatives off q, and iterated Dhar burns that
fire each stalled unburnt set until everything burns.  Move counts and the
fired sets are logged so the b_q accounting can be replayed exactly.

The floor of the lattice step is exact without the exact j-table: float64
solves of Q_(q) are refined on exact integer residuals until a bound from
potential theory certifies every coordinate (see _floor_step), with a
single-column exact solve as the fallback.  Step 1 reads the float64 view
of the j-table; its exact numerators are built only by the energy and bound
checks (verify_minimizer, move_bounds, step_bound_*).

Step 2 starts from one guess read off the same float inverse.  Its borrow
vector c* is the least c >= 0 with c(q) = 0 and d1 + Q c >= 0 off q (least
action), so c* = L_(q) (d2 - d1) with d2 in the box [0, deg - 1] off q, and
x = L_(q) (t - d1) for a target t in that box is a float estimate of c*
(see _borrow_guess).  The kernel corrects floor(x) exactly: it borrows at
negative vertices until the divisor is effective off q (then c >= c*) and
fires back legal sets inside supp(c) until none is left (then c <= c*).
The borrow counts, after_step2 and everything downstream are those of
borrowing from c = 0, whatever the guess; graphs with fewer than 16
vertices start from c = 0, which is faster there (see _borrow_step).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import inf, isfinite, prod

import numpy as np

from . import _kernels, exact
from .graph import (
    Divisor,
    FiringScript,
    apply_laplacian,
    canonical_plus,
    laplacian,
    reduced_laplacian,
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
    step2_unborrow_sets counts the sets step 2 fired back to correct its
    guess (see _borrow_step); moves_step2 is the net borrow count.
    after_step1/after_step2 are the intermediate divisors the running-time
    bounds refer to.  floor_path is how step 1 found its floor ("float":
    certified from refined float solves, "exact": the exact-solve fallback)
    and floor_rounds the number of float solves it took.
    """

    result: Divisor
    script: FiringScript
    moves_step2: int
    step2_unborrow_sets: int
    moves_step3: int
    total_set_fire_vertices: int
    fired_sets: tuple
    borrow_counts: tuple
    after_step1: Divisor
    after_step2: Divisor
    floor_path: str
    floor_rounds: int

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
    d1, f1, _path, _rounds, inv = _floor_step(G, q, D)
    d2, counts, _total, _unborrows = _borrow_step(G, q, d1, inv)
    f = [f1[v] - counts[v] for v in G.vertices]
    script = FiringScript(f, q)
    result = Divisor(d2)
    if D - apply_laplacian(G, script) != result:
        raise AssertionError("make_effective script mismatch")
    return result, script


def _floor_step(G, q, D):
    """Step 1: subtract Delta(floor(x)) for x = L_(q) [D], the solution of
    Q_(q) x = D off q; returns (divisor, floor vector, path, rounds).

    x = L_(q) D = sum_v j_q(., v) D(v) is refined from float64 solves with
    the j-table's float view on exact integer residuals (Wan, J.
    Symbolic Comput. 41, 2006): x~ = X / 2^S with X integral, and each round
    computes R = 2^S D - Q X exactly and adds one float solve of R to X.
    Q_(q)^{-1} = j_q / kappa is entrywise nonnegative with j_q(p, v) <=
    r(p, q) <= ecc(q), so |x - x~| <= ecc(q) |R|_1 / 2^S.  A coordinate
    farther than that from every integer has a certified floor.  Once the
    bound is below 1/(2T), T = prod_{v != q} deg(v) >= kappa (Hadamard), a
    coordinate near an integer is that integer, as x is a multiple of 1/kappa.
    R = 0, or a zero exact residual at round(x~) (principal divisors), stops
    at once.  path is "float"; it is "exact" when a round fails to halve
    the bound or a float solve is not finite, and a single-column exact
    solve finishes the job.  rounds counts the float solves.  The float inverse is returned for step 2's
    guess; it is None when D is zero off q and no solve was needed.
    """
    table = j_function(G, q)
    b = [0 if v == q else c for v, c in enumerate(D)]
    if not any(b):
        return D, [0] * G.n, "float", 0, None
    inv = table.float_inverse()
    f1, path, rounds = _refined_floor(G, q, inv, b)
    d1 = D - apply_laplacian(G, f1)
    return d1, f1, path, rounds, inv


def _refined_floor(G, q, inv, b):
    """(floor(x), path, rounds) for Q_(q) x = b off q, b[q] = 0, from float
    solves with inv, a float64 Q_(q)^{-1}."""
    keep = [v for v in G.vertices if v != q]
    ecc = max(_bfs_ecc(G, q))
    two_t = 2 * prod(G.deg[v] for v in keep)
    X, S, R = [0] * G.n, 0, b
    err = ecc * sum(map(abs, R))
    rounds = 0
    while True:
        last_err, last_S = err, S
        # one float solve of R, rounded to integers Y of at most 52 bits
        t = max(0, max(map(abs, R)).bit_length() - 62)
        y = inv @ np.array([float(R[v] >> t) for v in keep])
        rounds += 1
        top = np.max(np.abs(y))  # NaN or inf when any entry is
        if not isfinite(top):
            break
        e = int(np.frexp(top)[1])
        Y = np.rint(np.ldexp(y, 52 - e)).astype(np.int64).tolist()
        u = t + e - 52  # the correction to x~ is Y 2^u / 2^S
        if u < 0:
            X = [x << -u for x in X]
            S -= u
            u = 0
        for v, c in zip(keep, Y):
            X[v] += c << u
        R = _residual(G, q, b, X, S)
        err = ecc * sum(map(abs, R))  # 0 when x~ = x: every floor certified
        unit = 1 << S
        floors = [x >> S for x in X]
        near = [v for v in keep if not err <= X[v] - (floors[v] << S) < unit - err]
        if not near:
            return floors, "float", rounds
        nearest = [(x + (unit >> 1)) >> S for x in X]
        if two_t * err < unit or not any(_residual(G, q, b, nearest, 0)):
            for v in near:
                floors[v] = nearest[v]
            return floors, "float", rounds
        if err << (last_S + 1) > last_err << S:
            break
    sol = exact.solve(reduced_laplacian(G, q).tolist(), [[b[v]] for v in keep])
    floors = [0] * G.n
    for v, (x,) in zip(keep, sol):
        floors[v] = x.numerator // x.denominator
    return floors, "exact", rounds


def _residual(G, q, b, X, S):
    """2^S b - Q X off q (0 at q), exact in Python ints; X[q] = 0."""
    QX = apply_laplacian(G, X)
    return [0 if v == q else (c << S) - QX[v] for v, c in enumerate(b)]


# Below this many vertices the zero guess is faster: step 2 takes a few
# dozen borrows there, which cost less than the float guess's matvec and
# confirming burn.  The two cost the same near n = 16 on random multigraphs
# with m = 2n.
_GUESS_MIN_VERTICES = 16


def _borrow_step(G, q, d1, inv):
    """Step 2: the borrowing kernel from the float guess, or from the zero
    guess on small graphs and when d1 is already effective off q."""
    guess = None
    if G.n >= _GUESS_MIN_VERTICES and not d1.is_effective(skip=q):
        guess = _borrow_guess(G, q, d1, inv)
    return _kernels.borrow_until_effective(G, list(d1), q, guess)


def _borrow_guess(G, q, d1, inv):
    """Step 2's starting borrow vector, read off step 1's inverse.

    The borrow vector is c* = L_(q) (d2 - d1), and d2 lies in [0, deg - 1]
    off q, so c0 = floor(inv (t - d1)) is near c* for a target t in that box
    near d2.  Step 2 mostly ends at a reduced divisor, which has at most
    g = m - n + 1 chips off q (0.66 g to 0.95 g, mean 0.85 g, on random
    multigraphs with m = 3n; exactly g on cycles), so t spreads 5g/6 chips
    over the vertices off q in proportion to deg - 1.  With m = 3n that is
    about (deg - 1) / 3.  A target that ignores g overshoots c* by
    L_(q) (t - d2), which on long thin graphs, where the row sums of L_(q)
    grow like n^2, costs the kernel's descent thousands of set firings.
    Entries below 1 or not finite count as 0.
    """
    keep = [v for v in G.vertices if v != q]
    deg = G.deg
    box = sum(deg[v] - 1 for v in keep)
    share = 5 * (G.m - G.n + 1) / (6 * max(box, 1))
    x = inv @ np.array([(deg[v] - 1) * share - d1[v] for v in keep])
    guess = [0] * G.n
    for v, c in zip(keep, x.tolist()):
        if 1 <= c < inf:  # False for NaN
            guess[v] = int(c)
    return guess


def reduce(G, q, D):
    """The unique q-reduced divisor equivalent to D, with a full move log."""
    _check(G, q, D)
    d1, f1, path, rounds, inv = _floor_step(G, q, D)
    d2, counts, borrows, unborrows = _borrow_step(G, q, d1, inv)
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
        step2_unborrow_sets=unborrows,
        moves_step3=len(sets),
        total_set_fire_vertices=sum(len(A) for A in sets),
        fired_sets=tuple(tuple(A) for A in sets),
        borrow_counts=tuple(counts),
        after_step1=Divisor(d1),
        after_step2=Divisor(d2),
        floor_path=path,
        floor_rounds=rounds,
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
