"""Dhar's burning algorithm and q-reduction of divisors.

The paper reduces in three steps: a lattice step that subtracts
Q * floor(L_(q) [D]) to bring all off-q coefficients into (-deg, deg), a
borrowing loop that clears negatives off q, and iterated Dhar burns that
fire each stalled unburnt set, at most b_q(D_2) vertices in all.  Here
steps 1-2 already end q-reduced, so `reduce` runs those two only:

    After step 1, off q, d1 = Q_(q) phi with phi = x - floor(x) in [0, 1),
    x = L_(q) [D].  Step 2 ends at d2 = Q_(q) (phi + c*), where c* is the
    least c >= 0 with Q_(q) (phi + c) >= 0 (least action, see below).
    Suppose a nonempty A in V - q could fire legally from d2.  What it
    leaves is effective off q, so Q_(q) (phi + c* - chi_A) >= 0.  L_(q) =
    Q_(q)^{-1} is entrywise >= 0, so phi + c* - chi_A >= 0.  The integer
    vector c* - chi_A is then > -1, so it is >= 0 and feasible.  It lies
    below c*, which contradicts least action.  So d2 passes Dhar's test.

The borrow counts are logged so the b_q accounting can be replayed exactly.

The floor of the lattice step is exact without the exact j-table: float64
solves of Q_(q) are refined on exact integer residuals until a bound from
potential theory certifies every coordinate, with one exact solve as the
fallback (see _refined_floor, step 1's one routine).  Every L_(q) solve
here is the table's: float_solve or, on the fallback only, solve, both on
whole-vertex vectors, so this module never slices around q.  The table's
exact numerators are built only by the energy and bound checks
(verify_minimizer, move_bounds, step_bound_borrows).  j_function(G, q)
returns the table G keeps for its last base vertex, so repeated reductions
against one (G, q) build the float inverse and the step-1 constants ecc(q)
and 2T once, and the checks after them build the exact numerators once.
The tree sampler runs no _refined_floor: it hands the core each tree's
floor, read in integers off one exact solve of the generators per call
(see jacobian.sample_spanning_tree), and the core forms d1 from either
floor.

Step 2 starts from one guess read off the table's float_solve.  Its borrow
vector c* is the least c >= 0 with c(q) = 0 and d1 + Q c >= 0 off q (least
action), so c* = L_(q) (d2 - d1) with d2 in the box [0, deg - 1] off q, and
x = L_(q) (t - d1) for a target t in that box is a float estimate of c*
(see _borrow_guess).  The kernel corrects floor(x) exactly: it borrows at
negative vertices until the divisor is effective off q (then c >= c*) and
fires back legal sets inside supp(c) until none is left (then c <= c*).
The borrow counts and the result are those of borrowing from c = 0,
whatever the guess; graphs with fewer than 16 vertices start from c = 0,
which is faster there (see _steps_1_2).

Steps 1-2 run in one private core, _steps_1_2, which takes any integer
sequence and returns plain lists and ints.  reduce is the argument check,
the core and a ReductionReport.  The tree sampler and winnable call the
core directly, so a sampled tree builds no Divisor, report or DharOutcome,
and the sampler, like is_reduced, certifies a result with one burn and no
DharOutcome; dhar keeps the full outcome (burn order, stalled set,
negative vertices).  Both of the core's D - Delta(f) lists, d1 and the
script check, come from _minus_laplacian's one edge loop.

D1 ~ D2 is decided by step 1 alone: D1 - D2 is principal exactly when its
floor step leaves zero (see is_linearly_equivalent).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import frexp, inf, isfinite, ldexp

from . import _kernels
from .graph import (
    Divisor,
    FiringScript,
    _laplacian_list,
    apply_laplacian,
    bfs_distances,
    canonical_plus,
    check_divisor,
    check_vertex,
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

    result = input - Delta(script) is the divisor step 2 ends at, which is
    q-reduced.  moves_step2 is the net borrow count sum(c*), and
    step2_unborrow_sets counts the sets step 2 fired back to correct its
    guess (see reduce).  after_step1 is the intermediate divisor the
    running-time bounds refer to.  floor_path is how step 1 found its floor
    ("float": certified from refined float solves, "exact": the exact-solve
    fallback) and floor_rounds the number of float solves it took.
    """

    result: Divisor
    script: FiringScript
    moves_step2: int
    step2_unborrow_sets: int
    borrow_counts: tuple
    after_step1: Divisor
    floor_path: str
    floor_rounds: int


def _check(G, q, D):
    check_vertex(G, q)
    check_divisor(G, D)


def dhar(G, q, D):
    """Burn from q: v ignites when its burnt-edge count exceeds D(v)."""
    _check(G, q, D)
    order = _kernels.burn(G, list(D), q)
    in_order = set(order)
    unburnt = tuple(v for v in G.vertices if v not in in_order)
    negative = tuple(v for v in G.vertices if v != q and D[v] < 0)
    reduced = not unburnt and not negative
    return DharOutcome(reduced, tuple(order), unburnt, negative)


def is_linearly_equivalent(G, D1, D2, q):
    """FiringScript f with D1 - Delta(f) = D2, or None.

    Step 1 on D = D1 - D2 leaves d1 = D - Delta(floor(L_(q) D)), which is
    zero everywhere exactly when D is principal (a degree mismatch leaves
    d1(q) nonzero); then floor(L_(q) D) is the script, checked exactly.
    """
    _check(G, q, D1)
    _check(G, q, D2)
    D = D1 - D2
    f = _refined_floor(G, j_function(G, q), D)[0]
    return None if any(_minus_laplacian(G, D, f)) else FiringScript(f, q)


def _refined_floor(G, table, D):
    """Step 1's floor: (floor(x), path, rounds) for x = L_(q) [D], the
    solution of Q_(q) x = D off q with 0 at q, and table the PotentialTable
    of (G, q), which holds q, ecc(q) and 2T and solves L_(q) b.

    x = L_(q) D = sum_v j_q(., v) D(v) is refined from the table's float64
    solves (float_solve) on exact integer residuals (Wan, J.
    Symbolic Comput. 41, 2006): x~ = X / 2^S with X integral, and each round
    computes R = 2^S D - Q X exactly and adds one float solve of R to X.
    Q_(q)^{-1} = j_q / kappa is entrywise nonnegative with j_q(p, v) <=
    r(p, q) <= ecc(q), so |x - x~| <= ecc(q) |R|_1 / 2^S.  A coordinate
    farther than that from every integer has a certified floor.  Once the
    bound is below 1/(2T), T = prod_{v != q} deg(v) >= kappa (Hadamard), a
    coordinate near an integer is that integer, as x is a multiple of 1/kappa.
    D zero off q needs no solve; R = 0, or a zero exact residual at
    round(x~) (principal divisors), stops at once.  path is "float"; it is
    "exact" when a round fails to halve the bound or a float solve is not
    finite, and the table's exact solve of D's column, one substitution
    into the factor of Q_(q) that the table builds once and keeps,
    finishes the job.  rounds counts the float solves.
    """
    q, ecc, two_t = table.q, table.ecc, table.two_t
    b = [0 if v == q else c for v, c in enumerate(D)]
    if not any(b):
        return [0] * G.n, "float", 0
    X, S, R = [0] * G.n, 0, b
    err = ecc * sum(map(abs, R))
    rounds = 0
    while True:
        last_err, last_S = err, S
        # one float solve of R, rounded half to even to integers Y of <= 52 bits
        t = max(0, max(map(abs, R)).bit_length() - 62)
        y = table.float_solve([float(r >> t) for r in R])
        rounds += 1
        if not all(map(isfinite, y)):
            break
        e = frexp(max(map(abs, y)))[1]
        Y = [round(ldexp(c, 52 - e)) for c in y]
        u = t + e - 52  # the correction to x~ is Y 2^u / 2^S
        if u < 0:
            X = [x << -u for x in X]
            S -= u
            u = 0
        X = [x + (c << u) for x, c in zip(X, Y)]
        R = _residual(G, q, b, X, S)
        err = ecc * sum(map(abs, R))  # 0 when x~ = x: every floor certified
        unit = 1 << S
        floors = [x >> S for x in X]
        near = [v for v, x in enumerate(X) if v != q and not err <= x % unit < unit - err]
        if not near:
            return floors, "float", rounds
        nearest = [(x + (unit >> 1)) >> S for x in X]
        if two_t * err < unit or not any(_residual(G, q, b, nearest, 0)):
            for v in near:
                floors[v] = nearest[v]
            return floors, "float", rounds
        if err << (last_S + 1) > last_err << S:
            break
    d, sol = table.solve([[c] for c in b])
    return [x // d for (x,) in sol], "exact", rounds


def _residual(G, q, b, X, S):
    """2^S b - Q X off q (0 at q), exact in Python ints; X[q] = 0."""
    QX = _laplacian_list(G, X)
    return [0 if v == q else (c << S) - x for v, (c, x) in enumerate(zip(b, QX))]


def _minus_laplacian(G, D, f):
    """D - Delta(f) as a list of Python ints, by one edge loop on a copy of
    D; f is a list of ints."""
    out = list(D)
    for u, v in G.edges:
        d = f[u] - f[v]
        out[u] -= d
        out[v] += d
    return out


# Below this many vertices the zero guess is faster: step 2 takes a few
# dozen borrows there, which cost less than the float guess's matvec and
# confirming burn.  The two cost the same near n = 16 on random multigraphs
# with m = 2n.
_GUESS_MIN_VERTICES = 16


def _borrow_guess(G, table, d1):
    """Step 2's starting borrow vector, read off the table's float_solve.

    The borrow vector is c* = L_(q) (d2 - d1), and d2 lies in [0, deg - 1]
    off q, so c0 = floor(L_(q) (t - d1)) is near c* for a target t in that
    box near d2.  Step 2 ends at the reduced divisor, which has at most
    g = m - n + 1 chips off q (0.66 g to 0.95 g, mean 0.85 g, on random
    multigraphs with m = 3n; exactly g on cycles), so t spreads 5g/6 chips
    over the vertices off q in proportion to deg - 1.  With m = 3n that is
    about (deg - 1) / 3.  A target that ignores g overshoots c* by
    L_(q) (t - d2), which on long thin graphs, where the row sums of L_(q)
    grow like n^2, costs the kernel's descent thousands of set firings.
    Entries below 1 or not finite count as 0.
    """
    q, deg = table.q, G.deg
    box = sum(deg) - deg[q] - G.n + 1  # sum of deg - 1 off q
    share = 5 * (G.m - G.n + 1) / (6 * max(box, 1))
    # d1(q) may be too large for a float, and float_solve does not read it
    t = [(d - 1) * share - c if v != q else 0.0 for v, (d, c) in enumerate(zip(deg, d1))]
    return [int(c) if 1 <= c < inf else 0 for c in table.float_solve(t)]  # False for NaN


def _steps_1_2(G, q, D, floor=None):
    """Steps 1-2 on D, any integer sequence with one entry per vertex of G,
    for a vertex q of G (unchecked): (d1, d2, f, counts, borrows,
    unborrows, floor path, floor rounds), lists and ints only.

    Step 1 takes floor(L_(q) [D]) from _refined_floor, or, with path "exact"
    and 0 rounds, the exact floor the caller passes as a list with 0 at q,
    and forms d1 = D - Delta(floor) from either.  Step 2 runs the borrowing
    kernel from the float guess, or from the zero guess on small graphs and
    when d1 is already effective off q; either way it ends at c*, so d2 is
    the q-reduced divisor (see the module docstring).  The script
    f = floor(L_(q) [D]) - c* is checked exactly against d2: a mismatch
    raises AssertionError.  reduce wraps this core in its report; the tree
    sampler, which passes floor, and winnable call it and read d2 or f.
    """
    table = j_function(G, q)
    path, rounds = "exact", 0
    if floor is None:
        floor, path, rounds = _refined_floor(G, table, D)
    d1 = _minus_laplacian(G, D, floor)
    guess = None
    if G.n >= _GUESS_MIN_VERTICES and any(
        c < 0 for v, c in enumerate(d1) if v != q
    ):
        guess = _borrow_guess(G, table, d1)
    # the kernel copies its input, so d1 is passed as it is
    d2, counts, borrows, unborrows = _kernels.borrow_until_effective(
        G, d1, q, guess
    )
    f = [a - c for a, c in zip(floor, counts)]
    if _minus_laplacian(G, D, f) != d2:
        raise AssertionError("reduction script mismatch")
    return d1, d2, f, counts, borrows, unborrows, path, rounds


def reduce(G, q, D):
    """The unique q-reduced divisor equivalent to D, with a full move log.

    Checks q and the size of D, runs the core _steps_1_2 and puts what it
    returns into a ReductionReport.
    """
    _check(G, q, D)
    d1, d2, f, counts, borrows, unborrows, path, rounds = _steps_1_2(G, q, D)
    return ReductionReport(
        result=Divisor(d2),
        script=FiringScript(f, q),
        moves_step2=borrows,
        step2_unborrow_sets=unborrows,
        borrow_counts=tuple(counts),
        after_step1=Divisor(d1),
        floor_path=path,
        floor_rounds=rounds,
    )


def is_reduced(G, q, D):
    """Dhar's test alone: one burn from q, and no DharOutcome.

    D is q-reduced when the burn reaches every vertex and no coefficient
    off q is negative.  The second test is needed: a vertex with negative
    chips is ready to burn at once, so the fire can reach every vertex of
    a divisor that is not effective off q.
    """
    _check(G, q, D)
    d = list(D)
    return len(_kernels.burn(G, d, q)) == G.n and all(
        c >= 0 for v, c in enumerate(d) if v != q
    )


def random_equivalent(G, q, D, rng, attempts=20):
    """A random member of |D|_q other than D itself.

    Members are D + Delta(g) with g >= 0, g(q) = 0.  Tries small random g
    and falls back to borrowing at q (g constant off q), which always
    preserves effectivity off q.  rng is a random.Random.
    """
    _check(G, q, D)
    d = list(D)
    bits = rng.getrandbits
    for _ in range(attempts):
        # g(v) uniform on 0..2, drawn as rng.randint(0, 2) draws it on
        # CPython (getrandbits(2), drawn again while it is 3), without its
        # per-call argument checks
        g = []
        for _ in G.vertices:
            x = bits(2)
            while x == 3:
                x = bits(2)
            g.append(x)
        g[q] = 0
        if all(x == 0 for x in g):
            continue
        # cand = D + Delta(g), built as a list: only the accepted one
        # becomes a Divisor
        cand = d[:]
        for u, v in G.edges:
            x = g[u] - g[v]
            cand[u] += x
            cand[v] -= x
        if cand != d and all(c >= 0 for v, c in enumerate(cand) if v != q):
            return Divisor(cand)
    c = rng.randint(1, 3)
    g = [c] * G.n
    g[q] = 0
    return D + apply_laplacian(G, g)


def verify_minimizer(G, q, D, trials=64, seed=0):
    """Check that a q-reduced divisor strictly minimizes E_q and b_q in |D|_q."""
    if not is_reduced(G, q, D):
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


def diameter(G):
    return max(max(bfs_distances(G, s)) for s in G.vertices)


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
    check_vertex(G, q)
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
    import numpy as np

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
