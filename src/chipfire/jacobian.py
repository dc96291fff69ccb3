"""Smith normal form, the Jacobian group, tree sampling, and the dollar game.

The Jacobian Jac(G) = Div0(G) / im(Delta) is presented by the Smith normal
form of the reduced Laplacian M: row operations U and column operations
bring M to a diagonal S with a divisibility chain.  Cokernel classes map
through U^{-1}: the standard basis vector e_i of coker(S) pulls back to
column i of U^{-1}, whose image divisor has order S[i][i].  The product of
the invariant factors is kappa = |det M|, the number of spanning trees
(matrix-tree).  Since kappa Z^k lies inside the lattice M Z^k, the Smith
form runs modulo kappa (Domich-Kannan-Trotter, Math. Oper. Res. 12, 1987;
Iliopoulos, SIAM J. Comput. 18, 1989): an entry of S or U^{-1} is reduced
once it grows past kappa, and neither U nor the column operations are
kept.  One extended-gcd combination clears each entry off a pivot
(Kannan-Bachem, SIAM J. Comput. 8, 1979); a gcd/lcm step per diagonal
pair then makes the divisibility chain.

M has many +-1 entries, so exact's unit phase first eliminates them,
which is unimodular: the Smith form of M is I + that of the Schur block B
it leaves, and |det B| = kappa.  On random multigraphs with 3n edges B
keeps about a third of M's rows (67 of 199 at n = 200).  A presentation
reads M's Factor off the PotentialTable the graph keeps for q, which
factors M once, from the sparse rows of the graph's incidence tuples (no
dense array), and keeps it for every later exact caller on (G, q); the
Smith pass runs on that Factor's block and takes |det M| from it, and the
sampler's solve substitutes into it.  count_spanning_trees reads its det
off the Factor of the table the graph holds, at whatever q, since every
grounding has the same det.  The uniform tree sampler picks a uniform group
element, reduces it with reduction's steps-1-2 core, certifies it with one
burn and an effectiveness test, and burns it into its tree.  Step 1 of that
reduction subtracts Delta(floor(L_(q) D)), and L_(q) is linear, so one
substitution of the generators into M's Factor per call gives every tree's
floor in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd, prod
from operator import index, mul

import numpy as np

from . import _kernels, exact
from .graph import Divisor, FiringScript, canonical_plus, check_divisor, check_vertex
from .potential import _table
from .reduction import _steps_1_2, is_reduced, reduce
from .treebij import divisor_to_tree


def _egcd(a, b):
    """(g, x, y) with g = x a + y b = +-gcd(a, b) for a != 0; (a, 1, 0) if a | b."""
    x, y, u, v = 1, 0, 0, 1  # a = x a0 + y b0 and b = u a0 + v b0
    while b % a:
        q, r = divmod(b, a)
        a, b, x, y, u, v = r, a, u - q * x, v - q * y, x, y
    return a, x, y


def smith_normal_form(M, d):
    """Smith form of a square nonsingular integer matrix, modulo d = |det M|.

    Returns (diagonal, u_inv): the diagonal s_1 | s_2 | ... has product d,
    and column i of u_inv, U^{-1} with entries reduced mod d, generates the
    Z/s_i factor of Z^k / M Z^k.  The pivot at step t is the smallest
    nonzero |entry| of rows and columns t..k-1 (lowest (row, column) on
    ties).  Each nonzero b below or right of the pivot a is cleared by one
    combination [[x, y], [-b/g, a/g]] of the two rows or columns, with
    g = x a + y b = +-gcd(a, b): a plain subtraction when a | b.  A row
    combination takes U^{-1}'s two columns by [[a/g, -y], [b/g, x]].  A
    column combination other than a subtraction refills the pivot's column,
    which is cleared again; each such round divides the pivot properly.
    Then each diagonal pair i < j with s_i not dividing s_j goes to
    (gcd, lcm) by the same combination, with its U^{-1} update.  An entry
    of S or u_inv is reduced (x % d) only once |x| > d.  The caller passes
    d = |det M|, which it reads off its factor of M, so M is not factored
    here.  Raises ValueError if M is not square or if d is 0 (M singular).
    """
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError(f"need an n x n matrix, n = {n}")
    if d == 0:
        raise ValueError("singular matrix")
    cols = [[int(i == j) for i in range(n)] for j in range(n)]  # of U^{-1}

    def mod(v):
        return [x if -d <= x <= d else x % d for x in v]

    S = [mod(map(index, row)) for row in M]  # so no pivot, a gcd, is ever reduced

    def combine(i, j, a, b):
        # rows i, j of S take [[x, y], [-q, p]]; U^{-1}'s columns its inverse
        g, x, y = _egcd(a, b)
        p, q = a // g, b // g
        ci, cj = cols[i], cols[j]
        cols[i] = mod([p * u + q * w for u, w in zip(ci, cj)])
        if y:  # else x = 1, and column j stays
            cols[j] = mod([x * w - y * u for u, w in zip(ci, cj)])
        return g, x, y, p, q

    for t in range(n):
        cells = [(abs(S[i][j]), i, j) for i in range(t, n) for j in range(t, n) if S[i][j]]
        if cells:  # else the region is 0 mod d, and gcd(0, d) = d below
            _, i, j = min(cells)
            S[t], S[i] = S[i], S[t]
            cols[t], cols[i] = cols[i], cols[t]
            for r in S[t:]:
                r[t], r[j] = r[j], r[t]
        while any(S[i][t] for i in range(t + 1, n)) or any(S[t][t + 1:]):
            for i in range(t + 1, n):
                if S[i][t]:
                    _, x, y, p, q = combine(t, i, S[t][t], S[i][t])
                    rt, ri = S[t][t:], S[i][t:]
                    if y:  # else x = 1, and row t stays
                        S[t][t:] = mod([x * u + y * w for u, w in zip(rt, ri)])
                    S[i][t:] = mod([p * w - q * u for u, w in zip(rt, ri)])
            for j in range(t + 1, n):
                if S[t][j]:
                    g, x, y = _egcd(S[t][t], S[t][j])
                    p, q = S[t][t] // g, S[t][j] // g
                    for r in S[t:]:
                        if r[t] or y:  # a subtraction leaves r[t] = 0 rows alone
                            r[t], r[j] = mod((x * r[t] + y * r[j], p * r[j] - q * r[t]))
        if S[t][t] < 0:  # negate row t; gcd below takes |S[t][t]|
            cols[t] = [-x for x in cols[t]]
        S[t][t] = gcd(S[t][t], d)  # fold in the lattice column d e_t

    for i in range(n):
        for j in range(i + 1, n):
            if S[j][j] % S[i][i]:
                a, b = S[i][i], S[j][j]
                g = combine(i, j, a, b)[0]
                S[i][i], S[j][j] = g, a * b // g

    return tuple(S[i][i] for i in range(n)), tuple(zip(*cols))


@dataclass(frozen=True)
class JacobianPresentation:
    """Jac(G) as a product of cyclic groups Z/n_1 x ... x Z/n_s.

    invariant_factors lists the n_i > 1 in divisibility order; generators
    are degree-zero divisors whose classes generate the factors.  The group
    order (product of the n_i) equals the number of spanning trees.  n is
    the vertex count, kept so element() is well-defined for trivial groups.
    """

    q: int
    n: int
    invariant_factors: tuple
    generators: tuple

    @property
    def order(self):
        return prod(self.invariant_factors)

    def element(self, exponents):
        """The divisor sum(a_i * g_i) for exponents (a_1, ..., a_s).

        Plain integer combination; reduce it to get the canonical class
        representative.
        """
        if len(exponents) != len(self.generators):
            raise ValueError("wrong number of exponents")
        acc = [0] * self.n
        for a, g in zip(exponents, self.generators):
            a = index(a)
            if a:
                acc = [x + a * c for x, c in zip(acc, g.coeffs)]
        return Divisor(acc)


def _presentation(G, q):
    """Jac(G) from the Smith form of the Schur block of Q_(q).

    The Factor of Q_(q) is the one the graph's table for q keeps
    (potential._table, which does not count as a j_function call), built
    on first use.  exact's unit phase brings Q_(q) to I + B by unimodular
    operations, so the Smith form of its block B gives every invariant
    factor above 1.  Column i of B's U'^{-1}, on B's rows, is the i-th
    generator off q: the inverse of each row operation fixes every row that
    never holds a pivot.  Returns the presentation, the Factor of Q_(q),
    whose |det| the Smith form takes, and the generators off q as the rows
    of a matrix, zero on every pivot row.
    """
    check_vertex(G, q)
    keep = [v for v in G.vertices if v != q]
    fac = _table(G, q).factor()
    diagonal, u_inv = smith_normal_form(fac.block, abs(fac.det))
    kept = [i for i, s in enumerate(diagonal) if s != 1]
    gens = [[0] * len(kept) for _ in keep]
    for r, row in zip(fac.rows, u_inv):
        gens[r] = [row[i] for i in kept]
    coeffs = [[0] * G.n for _ in kept]
    for v, row in zip(keep, gens):
        for c, x in zip(coeffs, row):
            c[v] = x
    for c in coeffs:
        c[q] = -sum(c)
    pres = JacobianPresentation(
        q=q, n=G.n, invariant_factors=tuple(diagonal[i] for i in kept),
        generators=tuple(map(Divisor, coeffs)),
    )
    return pres, fac, gens


def jacobian(G, q):
    """Presentation of Jac(G) from the Smith form of the reduced Laplacian's
    Schur block (see _presentation)."""
    return _presentation(G, q)[0]


def count_spanning_trees(G):
    """Matrix-tree count: the determinant of the Laplacian with one row/col
    deleted.

    Every grounding has the same determinant, so it is read off the Factor
    of the table G holds, at whatever q; a graph that holds none gets one
    at q = 0."""
    return (G._table or _table(G, 0)).factor().det


def _uniform_below(bitgen, bound):
    """Uniform integer in [0, bound) via 64-bit rejection; bound may be big.

    bitgen is a numpy BitGenerator.  Each 64-bit word is one raw output,
    the word Generator.integers(0, 2**64 - 1, endpoint=True) returns too.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    bits = max(1, bound.bit_length())
    words = (bits + 63) // 64
    span = 1 << (64 * words)
    limit = span - span % bound
    while True:
        x = 0
        for _ in range(words):
            x = (x << 64) | bitgen.random_raw()
        if x < limit:
            return x % bound


def sample_spanning_tree(G, q, seed, count=1):
    """count uniform spanning trees, bit-reproducible from the seed.

    Sample i draws from a Philox stream with key=seed and counter
    [0, 0, i, 0], so sample i is the same for every count >= i+1.  The
    group element sum(a_i g_i) with uniform exponents is uniform on Jac(G),
    and reducing then burning carries it to a uniform tree.  One factor of
    Q_(q)'s sparse rows per call serves the Smith form of its block and
    the generators' solve: one substitution into that Factor gives (kappa, P)
    with kappa = det Q_(q) = |Jac(G)| > 0 and column i of P equal to
    kappa L_(q) g_i off q, so step 1's floor floor(L_(q) sum(a_i g_i)) is
    (sum_i a_i P[v][i]) // kappa at each v.  Each vertex keeps, per call,
    its coefficient in every generator and its row of P, so a tree's chips
    and floor are one sum per vertex each; they go straight to reduction's
    steps-1-2 core, which then runs step 2 alone.  The list it ends at is
    certified by one burn from q and a test that it is effective off q
    before it is burnt into its tree: a failure there is an internal fault
    (AssertionError), not a refused input.  A seed outside [0, 2**128), or
    a count that is negative or not an integer, is refused before the Smith
    form is built.
    """
    bitgen = np.random.Philox(key=index(seed))
    if index(count) < 0:
        raise ValueError("count must be >= 0")
    pres, fac, gens = _presentation(G, q)
    kappa, P = exact.substitute(fac, gens)
    # per vertex: its coefficient in each generator, and its row of P (0 at q)
    coeffs = [[g[v] for g in pres.generators] for v in G.vertices]
    P = P[:q] + [[0] * len(pres.generators)] + P[q:]
    off_q = [v for v in G.vertices if v != q]
    state = bitgen.state  # counter 0 and an empty buffer
    counter = state["state"]["counter"]
    out = []
    for i in range(count):
        counter[2] = i
        bitgen.state = state
        exps = [_uniform_below(bitgen, f) for f in pres.invariant_factors]
        chips = [sum(map(mul, exps, c)) for c in coeffs]
        floor = [sum(map(mul, exps, row)) // kappa for row in P]
        red = _steps_1_2(G, q, chips, floor)[1]
        if len(_kernels.burn(G, red, q)) != G.n or any(red[v] < 0 for v in off_q):
            raise AssertionError("reduce returned a divisor that is not q-reduced")
        out.append(divisor_to_tree(G, q, red))
    return out


def group_add(G, q, D1, D2):
    """Group law on q-reduced degree-zero representatives."""
    for D in (D1, D2):
        if D.degree != 0:
            raise ValueError("group elements are degree-zero divisors")
        if not is_reduced(G, q, D):
            raise ValueError("operand is not q-reduced")
    return reduce(G, q, D1 + D2).result


def winnable(G, D, q=0):
    """A script whose firing makes D effective, or None.

    Winnability does not depend on q: it holds iff the q-reduced
    representative is effective at q too.
    """
    check_vertex(G, q)
    check_divisor(G, D)
    if D.is_effective():
        return FiringScript([0] * G.n, q)
    if D.degree < 0:
        return None
    d2, f = _steps_1_2(G, q, D)[1:3]
    if all(c >= 0 for c in d2):
        return FiringScript(f, q)
    return None


def _effective_divisors(n, degree):
    """All effective divisors of the given degree, lexicographically.

    From (0, ..., 0, degree), each step takes the last positive c_j with
    j > 0, adds one to c_(j-1) and puts the other c_j - 1 chips on the last
    vertex; it stops at (degree, 0, ..., 0).  No recursion, so n is bounded
    only by the caller's cap.
    """
    coeffs = [0] * (n - 1) + [degree]
    while True:
        yield Divisor(coeffs)
        j = next((i for i in range(n - 1, 0, -1) if coeffs[i]), 0)
        if j == 0:
            return
        rest, coeffs[j] = coeffs[j] - 1, 0
        coeffs[j - 1] += 1
        coeffs[-1] = rest


# rank_at_least tests one effective divisor of degree c after another, and
# there are C(n + c - 1, c) of them: above this many it refuses up front.
RANK_ENUMERATION_CAP = 20_000


def rank_at_least(G, D, c):
    """True iff D - E is winnable for every effective E of degree c.

    deg(D) > g - 1 swaps to the smaller side by Riemann-Roch, as rank does:
    r(D) >= c exactly when r(K - D) >= c - (deg(D) + 1 - g), which holds at
    once when that threshold is negative.  Otherwise raises ValueError when
    there are more than RANK_ENUMERATION_CAP such E, and under the cap
    short-circuits on the first failing E in lexicographic order.
    """
    check_divisor(G, D)
    if c < 0:
        raise ValueError("rank threshold must be >= 0")
    g = G.genus()
    if D.degree > g - 1:
        c -= D.degree + 1 - g
        if c < 0:
            return True
        D = Divisor(d - 2 for d in G.deg) - D
    if D.degree < c:
        return False
    count = comb(G.n + c - 1, c)
    if count > RANK_ENUMERATION_CAP:
        raise ValueError(
            f"rank >= {c} would test {count} divisors, "
            f"more than the cap of {RANK_ENUMERATION_CAP}"
        )
    for E in _effective_divisors(G.n, c):
        if winnable(G, D - E, 0) is None:
            return False
    return True


def rank(G, D):
    """Divisor rank: largest r with rank_at_least(G, D, r); -1 if unwinnable.

    deg(D) > g - 1 gives deg(D) + 1 - g + r(K - D) by Riemann-Roch, with
    K = sum (deg(v) - 2)(v): K - D has degree below g - 1, so the climb runs
    on the smaller side, and past 2g - 2 it has rank -1 at once.  Otherwise
    raises ValueError when a level it must test exceeds the cap.
    """
    check_divisor(G, D)
    g = G.genus()
    if D.degree > g - 1:
        return D.degree + 1 - g + rank(G, Divisor(d - 2 for d in G.deg) - D)
    if winnable(G, D, 0) is None:
        return -1
    r = 0
    while rank_at_least(G, D, r + 1):
        r += 1
    return r


def to_critical(G, q, D):
    """Duality with the critical configurations: D -> K+ - D.

    Input must be q-reduced; the image is critical (superstable dual) and
    applying the map twice arithmetically returns D.
    """
    if not is_reduced(G, q, D):
        raise ValueError("divisor is not q-reduced")
    return canonical_plus(G) - D
