"""Potential theory on graphs: generalized inverses of the Laplacian,
the j-function, effective resistance, and the energy pairings E_q and b_q.

All values are exact rationals.  One fraction-free elimination of Q_(q)
(`exact.adjugate`) gives the j-table as an integer numerator matrix over the
tree count, so the inner loops of b_q / E_q stay in integer arithmetic.  A
table builds it on first use; its float64 view (`float_inverse`) needs no
elimination and is what the reduction's lattice step refines to exact floors.
`j_function(G, q)` returns the one table the graph keeps, for the last base
vertex asked for, so K reductions against one (G, q) build the float
inverse and the exact numerators once each.
Every generalized inverse is read off such tables: L_(q) = j_q, the
Moore-Penrose inverse is P L_(0) P with P = I - J/n, and L_mu = sum mu_i L_(i)
comes from the resistances r(p, v) read off L_(0).
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import mul

import numpy as np

from . import exact
from .graph import (
    _rational, _reduced_laplacian, apply_laplacian, bfs_distances, check_divisor,
    check_vertex,
)


class GeneralizedInverse:
    """A matrix L with Q L Q = Q, tagged with how it was built.

    kind is one of 'reduced' (q-reduced inverse L_(q)), 'moore_penrose',
    or 'weighted' (L_mu, optionally shifted to G_mu with G_mu mu = 0).
    Entries of L and mu are exact rationals; a float raises TypeError.
    """

    __slots__ = ("kind", "L", "q", "mu")

    def __init__(self, kind, L, q=None, mu=None):
        self.kind = kind
        self.L = tuple(tuple(_rational(x) for x in row) for row in L)
        self.q = q
        self.mu = None if mu is None else tuple(_rational(x) for x in mu)

    @property
    def n(self):
        return len(self.L)

    def apply(self, vec):
        """L @ vec as a list of Fractions."""
        return exact.mat_vec(self.L, list(vec))

    def __repr__(self):
        tag = f", q={self.q}" if self.q is not None else ""
        return f"GeneralizedInverse({self.kind!r}, n={self.n}{tag})"


def reduced_inverse(G, q):
    """L_(q) = j_q: the inverse of Q with row/col q deleted, zero-padded at q."""
    table = j_function(G, q)
    L = [[Fraction(x, table.den) for x in row] for row in table.num]
    return GeneralizedInverse("reduced", L, q=q)


def moore_penrose(G):
    """Q+ = P L_(0) P with P = I - J/n (P = Q Q+ = Q+ Q and Q L_(0) Q = Q)."""
    n = G.n
    table = j_function(G, 0)
    sums = [sum(row) for row in table.num]
    total = sum(sums)
    den = n * n * table.den
    L = [
        [Fraction(n * n * x - n * (sp + sv) + total, den) for x, sv in zip(row, sums)]
        for row, sp in zip(table.num, sums)
    ]
    return GeneralizedInverse("moore_penrose", L)


def weighted_inverse(G, mu, shifted=False):
    """L_mu = sum_i mu_i L_(i) for rational weights mu summing to 1; a
    float weight raises TypeError.

    Read off one j-table: j_i(p, v) = (r(p, i) + r(v, i) - r(p, v)) / 2, so
    L_mu[p][v] = (rho(p) + rho(v) - r(p, v)) / 2 with rho(p) = sum_i mu_i r(p, i).
    L_mu mu is a constant vector c_mu 1; with shifted=True returns
    G_mu = L_mu - c_mu J, which satisfies G_mu mu = 0.
    """
    n = G.n
    mu = [_rational(x) for x in mu]
    if len(mu) != n:
        raise ValueError("weight vector size does not match graph")
    if sum(mu) != 1:
        raise ValueError("weights must sum to 1")
    table = j_function(G, 0)
    J = table.num
    # resistances r(p, v), scaled by the tree count table.den
    r = [[J[p][p] + J[v][v] - 2 * J[p][v] for v in range(n)] for p in range(n)]
    rho = [sum(m * x for m, x in zip(mu, row)) for row in r]
    L = [[(rho[p] + rho[v] - r[p][v]) / (2 * table.den) for v in range(n)] for p in range(n)]
    if not shifted:
        return GeneralizedInverse("weighted", L, mu=mu)
    prods = [sum(L[p][v] * mu[v] for v in range(n)) for p in range(n)]
    c = prods[0]
    if any(x != c for x in prods):
        raise AssertionError("L_mu mu is not constant")
    Ls = [[L[p][v] - c for v in range(n)] for p in range(n)]
    return GeneralizedInverse("weighted", Ls, mu=mu)


class PotentialTable:
    """The j-function table for a base vertex q.

    J[p][v] = j_q(p, v) is the potential at v when one unit of current
    enters at p and exits at q, grounded at q.  The exact values are an
    integer numerator matrix `num` over a common denominator `den` (the
    spanning tree count), built by one exact adjugate on first use;
    `float_inverse` reads j_q / den in float64 without them, also once.

    The reduction's step-1 constants are set at construction: keep, the
    vertices off q in order; ecc, the eccentricity of q, which bounds every
    j_q(p, v); and two_t = 2 prod_{v != q} deg(v), twice a bound on the tree
    count.  A table keeps the degrees and edge endpoints of G, not G, so the
    graph that holds it (see j_function) forms no reference cycle with it
    and frees it, float inverse included, when it is dropped.
    """

    __slots__ = (
        "q", "n", "keep", "ecc", "two_t", "_deg", "_eu", "_ev", "_inv", "_num", "_den",
    )

    def __init__(self, G, q):
        check_vertex(G, q)
        self.q = q
        self.n = G.n
        self.keep = tuple(range(q)) + tuple(range(q + 1, G.n))
        self.ecc = max(bfs_distances(G, q))
        self.two_t = 2 * prod(G.deg[:q] + G.deg[q + 1:])
        self._deg, self._eu, self._ev = G.deg, G._eu, G._ev
        self._inv = self._num = self._den = None

    def _reduced_laplacian(self, dtype):
        return _reduced_laplacian(self._deg, self._eu, self._ev, self.q, dtype)

    @property
    def num(self):
        if self._num is None:
            self._build()
        return self._num

    @property
    def den(self):
        if self._num is None:
            self._build()
        return self._den

    def _build(self):
        """num and den from adj(Q_(q)) and det(Q_(q)).

        Self-check: the integer numerators satisfy Q_(q) (num 1) = den 1,
        that is Delta(g_q) = sum_v (v) - n (q).
        """
        q = self.q
        Qq = self._reduced_laplacian(np.int64).tolist()
        den, adj = exact.adjugate(Qq)
        sums = [sum(row) for row in adj]
        if any(sum(map(mul, row, sums)) != den for row in Qq):
            raise AssertionError("j-function numerators must be integral cofactors")
        num = [tuple(row[:q] + [0] + row[q:]) for row in adj]
        num.insert(q, (0,) * self.n)
        self._num = tuple(num)
        self._den = den

    def float_inverse(self):
        """Q_(q)^{-1} = j_q / den in float64 from one float inverse, rows and
        columns in vertex order without q; the exact numerators stay unbuilt.

        Built on the first call and returned, read-only, on every later one.
        """
        if self._inv is None:
            inv = np.linalg.inv(self._reduced_laplacian(np.float64))
            inv.flags.writeable = False
            self._inv = inv
        return self._inv

    def j(self, p, v):
        return Fraction(self.num[p][v], self.den)

    def resistance(self, p):
        """Effective resistance r(p, q) = j_q(p, p)."""
        return Fraction(self.num[p][p], self.den)

    def g(self, v):
        """g_q(v) = sum_p j_q(p, v); satisfies Delta(g_q) = sum_v (v) - n (q)."""
        return Fraction(sum(row[v] for row in self.num), self.den)

    def b(self, D, h=None):
        """b_q(D) = <1, D>_q, or the h-weighted variant sum j_q(p,v) h(p) D(v).

        h, when given, must be exact and positive off q (a float raises
        TypeError); its value at q is irrelevant since j_q(q, .) = 0.
        """
        check_divisor(self, D)  # against the table's n, its graph's
        if h is None:
            total = 0
            for v, c in enumerate(D):
                if c:
                    total += c * sum(row[v] for row in self.num)
            return Fraction(total, self.den)
        h = [_rational(x) for x in h]
        if len(h) != self.n:
            raise ValueError("weight vector size does not match graph")
        if any(h[p] <= 0 for p in range(self.n) if p != self.q):
            raise ValueError("weights must be positive off the base vertex")
        total = Fraction(0)
        for v, c in enumerate(D):
            if c:
                total += c * sum(h[p] * self.num[p][v] for p in range(self.n))
        return total / self.den

    def energy(self, D):
        """E_q(D) = <D - deg(D) (q), D - deg(D) (q)> = v^T L_(q) v."""
        check_divisor(self, D)
        vec = list(D)
        vec[self.q] -= sum(vec)
        support = [v for v, c in enumerate(vec) if c]
        total = 0
        for p in support:
            row = self.num[p]
            total += vec[p] * sum(row[v] * vec[v] for v in support)
        return Fraction(total, self.den)


def j_function(G, q):
    """PotentialTable of j_q values: adj(Q_(q)) over det(Q_(q)), the tree count.

    Returns the table G keeps when it is for q, and otherwise builds one for
    q and keeps it in its place, so a graph holds at most one table.  The
    exact numerators are built on first use of the table's num or den, the
    float inverse on the first float_inverse() call.
    """
    check_vertex(G, q)
    table = G._table
    if table is None or table.q != q:
        table = G._table = PotentialTable(G, q)
    return table


def effective_resistance(G, p, q):
    """r(p, q), exact."""
    check_vertex(G, p)  # j_function checks q when p != q
    if p == q:
        return Fraction(0)
    return j_function(G, q).resistance(p)


def energy_pairing(G, D1, D2, inverse=None):
    """<D1, D2> = [D1]^T L [D2] for degree-zero divisors.

    Independent of the generalized inverse used; defaults to L_(0).  An
    inverse of another size than G raises ValueError.
    """
    check_divisor(G, D1)
    check_divisor(G, D2)
    if D1.degree != 0 or D2.degree != 0:
        raise ValueError("energy pairing requires degree-zero divisors")
    if inverse is None:
        inverse = reduced_inverse(G, 0)
    elif inverse.n != G.n:
        raise ValueError(f"inverse has size {inverse.n}, graph has {G.n} vertices")
    Lv = inverse.apply(list(D2))
    return sum(Fraction(D1[p]) * Lv[p] for p in range(G.n))


def q_energy(G, q, D):
    """E_q(D), the q-energy <D - deg(D)(q), D - deg(D)(q)>."""
    return j_function(G, q).energy(D)


def b_q(G, q, D, h=None):
    """b_q(D) = sum_v g_q(v) D(v), or the positive-weighted variant."""
    return j_function(G, q).b(D, h=h)


def total_energy(G, D):
    """script-E(D) = sum over base vertices q of E_q(D)."""
    return sum(q_energy(G, q, D) for q in G.vertices)


def pentagon_move(G, D, v):
    """Borrowing move of the sign game: requires D(v) < 0.

    Replaces D by D + (-D(v)) Delta(chi_v); on a cycle this sends the
    pattern (x, y, z) around v to (x + y, -y, z + y).
    """
    check_vertex(G, v)
    check_divisor(G, D)
    y = D[v]
    if y >= 0:
        raise ValueError("move requires a negative coefficient")
    chi = [0] * G.n
    chi[v] = -y
    return D + apply_laplacian(G, chi)


__all__ = [
    "GeneralizedInverse",
    "PotentialTable",
    "reduced_inverse",
    "moore_penrose",
    "weighted_inverse",
    "j_function",
    "effective_resistance",
    "energy_pairing",
    "q_energy",
    "b_q",
    "total_energy",
    "pentagon_move",
]
