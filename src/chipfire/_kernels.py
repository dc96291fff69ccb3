"""The burning kernels behind reduction and the tree bijection.

The burning loops (Dhar scans, borrowing, the set-firing fixpoint and the
two tree-bijection burns) walk each vertex's tuple of neighbors or of
incident edges (Graph._nbrs, Graph._inc) with Python ints, so chip counts
of any size stay exact.  Every kernel uses the same deterministic
tie-breaks (lowest vertex index, lowest edge index), which make burn
orders, fired sets and the bijection canonical.  The burns keep those
tie-breaks with min-heaps instead of rescans: what can be picked next (a
ready vertex, a crossing edge) only ever joins the candidates or leaves
them for good, so the heap top is the lowest-index candidate.  Each burn
costs O(m log m).
"""

from __future__ import annotations

from heapq import heappop, heappush

from .graph import _laplacian_list


# ---------------------------------------------------------------------------
# Dhar burn: q burns first; v burns when (edges to burnt) > D(v).
# A vertex is ready once cnt[v] > d[v] and stays ready, as cnt only grows,
# so a heap of the ready vertices pops them lowest-index first.  Vertices
# with negative chips are ready from the start; the rest join the heap when
# cnt[w] reaches d[w] + 1, which happens once.  When the fire stops, cnt[v]
# is the number of edges from v to the burnt set.

def _burn(nbrs, d, q):
    """(burn order, burnt mask, per-vertex count of edges to the burnt set)."""
    n = len(d)
    burnt = [False] * n
    cnt = [0] * n
    order = [q]
    burnt[q] = True
    for w in nbrs[q]:
        cnt[w] += 1
    ready = [v for v in range(n) if not burnt[v] and cnt[v] > d[v]]
    while ready:
        v = heappop(ready)
        burnt[v] = True
        order.append(v)
        for w in nbrs[v]:
            cnt[w] += 1
            if cnt[w] == d[w] + 1 and not burnt[w]:
                heappush(ready, w)
    return order, burnt, cnt


def burn(G, dvals, q):
    """Burn order as a list of vertices, starting at q; dvals is only read."""
    return _burn(G._nbrs, dvals, q)[0]


# ---------------------------------------------------------------------------
# Step 2: borrow at vertices off q until no chip count off q is negative.
# Borrowing at v adds deg(v) chips at v and removes one chip across each
# incident edge.  Borrowing is abelian, and the borrow vector it ends with is
# the least c >= 0 with c(q) = 0 and d + Q c >= 0 off q (least action,
# Fey-Levine-Peres 2010).  So c* = L_(q) (d2 - d) for a d2 in the box
# [0, deg - 1] off q, which makes floor(L_(q) (t - d)) for a target t in the
# box a good guess (reduction._borrow_guess), and any guess c0 >= 0 can be
# corrected to c* exactly (Friedrich-Levine 2013), in two phases:
#
#   ascent   borrow at negative vertices off a worklist until none is left;
#            v takes all ceil(-d(v) / deg(v)) borrows it needs at once (each
#            is legal, as d(v) stays negative until the last).  No borrow
#            passes a feasible c' >= c0, as d(v) < 0 gives
#            deg(v) (c'(v) - c(v)) >= -d(v); so this ends at the least
#            feasible c >= c0, and c >= c*.
#   descent  while some set A in supp(c), q not in A, can fire without
#            making a vertex of A negative, fire it back.  The burn seeded
#            at q and at every v with c(v) = 0 (given -1 chips, so they burn
#            at once) leaves the largest such A unburnt; A fires back k
#            times, k = min over v in A of c(v) and of d(v) // cnt(v) where
#            cnt(v) > 0, and the burn's counts give the new chips as in
#            fire_until_reduced.  Every move is legal, so c stays feasible,
#            and sum(c) drops by at least |A|, so the loop ends.  When it ends, c = c*:
#            if c > c* somewhere, the set A where c - c* is largest lies in
#            supp(c) - q, and d(v) = d*(v) + Q(c - c*)(v) >= outdeg_A(v) on
#            A, so A could still fire back.
#
# With no guess the descent never runs: the ascent alone is the worklist
# borrowing from c = 0.  Either way step 2 ends at c*, and the divisor it
# leaves is q-reduced (reduction's module docstring has the proof), so
# `reduce` has no step 3.

def borrow_until_effective(G, dvals, q, guess=None):
    """(new chips, borrow counts, total borrows, descent set firings).

    guess, when given, is a starting borrow vector c0 >= 0 with c0(q) = 0;
    the counts are the same for every guess.  The last entry counts the
    descent rounds, each of which fires one set back k times.
    """
    nbrs, deg = G._nbrs, G.deg
    d = list(dvals)
    n = len(d)
    counts = [0] * n if guess is None else list(guess)
    if guess is not None:
        d = [a + b for a, b in zip(d, _laplacian_list(G, counts))]
    work = [v for v, c in enumerate(d) if c < 0 and v != q]
    while work:
        v = work.pop()
        k = -(d[v] // deg[v])
        counts[v] += k
        d[v] += k * deg[v]
        for w in nbrs[v]:
            if 0 <= d[w] < k and w != q:
                work.append(w)
            d[w] -= k
    unborrows = 0
    descend = guess is not None and any(guess)
    while descend:
        seeded = [-1 if c == 0 else x for x, c in zip(d, counts)]  # c(q) = 0
        order, burnt, cnt = _burn(nbrs, seeded, q)
        if len(order) == n:
            break
        A = [v for v in range(n) if not burnt[v]]
        k = min(counts[v] for v in A)
        k = min(k, min(d[v] // cnt[v] for v in A if cnt[v]))
        for v in range(n):
            if burnt[v]:
                d[v] += k * (deg[v] - cnt[v])
            else:
                d[v] -= k * cnt[v]
                counts[v] -= k
        unborrows += 1
    return d, counts, sum(counts), unborrows


# ---------------------------------------------------------------------------
# The paper's step 3, the set-firing fixpoint: run the burn; if vertices
# stay unburnt, fire all of them as one set and repeat.  Firing the unburnt
# set sends one chip across each edge to the burnt set, so the burn's own
# counts give the new chips in one pass: an unburnt v loses cnt[v], a burnt
# v gains deg(v) - cnt[v].  From any divisor effective off q it ends at the
# q-reduced one.  `reduce` does not call it, as its step 2 already ends
# there; the tests use it as an independent oracle of reducedness and of
# the b_q drop per fired set.

def fire_until_reduced(G, dvals, q):
    """(new chips, list of fired sets in order)."""
    nbrs, deg = G._nbrs, G.deg
    d = list(dvals)
    n = len(d)
    sets = []
    while True:
        order, burnt, cnt = _burn(nbrs, d, q)
        if len(order) == n:
            break
        for v in range(n):
            if burnt[v]:
                d[v] += deg[v] - cnt[v]
            else:
                d[v] -= cnt[v]
        sets.append(tuple(v for v in range(n) if not burnt[v]))
    return d, sets


# ---------------------------------------------------------------------------
# Tree bijection burns.  Both scans pick the lowest-index unprocessed edge
# with exactly one endpoint reached, which makes the edge sequence (and so
# the sets R, T) canonical.  When a vertex joins X it pushes its edges to
# vertices outside X on a heap, so each edge is pushed at most once, when it
# starts to cross, and is processed when popped.  X only grows, so an edge
# whose other end has joined X since its push never crosses again: popping
# past those leaves the lowest crossing edge on top, and an empty heap means
# no edge crosses.  A popped edge has an end in X, so it crosses unless its
# other end is in X too.  Each loop round joins one vertex t and pops edges
# until one brings in the next; a processed edge is only ever counted at its
# end outside X, the only count either burn reads.

def tree_from_reduced(G, a, q):
    """Burn a reduced divisor a into (tree edge list, R mask); (None, None)
    if stalled.  a is only read.

    t joins X on the (a[t] + 1)-th processed edge from X, so X grows as
    Dhar's burn does, and the scan stalls exactly when a vertex off q has
    negative chips or stays unburnt, i.e. when the divisor is not q-reduced.
    """
    eu, ev, inc, n = G._eu, G._ev, G._inc, G.n
    in_x = [False] * n
    in_r = [False] * len(eu)
    rcount = [0] * n
    tree = []
    heap = []
    t = q
    reached = 1
    while True:
        in_x[t] = True
        for f in inc[t]:
            if not (in_x[eu[f]] and in_x[ev[f]]):
                heappush(heap, f)
        if reached == n:
            return tree, in_r
        while heap:
            f = heappop(heap)
            t = eu[f]
            if in_x[t]:
                t = ev[f]
                if in_x[t]:
                    continue
            in_r[f] = True
            c = rcount[t]
            if a[t] == c:
                break
            rcount[t] = c + 1
        else:
            return None, None
        reached += 1
        tree.append(f)


def divisor_from_tree(G, tree_mask, q):
    """Burn a spanning tree into (chip counts with a[q]=0, R mask); (None,
    None) if stalled, when the masked edges do not connect every vertex."""
    eu, ev, inc, n = G._eu, G._ev, G._inc, G.n
    in_x = [False] * n
    in_r = [False] * len(eu)
    a = [0] * n
    heap = []
    t = q
    reached = 1
    while True:
        in_x[t] = True
        for f in inc[t]:
            if not (in_x[eu[f]] and in_x[ev[f]]):
                heappush(heap, f)
        if reached == n:
            return a, in_r
        while heap:
            f = heappop(heap)
            t = eu[f]
            if in_x[t]:
                t = ev[f]
                if in_x[t]:
                    continue
            in_r[f] = True
            if tree_mask[f]:
                break
            a[t] += 1
        else:
            return None, None
        reached += 1
