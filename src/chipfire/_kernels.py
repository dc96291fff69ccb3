"""The burning kernels behind reduction and the tree bijection.

The burning loops (Dhar scans, borrowing, set-firing fixpoints and the two
tree-bijection burns) run on the graph's CSR incidence lists with Python
ints, so chip counts of any size stay exact.  Every kernel uses the same
deterministic tie-breaks (lowest vertex index, lowest edge index), which
make burn orders, fired sets and the bijection canonical.  The burns keep
those tie-breaks with min-heaps instead of rescans: what can be picked next
(a ready vertex, a crossing edge) only ever joins the candidates or leaves
them for good, so the heap top is the lowest-index candidate.  Each burn
costs O(m log m).
"""

from __future__ import annotations

from heapq import heappop, heappush


# ---------------------------------------------------------------------------
# Dhar burn: q burns first; v burns when (edges to burnt) > D(v).
# A vertex is ready once cnt[v] > d[v] and stays ready, as cnt only grows,
# so a heap of the ready vertices pops them lowest-index first.  Vertices
# with negative chips are ready from the start; the rest join the heap when
# cnt[w] reaches d[w] + 1, which happens once.  When the fire stops, cnt[v]
# is the number of edges from v to the burnt set.

def _burn(indptr, nbr, d, q):
    """(burn order, burnt mask, per-vertex count of edges to the burnt set)."""
    n = len(d)
    burnt = [False] * n
    cnt = [0] * n
    order = [q]
    burnt[q] = True
    for w in nbr[indptr[q]:indptr[q + 1]]:
        cnt[w] += 1
    ready = [v for v in range(n) if not burnt[v] and cnt[v] > d[v]]
    while ready:
        v = heappop(ready)
        burnt[v] = True
        order.append(v)
        for w in nbr[indptr[v]:indptr[v + 1]]:
            cnt[w] += 1
            if cnt[w] == d[w] + 1 and not burnt[w]:
                heappush(ready, w)
    return order, burnt, cnt


def burn(G, dvals, q):
    """Burn order as a list of vertices, starting at q."""
    return _burn(G._indptr, G._nbr, list(dvals), q)[0]


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
#            step 3.  Every move is legal, so c stays feasible, and sum(c)
#            drops by at least |A|, so the loop ends.  When it ends, c = c*:
#            if c > c* somewhere, the set A where c - c* is largest lies in
#            supp(c) - q, and d(v) = d*(v) + Q(c - c*)(v) >= outdeg_A(v) on
#            A, so A could still fire back.
#
# With no guess the descent never runs: the ascent alone is the worklist
# borrowing from c = 0.

def borrow_until_effective(G, dvals, q, guess=None):
    """(new chips, borrow counts, total borrows, descent set firings).

    guess, when given, is a starting borrow vector c0 >= 0 with c0(q) = 0;
    the counts are the same for every guess.  The last entry counts the
    descent rounds, each of which fires one set back k times.
    """
    indptr, nbr = G._indptr, G._nbr
    d = list(dvals)
    n = len(d)
    counts = [0] * n if guess is None else list(guess)
    for v, k in enumerate(counts):
        if k:
            lo, hi = indptr[v], indptr[v + 1]
            d[v] += k * (hi - lo)
            for w in nbr[lo:hi]:
                d[w] -= k
    work = [v for v, c in enumerate(d) if c < 0 and v != q]
    while work:
        v = work.pop()
        lo, hi = indptr[v], indptr[v + 1]
        k = -(d[v] // (hi - lo))
        counts[v] += k
        d[v] += k * (hi - lo)
        for w in nbr[lo:hi]:
            if 0 <= d[w] < k and w != q:
                work.append(w)
            d[w] -= k
    unborrows = 0
    descend = guess is not None and any(guess)
    while descend:
        seeded = [-1 if c == 0 else x for x, c in zip(d, counts)]  # c(q) = 0
        order, burnt, cnt = _burn(indptr, nbr, seeded, q)
        if len(order) == n:
            break
        A = [v for v in range(n) if not burnt[v]]
        k = min(counts[v] for v in A)
        k = min(k, min(d[v] // cnt[v] for v in A if cnt[v]))
        for v in range(n):
            if burnt[v]:
                d[v] += k * (indptr[v + 1] - indptr[v] - cnt[v])
            else:
                d[v] -= k * cnt[v]
                counts[v] -= k
        unborrows += 1
    return d, counts, sum(counts), unborrows


# ---------------------------------------------------------------------------
# Step 3: run the burn; if vertices stay unburnt, fire all of them as one
# set and repeat.  Firing the unburnt set sends one chip across each edge to
# the burnt set, so the burn's own counts give the new chips in one pass: an
# unburnt v loses cnt[v], a burnt v gains deg(v) - cnt[v].

def fire_until_reduced(G, dvals, q):
    """(new chips, list of fired sets in order)."""
    indptr, nbr = G._indptr, G._nbr
    d = list(dvals)
    n = len(d)
    sets = []
    while True:
        order, burnt, cnt = _burn(indptr, nbr, d, q)
        if len(order) == n:
            break
        for v in range(n):
            if burnt[v]:
                d[v] += indptr[v + 1] - indptr[v] - cnt[v]
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
# no edge crosses.

def _next_crossing(heap, in_x, eu, ev):
    """Pop the lowest-index crossing edge off the heap; -1 if none is left."""
    while heap:
        f = heappop(heap)
        if in_x[eu[f]] != in_x[ev[f]]:
            return f
    return -1


def _join(t, in_x, heap, indptr, nbr, eidx):
    """Add t to X and push its edges that now cross."""
    in_x[t] = True
    for k in range(indptr[t], indptr[t + 1]):
        if not in_x[nbr[k]]:
            heappush(heap, eidx[k])


def tree_from_reduced(G, dvals, q):
    """Burn a reduced divisor into (tree edge list, R mask); None if stalled."""
    eu, ev, n = G._eu, G._ev, G.n
    indptr, nbr, eidx = G._indptr, G._nbr, G._eidx
    a = list(dvals)
    m = len(eu)
    in_x = [False] * n
    heap = []
    _join(q, in_x, heap, indptr, nbr, eidx)
    reached = 1
    in_r = [False] * m
    rcount = [0] * n
    tree = []
    while reached < n:
        f = _next_crossing(heap, in_x, eu, ev)
        if f < 0:
            return None, None  # stalled: input was not reduced
        t = ev[f] if in_x[eu[f]] else eu[f]
        if a[t] == rcount[t]:
            _join(t, in_x, heap, indptr, nbr, eidx)
            reached += 1
            tree.append(f)
        in_r[f] = True
        rcount[eu[f]] += 1
        rcount[ev[f]] += 1
    return tree, in_r


def divisor_from_tree(G, tree_mask, q):
    """Burn a spanning tree into (chip counts with a[q]=0, R mask)."""
    eu, ev, n = G._eu, G._ev, G.n
    indptr, nbr, eidx = G._indptr, G._nbr, G._eidx
    m = len(eu)
    in_x = [False] * n
    heap = []
    _join(q, in_x, heap, indptr, nbr, eidx)
    reached = 1
    in_r = [False] * m
    rcount = [0] * n
    a = [0] * n
    while reached < n:
        f = _next_crossing(heap, in_x, eu, ev)
        if f < 0:
            raise AssertionError("connected graph ran out of crossing edges")
        if tree_mask[f]:
            t = ev[f] if in_x[eu[f]] else eu[f]
            a[t] = rcount[t]
            _join(t, in_x, heap, indptr, nbr, eidx)
            reached += 1
        in_r[f] = True
        rcount[eu[f]] += 1
        rcount[ev[f]] += 1
    return a, in_r
