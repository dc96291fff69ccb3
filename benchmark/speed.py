"""A speed probe that rescales measured times to one reference core speed.

The benchmark runs on shared hosts whose cores slow down by up to 2x, for
stretches from milliseconds to minutes, as other tenants load them.  A
wall-clock time then says as much about the neighbours as about chipfire.
So while a run measures, a timer signal interrupts it every PERIOD_S and
runs a fixed piece of the benchmark's own work, the probe: fraction-free
Bareiss elimination on a fixed 6 x 6 matrix of 256-bit integers, the same
big-integer arithmetic and list indexing as chipfire's exact algebra.  The
probe never changes, so the time it takes tracks only the machine.

An interval [a, b) of the run is then reported as

    (b - a - probe time inside it) * REF_NS / (median probe time around it)

that is, in milliseconds of a core on which the probe takes REF_NS: the
time the same work would take on the reference machine with no neighbour
load.  A faster chipfire shortens the interval and leaves the probe alone,
so it shows in full.  The raw wall-clock times stay in the run record.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

PERIOD_S = 0.005
# Probe time in ns on the reference machine (2 vCPUs of an Intel Xeon KVM
# guest, Python 3.11.7) at its fast end: the 1st percentile of 4260 probes
# taken 3 ms apart over 15 s.  It only fixes the unit of the results.
REF_NS = 156_000
# An interval holding fewer probes than this borrows its nearest ones.
MIN_PROBES = 7

_rng = random.Random("speed-probe")
_MATRIX = [[_rng.getrandbits(256) for _ in range(6)] for _ in range(6)]


def probe_work(matrix=_MATRIX):
    """Bareiss forward elimination; returns the determinant."""
    a = [row[:] for row in matrix]
    n = len(a)
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[n - 1][n - 1]


class SpeedProbe:
    """Runs probe_work on a SIGALRM timer and rescales intervals by it."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._cumulative = [0]
        self._previous = None

    def _handler(self, _signum, _frame):
        clock = time.perf_counter_ns
        start = clock()
        probe_work()
        self.durations.append(clock() - start)
        self.starts.append(start)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        self._cumulative = [0]
        for d in self.durations:
            self._cumulative.append(self._cumulative[-1] + d)

    def _span(self, a, b):
        return bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)

    def probe_ns(self, a, b):
        """Total probe time inside [a, b).  A probe runs between two
        bytecodes, so it lies wholly inside an interval or wholly outside."""
        i, j = self._span(a, b)
        return self._cumulative[j] - self._cumulative[i]

    def factor(self, a, b):
        """REF_NS over the median probe time in [a, b), or in the
        MIN_PROBES probes nearest to it when it holds fewer."""
        i, j = self._span(a, b)
        if j - i < MIN_PROBES:
            i = max(0, min(i, (i + j - MIN_PROBES) // 2))
            j = min(len(self.durations), max(j, i + MIN_PROBES))
        return REF_NS / statistics.median(self.durations[i:j])

    def rescale(self, a, b):
        """The interval [a, b) in ns at the reference speed, probes taken out."""
        return (b - a - self.probe_ns(a, b)) * self.factor(a, b)
