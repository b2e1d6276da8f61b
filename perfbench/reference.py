"""A fixed reference computation that measures the host's speed.

The VM the benchmark runs on changes speed by up to a third within
seconds: one and the same purecoalg item took from 0.48 to 0.89 s in one
two-minute stretch, and CPU time moves with wall time.  The timed phase
therefore runs this computation between items, for a tenth of the time,
and ``normalize`` scales each item's time by the reference's speed around
it.  The computation is frozen here and imports nothing from purecoalg,
so a change to the package cannot change it.  It does the kind of work
the package does: exact elimination over Z (fraction-free, with growing
integers) and over Q (``Fraction``) on Python lists.
"""

from __future__ import annotations

import bisect
import random
import statistics
from fractions import Fraction

_rng = random.Random(20261018)
_INT_MATRIX = [[_rng.randint(-50, 50) for _ in range(17)] for _ in range(17)]
_FRACTION_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(9)] for _ in range(9)]

# About one call's median time on the 2-vCPU Intel Xeon VM of the baseline
# runs; normalized times read as seconds at the speed where a call takes this.
NOMINAL_S = 0.004
# reference calls within this many seconds of an item give its host speed
WINDOW_S = 1.0
# at least this many calls, the nearest ones, when the window holds fewer
MIN_CALLS = 9


def _bareiss_determinant(matrix):
    a = [row[:] for row in matrix]
    n = len(a)
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[-1][-1]


def _fraction_rank(matrix):
    a = [row[:] for row in matrix]
    n, rank = len(a), 0
    for c in range(len(a[0])):
        pivot = next((i for i in range(rank, n) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(n):
            if i != rank and a[i][c] != 0:
                f = a[i][c] / a[rank][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def call():
    """One unit of reference work."""
    return _bareiss_determinant(_INT_MATRIX), _fraction_rank(_FRACTION_MATRIX)


def normalize(run):
    """The item times of a ``run_items`` run, in seconds at the nominal host speed.

    Each item's time is multiplied by NOMINAL_S over the median time of the
    reference calls within WINDOW_S of the item's midpoint, or of the
    MIN_CALLS calls nearest to it when the window holds fewer.
    """
    ref_mids, ref_times = run["ref_mids"], run["ref_times"]
    out = []
    for mid, t in zip(run["mids"], run["times"]):
        lo = bisect.bisect_left(ref_mids, mid - WINDOW_S)
        hi = bisect.bisect_right(ref_mids, mid + WINDOW_S)
        if hi - lo < MIN_CALLS:
            at = bisect.bisect_left(ref_mids, mid)
            lo = max(0, min(at - MIN_CALLS // 2, len(ref_mids) - MIN_CALLS))
            hi = min(len(ref_mids), lo + MIN_CALLS)
        out.append(t * NOMINAL_S / statistics.median(ref_times[lo:hi]))
    return out
