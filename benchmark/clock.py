"""Times read at a steady reference speed of the machine.

The speed of a shared machine drifts, here by up to 2x over tens of seconds,
in wall time and CPU time alike.  While a SteadyClock is entered, an interval
timer interrupts the main thread every SAMPLE_EVERY_S and times a fixed
exact-arithmetic kernel that does not use cdcbranch (best of three).  The
time spent in these samples is taken out of every interval, and what is left
is scaled by REFERENCE_KERNEL_S over the kernel times sampled during the
interval and within WINDOW_S of it.  So an interval reads as the seconds it
would take on a machine where the kernel takes REFERENCE_KERNEL_S.  A change
in cdcbranch moves the scaled time as it moves the raw one; a change in the
machine's speed slows the kernel too, and cancels.

Everything runs in the one thread: the samples are signal handlers, which
Python runs between bytecodes of the main thread.
"""

import bisect
import signal
import time
from fractions import Fraction

SAMPLE_EVERY_S = 0.2
WINDOW_S = 0.5
REFERENCE_KERNEL_S = 0.0015


def kernel():
    """Gauss-Jordan elimination of a fixed 8x8 Hilbert system in Fraction."""
    n = 8
    M = [[Fraction(1, i + j + 1) for j in range(n)] + [Fraction(i)] for i in range(n)]
    for c in range(n):
        p = M[c][c]
        M[c] = [x / p for x in M[c]]
        for r in range(n):
            if r != c and M[r][c]:
                f = M[r][c]
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return M


class SteadyClock:
    def __init__(self):
        self.starts = []  # start of each sample
        self.ends = []  # end of each sample
        self.kernel_s = []  # best kernel time of each sample
        self._paused = [0.0]  # prefix sums of sample durations
        self._previous = None

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        best = None
        for _ in range(3):
            k0 = time.perf_counter()
            kernel()
            k = time.perf_counter() - k0
            best = k if best is None else min(best, k)
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.kernel_s.append(best)
        self._paused.append(self._paused[-1] + t1 - t0)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scaled(self, t0, t1):
        """Seconds from t0 to t1, without the samples taken inside the
        interval, at the reference speed."""
        # a sample runs whole between two bytecodes, so it lies entirely
        # inside or entirely outside any interval read with perf_counter
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_right(self.ends, t1)
        busy = (t1 - t0) - (self._paused[j] - self._paused[i] if j > i else 0.0)
        lo = bisect.bisect_left(self.ends, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        near = self.kernel_s[lo:hi]
        if not near:
            k = bisect.bisect_left(self.ends, t0)
            near = [self.kernel_s[min(k, len(self.kernel_s) - 1)]]
        return busy * REFERENCE_KERNEL_S * sum(1.0 / k for k in near) / len(near)
