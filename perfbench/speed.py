"""Machine-speed probe for a shared, noisy host.

Other tenants of a shared machine can slow every CPU-bound step of a run
by a third or more, for fractions of a second up to minutes; the
thread's CPU time rises with the wall time, so the loss is in clock rate
or shared caches, not in preemption.  The probe times a fixed reference
computation (the benchmark's own code, never gesturelab's) every 30 ms
of wall time, from an interval timer, so that an operation of seconds
is probed all through and not only at its ends.  Each timed interval
loses the time its probes took, is divided by the median reference
time around it, and is multiplied by the reference time of the
baseline machine: the result is the time it would have taken at the
baseline machine's speed.
"""

import bisect
import signal
import statistics
import time

# Median reference time on the baseline machine (2 cores, Python 3.11),
# measured at a quiet time.
NOMINAL_S = 0.15e-3
# One reference run per this much wall time keeps the probe near 0.5%.
PROBE_EVERY_S = 0.03
LOCAL_WINDOW_S = 0.25


def reference():
    """A fixed interpreter loop.

    Of the candidates tried (this loop, small numpy calls, a BLAS
    product, a histogram over an image, a sum over 4 MB) the loop alone
    tracked the slowdowns of the pipeline best: the ratio of recognize
    latency to it moved by about 6% while the latency itself moved by
    35%, and the median of the loops run during a `sweep` operation
    correlated with its time at r = 0.95.
    """
    acc = 0
    for i in range(2000):
        acc += (i * i) % 7
    return acc


class SpeedProbe:
    """Probes the machine's speed while installed (``with SpeedProbe()``).

    The timer's handler runs in the main thread between bytecodes, so a
    probe never overlaps the work it interrupts; its time is taken out
    of the interval it fell in (`net`).
    """

    def __init__(self):
        self.times = []  # when each reference run started
        self.samples = []  # how long it took
        self._previous = None

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - t0)
        self.times.append(t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self):
        """Run speed relative to the baseline machine (> 1 means slower)."""
        return statistics.median(self.samples) / NOMINAL_S

    def _between(self, start, end):
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        return self.samples[lo:hi]

    def net(self, start, end):
        """Length of [start, end] less the probes that ran inside it."""
        return (end - start) - sum(self._between(start, end))

    def local_factor(self, start, end):
        """Speed during one timed interval: the median of the probes run
        within it or within LOCAL_WINDOW_S of it, so that a slow spell of
        a fraction of a second is matched with the work it slowed."""
        near = self._between(start - LOCAL_WINDOW_S, end + LOCAL_WINDOW_S)
        return statistics.median(near) / NOMINAL_S if near else self.factor()

    def scaled(self, start, end):
        """The interval's net length at the baseline machine's speed."""
        return self.net(start, end) / self.local_factor(start, end)
