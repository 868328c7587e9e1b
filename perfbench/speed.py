"""The benchmark's timer: wall time scaled to a reference machine speed.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent over seconds (a fixed pure-Python loop timed back to back
varies that much), which would swamp any bound a regression check can
use.  ``ScaledTimer`` therefore samples the machine's speed throughout the
run: every ``PERIOD_S`` of wall time a SIGALRM handler times a fixed
pure-Python loop of integer arithmetic.  (Loops that also allocate or
walk a large buffer tracked the machine's slow periods worse.)

A measured interval is reported as its wall time, less the time spent in
the handler, multiplied by ``REF_NOMINAL_S`` times the mean reciprocal
loop time sampled inside the interval (or in the ``NEAREST`` samples before
it, for intervals shorter than the period).  As samples are evenly
spaced, that sums each piece of the interval at the speed measured in
it, which tracks drift within a long interval better than one median
speed would.  The result reads as seconds on a machine where the loop
takes ``REF_NOMINAL_S``; on the 2-core virtual machine the benchmark was
tuned on, it took 1.0 to 1.6 ms depending on load.  Program code cannot
change the loop's speed, so a slower program reads slower and a faster
one faster.
"""

import bisect
import signal
import statistics
import time

clock = time.perf_counter
PERIOD_S = 0.05
REF_NOMINAL_S = 0.001
REF_ITERATIONS = 15000
NEAREST = 10            # samples behind an interval shorter than the period


def _reference_loop():
    s = 0
    for i in range(REF_ITERATIONS):
        s += (i * i) % 7
    return s


class ScaledTimer:
    """Wall-clock intervals scaled to the reference speed; see the module
    docstring.  Installs a SIGALRM handler until ``stop``."""

    def __init__(self):
        self.starts = []
        self.loop_s = []
        self.speed_sums = [0.0]         # prefix sums of 1 / loop time
        self.stolen = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _sample(self, *_):
        t0 = clock()
        _reference_loop()
        dt = clock() - t0
        self.starts.append(t0)
        self.loop_s.append(dt)
        self.speed_sums.append(self.speed_sums[-1] + 1 / dt)
        self.stolen += dt

    def clock(self):
        """Seconds on a clock that stops while the handler samples."""
        return clock() - self.stolen

    def mark(self):
        return clock(), self.stolen

    def elapsed(self, mark):
        """(raw seconds, scaled seconds) since ``mark``; raw seconds
        exclude the handler's time."""
        t0, stolen0 = mark
        t1 = clock()
        raw = (t1 - t0) - (self.stolen - stolen0)
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        if hi == lo:
            lo = max(0, lo - NEAREST)
        speed = (self.speed_sums[hi] - self.speed_sums[lo]) / (hi - lo)
        return raw, raw * REF_NOMINAL_S * speed

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_median_s(self):
        return statistics.median(self.loop_s)
