"""Machine-speed probe: a fixed reference loop sampled beside and during work.

The wall time of a fixed pure-Python loop on a shared machine drifts by tens
of percent over stretches of seconds.  Timing that loop next to each task,
and every ``INTERVAL_S`` during it from a SIGALRM handler, gives the speed the
task actually ran at.  A task's time at the nominal speed is its wall time
times the mean of ``NOMINAL_S / loop time`` over its window: the samples are
evenly spaced in time, so that mean is the average speed over the task, and
one sample slowed by an interruption moves it little.  The handler's own
time is kept out of every measured interval through ``clock()``.

This module imports nothing from sfkit.
"""

from __future__ import annotations

import signal
import statistics
from array import array
from fractions import Fraction
from time import perf_counter

# The reference loop's time at the nominal speed (seconds).  The benchmark's
# README records how it was measured; changing it rescales every corrected time.
NOMINAL_S = 0.0007
INTERVAL_S = 0.025
_ITERS = 120


def reference_loop():
    """Fixed work in the mix sfkit spends its time on: Fraction arithmetic,
    tuple-keyed dict updates, tuple building and small-int list work."""
    acc = Fraction(0)
    table = {}
    for i in range(_ITERS):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        key = (i % 11, i % 13)
        table[key] = table.get(key, 0) + i
        sorted([i * k % 17 for k in range(4)])
    return acc, len(table)


class SpeedProbe:
    """Samples ``reference_loop`` on demand and on a wall-clock timer."""

    def __init__(self):
        self.durations = array("d")  # of each sample, in order; no object per sample
        self.overhead = 0.0  # total time spent sampling
        self._busy = False

    def sample(self):
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self.durations.append(t1 - t0)
        self.overhead += perf_counter() - t0

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            self.sample()
        finally:
            self._busy = False

    def clock(self):
        """Wall time with the probe's own sampling time taken out."""
        return perf_counter() - self.overhead

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """Sample now and return the index of that sample (a window edge)."""
        self.sample()
        return len(self.durations) - 1

    def speed(self, first, last=None):
        """Mean of NOMINAL_S / loop time over samples first..last (both
        included; to the latest sample when ``last`` is None)."""
        window = self.durations[first:None if last is None else last + 1]
        return statistics.fmean(NOMINAL_S / d for d in window)


class TaskTimer:
    """Times a task between two probe samples, one on each side of it."""

    def __init__(self, probe):
        self.probe = probe
        self.edge = None
        self.start = None

    def begin(self):
        self.edge = self.probe.mark()
        self.start = self.probe.clock()

    def end(self):
        """(wall, corrected, speed) of the task since ``begin``."""
        wall = self.probe.clock() - self.start
        speed = self.probe.speed(self.edge, self.probe.mark())
        return wall, wall * speed, speed
