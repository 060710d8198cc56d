"""A fixed reference computation that measures how fast the host runs now.

The benchmark runs on shared machines whose speed drifts by tens of percent
over seconds to minutes, for the whole process alike. While a worker
measures, a timer signal falls due every INTERVAL_S seconds of wall time
and the kernel runs once for it, about 4% of the time: at the end of the
unit of work in progress, or at once when that unit has run for more than
LONG_S, so that long units are sampled while they run and short ones are
not disturbed. A unit's time is taken on clock(), which leaves the kernel's
time out, and divided by the slowdown measured around it: the mean time of
the kernel calls made during the unit, or at its end, and the NEAR_CALLS
calls on each side, over REFERENCE_S. That is the unit's time at reference
speed, what it would have taken on a machine where one kernel call takes
exactly 1 ms.

The kernel mixes what distlap does, pure-Python breadth-first search and
small symmetric eigensolves, and calls nothing of distlap, so a change to
the program moves the program's times and leaves the kernel's alone.
"""

from __future__ import annotations

import random
import signal
from array import array
from time import perf_counter

import numpy as np

REFERENCE_S = 1e-3
INTERVAL_S = 0.02
LONG_S = 0.1
NEAR_CALLS = 8
VERTICES = 40
MATRICES = 8


class Calibrator:
    def __init__(self):
        rng = random.Random(0)
        self.adj = [[v for v in range(VERTICES)
                     if v != u and rng.random() < 0.15]
                    for u in range(VERTICES)]
        mats = np.array([[[rng.random() for _ in range(10)]
                          for _ in range(10)] for _ in range(MATRICES)])
        self.mats = list(mats + mats.transpose(0, 2, 1))
        self.spent_s = 0.0
        self.samples = array("d")  # seconds of each kernel call, in order
        self._running = False
        self._unit_start = None  # perf_counter at the start of the unit
        self._due = False

    def kernel(self):
        total = 0
        for source in range(VERTICES):
            dist = {source: 0}
            frontier = [source]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in self.adj[u]:
                        if v not in dist:
                            dist[v] = dist[u] + 1
                            nxt.append(v)
                frontier = nxt
            total += sum(dist.values())
        for m in self.mats:
            total += float(np.linalg.eigvalsh(m)[-1])
        return total

    def _call(self):
        t0 = perf_counter()
        self.kernel()
        took = perf_counter() - t0
        self.spent_s += took
        self.samples.append(took)

    def _on_alarm(self, signum, frame):
        if not self._running:  # an alarm still pending at stop() is dropped
            return
        start = self._unit_start
        if start is None or perf_counter() - start > LONG_S:
            self._call()
        else:
            self._due = True

    def unit_started(self):
        self._unit_start = perf_counter()

    def unit_done(self):
        """Runs the kernel call that fell due during a short unit."""
        self._unit_start = None
        if self._due:
            self._due = False
            self._call()

    def start(self):
        """Sample the kernel from the timer signal until stop()."""
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._running = False
        if not self.samples:
            self._call()

    def clock(self):
        """perf_counter without the time the kernel took."""
        return perf_counter() - self.spent_s

    @property
    def calls(self):
        return len(self.samples)

    def calibrate(self, seconds):
        """Run the kernel back to back for the given seconds."""
        deadline = perf_counter() + seconds
        while not self.samples or perf_counter() < deadline:
            self._call()

    def slowdown(self, first=0, last=None):
        """Mean time of the kernel calls first..last-1 over REFERENCE_S,
        widened by NEAR_CALLS calls on each side when last is given: above
        1 the host runs slower than reference speed."""
        if last is None:
            window = self.samples
        else:
            window = self.samples[max(first - NEAR_CALLS, 0):
                                  last + NEAR_CALLS]
        return sum(window) / len(window) / REFERENCE_S
