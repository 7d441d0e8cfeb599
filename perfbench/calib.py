"""A reference loop sampled during each timed pass, to rescale its times.

The CPU speed a shared host gives one process drifts by 10-40% over seconds
to minutes (busy sibling threads, cache and memory traffic of other
tenants), and a fixed loop timed back to back shows the same drift. It moves
the program's times and this loop's alike, so a pass's wall time divided by
the loop's time measured during that pass is far steadier than either.

Probe runs one unit of the loop from a SIGALRM handler every INTERVAL_S
seconds of a pass; the handler's own time is summed so that it can be taken
out of the pass's wall time. A unit has three parts, timed apart, one for
each kind of work the package does:

  py     an interpreted integer loop, like heegner_orbit's scan
  np     numpy square, reduce and gather passes over 256 KB arrays, like
         count_points and the ring-class arrays
  fault  page faults in a fresh anonymous mapping, like the pages every new
         large numpy array is given

unit_s() is the geometric mean of the three parts' medians over the pass.
Between start() and stop() nothing is allocated through malloc, and the
arrays are built in place, so the probe does not move glibc's mmap
threshold; the pinned table's timing depends on it (see corpus.select).

rescale() gives the time the pass would have taken at the speed where a unit
takes REF_UNIT_S, about its median during passes on the 2-vCPU Xeon host
this benchmark was tuned on. Rescaled times are in seconds at that speed.
"""

from __future__ import annotations

import math
import mmap
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.2
REF_UNIT_S = 4.5e-4
_PY_ITERS = 6_000
_NP_SIZE = 32_749  # a prime; 256 KB per int64 array
_NP_ROUNDS = 2
_FAULT_PAGES = 64


class Probe:
    def __init__(self):
        self.py_s: list[float] = []
        self.np_s: list[float] = []
        self.fault_s: list[float] = []
        self.overhead_s = 0.0
        self._x = np.arange(_NP_SIZE, dtype=np.int64)
        self._idx = np.empty_like(self._x)
        np.multiply(self._x, 7919, out=self._idx)
        np.remainder(self._idx, _NP_SIZE, out=self._idx)
        self._y = np.empty_like(self._x)
        self._z = np.empty_like(self._x)
        self._old = None

    def unit(self):
        """One unit of the reference loop; each part's time is kept."""
        t0 = time.perf_counter()
        s = 0
        for i in range(_PY_ITERS):
            s = (s * 31 + i) % 1_000_003
        t1 = time.perf_counter()
        x, y, z = self._x, self._y, self._z
        for _ in range(_NP_ROUNDS):
            np.multiply(x, x, out=y)
            np.remainder(y, _NP_SIZE, out=y)
            np.take(x, y, out=z)
            np.add(z, self._idx, out=z)
        t2 = time.perf_counter()
        m = mmap.mmap(-1, _FAULT_PAGES * mmap.PAGESIZE)
        for i in range(0, _FAULT_PAGES * mmap.PAGESIZE, mmap.PAGESIZE):
            m[i] = 1
        m.close()
        t3 = time.perf_counter()
        self.py_s.append(t1 - t0)
        self.np_s.append(t2 - t1)
        self.fault_s.append(t3 - t2)
        return s

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.unit()
        self.overhead_s += time.perf_counter() - t0

    def start(self, sample: bool = True):
        """Warm the loop up and run one unit; then, if `sample`, one unit
        every INTERVAL_S of wall time until stop()."""
        for _ in range(3):
            self.unit()
        self.py_s.clear()
        self.np_s.clear()
        self.fault_s.clear()
        self.unit()
        if sample:
            self._old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Stop sampling, restore the previous SIGALRM handler, run one unit."""
        if self._old is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._old)
            self._old = None
        self.unit()

    @property
    def units(self) -> int:
        return len(self.py_s)

    def unit_s(self) -> float:
        parts = (self.py_s, self.np_s, self.fault_s)
        return math.prod(statistics.median(p) for p in parts) ** (1 / len(parts))


def rescale(seconds: float, unit_s: float) -> float:
    return seconds * REF_UNIT_S / unit_s
