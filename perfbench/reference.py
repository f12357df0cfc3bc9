"""The machine's current speed, read from a fixed pure-Python reference task.

The benchmark runs on shared CPUs whose speed drifts by tens of percent
between runs and changes by up to 2x from second to second.  Every timed
interval is therefore scaled by the reference task's time around it:
``SpeedProbe.scale(start, end)`` brings a time measured in that window to
the speed at which the task takes ``REFERENCE_S``.  ``hurwitzq`` never runs
the task, so no change to the package can move it.

A fresh import of ``hurwitzq.cli`` is mostly process start-up, which the
task does not follow: it is scaled instead by a bare interpreter start
(``python -c pass``) timed right after it, to the speed at which that start
takes ``START_REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import threading
import time
from contextlib import contextmanager
from fractions import Fraction

# The task's typical time on the machine the baseline was recorded on
# (2-core Intel Xeon, CPython 3.11.7); scaled times are at that speed.
REFERENCE_S = 1.3e-3
START_REFERENCE_S = 0.045
INTERVAL_S = 0.2  # between samples while a child runs
MIN_SAMPLES = 20  # samples behind each scale factor

_VALUES = tuple(Fraction(n % 7 - 3, n % 5 + 1) for n in range(32))


def quantile(values, q: float) -> float:
    """The q-quantile (0 <= q <= 1) by linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def reference_task() -> float:
    """Time one run of a fixed mix of Fraction arithmetic, tuple and dict work."""
    start = time.perf_counter()
    seen = {}
    for n in range(120):
        x, y = _VALUES[n & 31], _VALUES[(n * 7 + 3) & 31]
        key = (x * y + x - y, x / (y + 4))
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - start


class SpeedProbe:
    """Reference-task times on ``time.monotonic()``, taken between calls and while a child runs.

    Keep the benchmark and its children on one CPU, so the samples taken
    while a child runs see the CPU the child runs on.
    """

    def __init__(self) -> None:
        self._at: "list[float]" = []
        self._seconds: "list[float]" = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            seconds = reference_task()
            self._at.append(time.monotonic())
            self._seconds.append(seconds)

    @contextmanager
    def running(self):
        """Sample every INTERVAL_S on a thread for the duration of the block."""
        stop = threading.Event()

        def loop():
            while not stop.wait(INTERVAL_S):
                self.sample()

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the lower quartile of the samples taken in [start, end].

        An interval that holds fewer than MIN_SAMPLES samples is widened
        to the MIN_SAMPLES samples nearest to it.  The lower quartile
        leaves out samples that the child preempted.
        """
        at = self._at
        lo, hi = bisect.bisect_left(at, start), bisect.bisect_right(at, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(at)):
            if lo > 0 and (hi == len(at) or start - at[lo - 1] <= at[hi] - end):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S / quantile(self._seconds[lo:hi], 0.25)

    def all_seconds(self) -> "list[float]":
        return list(self._seconds)
