"""Host-speed reference for the end-to-end timings.

The benchmark shares a few cores of a host whose speed drifts by a quarter
or more over seconds to minutes, so a run's raw timings say as much about
the host as about freefold.  While a run is timed, a timer interrupts it
every ``PERIOD_S`` and runs one slice of a fixed pure-Python computation
(the benchmark's own free reduction, no library code), recording how long
the slice took.  The mean slice time over an interval, divided by
``REFERENCE_SLICE_S``, is the host's slowness over that interval, and a
timing divided by it is that timing at reference speed.  Slices run between
bytecodes of the work they interrupt, so they see the host the work sees;
their own time is taken out of every timing (``at_reference_speed``).
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
from contextlib import contextmanager
from time import perf_counter

from workloads import _inv, _reduce

PERIOD_S = 0.05  # one slice per 50 ms of work: about 4% of a run
MIN_WINDOW_S = 1.0  # a shorter interval is judged by the slices of the second around it
# Time of one slice at reference speed: the median slice on a quiet 2-vCPU
# Intel Xeon (2.1 GHz) under Python 3.11.7.  Re-measure it whenever
# ``reference_slice`` changes.
REFERENCE_SLICE_S = 0.0019

_rng = random.Random(7919)  # fixed: the reference is the same for every seed
_WORDS = [tuple(_rng.randrange(8) for _ in range(200)) for _ in range(48)]


def reference_slice() -> None:
    for w in _WORDS:
        _reduce(w + _inv(w[:100]))


def slowness_now() -> float:
    """Host slowness from 40 slices run back to back, after a warm-up."""
    for _ in range(5):
        reference_slice()
    started = perf_counter()
    for _ in range(40):
        reference_slice()
    return (perf_counter() - started) / 40 / REFERENCE_SLICE_S


class SpeedProbe:
    """Runs reference slices on a timer and judges intervals by them."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _slice(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection that falls due stays with the work, not the slice
        t0 = perf_counter()
        reference_slice()
        took = perf_counter() - t0
        self.starts.append(t0)
        self.durations.append(took)
        if collecting:
            gc.enable()

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _between(self, lo: float, hi: float) -> list[float]:
        """Durations of the slices that started from ``lo`` to ``hi``.

        A slice runs between two bytecodes, so one that started between two
        ``perf_counter`` readings also ended between them.
        """
        i = bisect.bisect_left(self.starts, lo)
        return self.durations[i:bisect.bisect_right(self.starts, hi)]

    def slowness(self, t0: float, t1: float) -> float:
        """Mean slice time from ``t0`` to ``t1`` over the reference.

        The interval is widened to ``MIN_WINDOW_S`` around its middle.
        """
        mid = (t0 + t1) / 2
        lo = min(t0, mid - MIN_WINDOW_S / 2)
        hi = max(t1, mid + MIN_WINDOW_S / 2)
        window = self._between(lo, hi)
        if not window:
            raise RuntimeError("no reference slice ran while the workload was timed")
        return sum(window) / len(window) / REFERENCE_SLICE_S

    def at_reference_speed(self, t0: float, t1: float) -> float:
        """Seconds from ``t0`` to ``t1``, less the slices in them, at reference speed."""
        return (t1 - t0 - sum(self._between(t0, t1))) / self.slowness(t0, t1)
