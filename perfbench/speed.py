"""Machine-speed probes: library-free stand-ins for a workload's kind of
work, timed between operations so that op times can be scaled to a fixed
reference speed.

On a shared machine the same op runs up to twice as slow for seconds to
minutes at a time, and its CPU time (``time.thread_time``) slows exactly
as its wall time does (the slowdown is contention for the core and its
caches, not time stolen from the process), so neither clock gives figures
that two runs minutes apart can be compared by.  A probe that runs beside
the ops slows down with them.  Over 200 interleaved repetitions on a
2-core x86-64 VM, the log slowdown of census, dim, billingsley and verify
ops correlated 0.8 to 0.9 with that of the matching probe, and dividing by
the probe cut the standard deviation of their log times from 0.12, 0.27,
0.30 and 0.25 to 0.06, 0.13, 0.19 and 0.11.

An op's scaled time is its wall time divided by the probe's slowdown at
that moment: the median of the two probes before the op starts and the two
after, over the probe's reference time.  The probes call only the standard
library, numpy and mpmath, never affdim, so a change to the library moves
the op times and not the probes.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

import mpmath
import numpy as np

#: seconds between probes while ops run; longer ops get one before each
PROBE_INTERVAL_S = 0.25


def _python() -> None:
    s = 0
    for i in range(10_000):
        s += i * i
    x = Fraction(0)
    for i in range(1, 120):
        x += Fraction(1, i * i)
    y = mpmath.mpf(1)
    for i in range(1, 250):
        y += mpmath.log(i) / mpmath.mpf(i) ** 2


def _numpy() -> None:
    a = np.arange(300_000)
    (a * a).sum()
    np.sort(a[::-1])


def _mixed() -> None:
    _python()
    _numpy()


#: probe name -> (function, reference seconds).  The reference is the
#: probe's fastest time on a quiet 2-core x86-64 VM with Python 3.11 and
#: numpy 2.4, so scaled times read as seconds on that machine at its best.
PROBES = {
    "numpy": (_numpy, 0.0034),
    "mixed": (_mixed, 0.0070),
}


class SpeedProbe:
    """Times one probe now and then and scales op times by its slowdown."""

    def __init__(self, name: str, interval: float = PROBE_INTERVAL_S):
        self.fn, self.reference = PROBES[name]
        self.interval = interval
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._last = float("-inf")

    def tick(self, force: bool = False) -> float | None:
        """Run the probe if ``interval`` seconds have passed since the last;
        returns its duration."""
        if not force and time.perf_counter() - self._last < self.interval:
            return None
        start = time.perf_counter()
        self.fn()
        end = time.perf_counter()
        self.starts.append(start)
        self.durations.append(end - start)
        self._last = end
        return end - start

    def slowdown(self, when: float) -> float:
        """Probe time around the moment ``when`` over the reference time."""
        i = bisect.bisect_right(self.starts, when)
        near = self.durations[max(0, i - 2) : i + 2]
        if not near:
            raise RuntimeError("no probe was timed")
        return statistics.median(near) / self.reference

    def scale(self, elapsed: float, when: float) -> float:
        return elapsed / self.slowdown(when)
