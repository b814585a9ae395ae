"""How fast the machine runs Python right now.

On a shared machine the same call can take twice as long from one second to
the next, as neighbours load the host.  The benchmark therefore runs a fixed
pure-Python task, which does not touch the package, every ``INTERVAL``
seconds between calls, and divides each call's latency by the slowness the
task measured around it, raised to ``EXPONENT``.  Times it reports are
seconds on a machine where the task takes ``REFERENCE_S``; the raw times are
in the run's report.

The task slows down more than the package's calls do when the machine is
busy, so slowness enters with an exponent below one.  On a 2-vCPU virtual
machine (Intel Xeon, 2.0 GHz, CPython 3.11), where the task's time ranged
from 1.6 to 4.0 ms within minutes, a log-log fit of 266 alternating calls of
enumerate_LE and count_Anu against the task's time gave slopes of 0.73 and
0.83.  Over five runs each of the catalogue, enumerate and solve workloads,
the quartile spread of the run medians of wall time was lowest with EXPONENT
between 0.6 and 0.8, against 6%, 44% and 15% with raw times; WINDOW = 0.5.
"""

from __future__ import annotations

import bisect
import statistics
import time

REFERENCE_S = 0.002
EXPONENT = 0.75
INTERVAL = 0.2
WINDOW = 0.5


def _task() -> int:
    acc: dict = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + len(sorted((i, i ^ 5, i * 7 % 11)))
    return len(acc)


def probe() -> float:
    """Seconds the task takes now: the median of three runs."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _task()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Probes:
    """Probe samples of one pass, taken at most every INTERVAL seconds."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.seconds: list[float] = []

    def maybe(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.at or now - self.at[-1] >= INTERVAL:
            self.seconds.append(probe())
            self.at.append(time.perf_counter())

    def slowness(self, start: float, end: float) -> float:
        """Median slowness of the probes within WINDOW of [start, end],
        raised to EXPONENT.

        Falls back to the nearest probe on each side when none is that close.
        """
        lo = bisect.bisect_left(self.at, start - WINDOW)
        hi = bisect.bisect_right(self.at, end + WINDOW)
        near = self.seconds[lo:hi]
        if not near:
            near = self.seconds[max(lo - 1, 0):hi + 1]
        return (statistics.median(near) / REFERENCE_S) ** EXPONENT
