"""Host-speed sampling, so that times from different runs compare.

On a shared virtual machine the same code runs a third slower or more for
seconds or minutes at a time, depending on what the host's other tenants
do. A fixed calibration kernel (an interpreter loop and a few small dense
solves, the same mix as briberace's own work) is timed every
SAMPLE_INTERVAL_S of wall time from a SIGALRM handler, in this thread, for
the whole measured part of a run. An interval's host factor is
NOMINAL_SAMPLE_S divided by the mean sample time around it; multiplying a
measured time by it gives the time at the nominal host speed. The handler's
own time is subtracted from the operations it interrupts.
"""
from __future__ import annotations

import bisect
import signal
from itertools import accumulate
from time import perf_counter

import numpy as np

SAMPLE_INTERVAL_S = 0.05
NOMINAL_SAMPLE_S = 6.5e-4  # kernel time, as sampled, at the reference host speed
WINDOW_S = 1.0  # samples within this distance of an interval count for it

_MATRIX = np.eye(24) * 4.0 - np.eye(24, k=1) - np.eye(24, k=-1)
_RHS = np.ones(24)


def calibration_kernel() -> float:
    total = 0.0
    for i in range(6000):
        total += i * 0.5
    for _ in range(24):
        total += float(np.linalg.solve(_MATRIX, _RHS)[0])
    return total


def spot_factor(samples: int = 10) -> float:
    """Host factor from kernel runs made now, in this thread; for intervals
    spent waiting on a child process, where the timer cannot sample."""
    t0 = perf_counter()
    for _ in range(samples):
        calibration_kernel()
    return NOMINAL_SAMPLE_S * samples / (perf_counter() - t0)


class HostClock:
    """Samples the calibration kernel on a wall-clock timer while started."""

    def __init__(self) -> None:
        self.at: list[float] = []  # sample midpoints
        self.took: list[float] = []
        self.spent = 0.0  # total time spent in the handler
        self._prefix = [0.0]  # prefix sums of took, rebuilt when samples arrive

    def __enter__(self) -> "HostClock":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        calibration_kernel()
        t1 = perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.took.append(t1 - t0)
        self.spent += t1 - t0

    def factor(self, start: float, end: float) -> float:
        """Host factor for the interval [start, end]: nominal over the mean
        sample time within WINDOW_S of it (1.0 when no sample is near)."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if hi <= lo:
            return 1.0
        return NOMINAL_SAMPLE_S * (hi - lo) / self._sum(lo, hi)

    def _sum(self, lo: int, hi: int) -> float:
        if len(self._prefix) != len(self.took) + 1:
            self._prefix = [0.0, *accumulate(self.took)]
        return self._prefix[hi] - self._prefix[lo]

    def summary(self) -> dict[str, float]:
        took = sorted(self.took)
        if not took:
            return {"samples": 0}
        return {"samples": len(took), "mean_s": sum(took) / len(took),
                "p10_s": took[len(took) // 10], "p90_s": took[(9 * len(took)) // 10]}
