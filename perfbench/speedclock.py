"""Work time scaled to a fixed core speed.

The benchmark's host shares its cores with other tenants, and the speed of
the core a worker runs on drifts by up to a factor of two within seconds.
A raw wall time therefore measures the neighbours as much as the program.
``SpeedClock`` measures that speed where the work runs: every
``INTERVAL_S`` a SIGALRM handler in the worker times a small fixed
calibration kernel (dict updates with Fraction sums, the same kind of work
as the program's), on the same core and between the program's own
bytecodes.  Each stretch of work between two samples is scaled by
``REFERENCE_S`` over the mean duration of the kernel at its two ends, so
``scaled_s`` is the time the work would take on a core where the kernel
runs in ``REFERENCE_S``.  The time spent in the kernel itself is left out of
both ``scaled_s`` and ``raw_s``.

A change to the program moves ``scaled_s`` like it moves the raw time; a
change in the host's speed moves both the work and the kernel, and cancels.
Set-up time is scaled the same way, by ``kernel_duration()`` read right after
the import.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
# the kernel's duration at the reference speed, in which scaled times are
# expressed: about its median duration inside a worker on the 2-core host the
# benchmark was tuned on, so that scaled and raw times are alike there
REFERENCE_S = 0.005
_ZERO = Fraction(0)


def calibration_kernel() -> int:
    acc = {}
    for i in range(1000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, _ZERO) + Fraction(i % 7 + 1, i % 5 + 1)
    return len(acc)


def kernel_duration(samples: int = 3) -> float:
    """The kernel's median duration over a few runs, after one to warm it."""
    calibration_kernel()
    durations = []
    for _ in range(samples):
        start = time.monotonic()
        calibration_kernel()
        durations.append(time.monotonic() - start)
    return sorted(durations)[samples // 2]


class SpeedClock:
    def __init__(self):
        self.scaled_s = 0.0
        self.raw_s = 0.0
        self.samples = 0
        self.kernel_s = 0.0
        self._last = 0.0
        self._mark = 0.0
        self._busy = False

    def _sample(self) -> None:
        """Close the stretch of work that ends now, with a fresh speed sample."""
        if self._busy:  # a tick that lands inside a sample
            return
        self._busy = True
        start = time.monotonic()
        calibration_kernel()
        end = time.monotonic()
        duration = end - start
        if self.samples:
            stretch = start - self._mark
            self.raw_s += stretch
            self.scaled_s += stretch * REFERENCE_S * 2.0 / (self._last + duration)
        self.samples += 1
        self.kernel_s += duration
        self._last, self._mark = duration, end
        self._busy = False

    def _tick(self, _signum, _frame) -> None:
        self._sample()

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self._sample()
