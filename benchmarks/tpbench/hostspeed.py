"""Host-speed calibration: reference-host seconds instead of wall seconds.

The sandbox this benchmark is run in has two CPU speed states about 1.5x
apart (a co-tenant on the sibling hyper-thread comes and goes), each lasting
from a fraction of a second to minutes.  Wall-clock medians of identical
runs therefore differ by 15-30 %, several times the regression bounds, and
CPU time moves with wall time, so it is no way out.

So every timed region is bracketed by a fixed pure-Python kernel, and its
duration is divided by ``kernel time / REFERENCE_MS``: times are reported in
seconds of a reference host on which the kernel takes ``REFERENCE_MS``.
Measured here, that takes the run-to-run spread of a 20-pass median from
11-22 % to 3-4 %.  The kernel and ``REFERENCE_MS`` are part of the metric
definitions: changing either changes every timed metric.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from typing import Callable, List, Optional

#: Kernel time on the reference host, milliseconds.
REFERENCE_MS = 25.0
#: A sample this recent (seconds) is reused instead of taking another.
FRESH = 0.005


def kernel_ms() -> float:
    """The calibration kernel: integer arithmetic and dict stores, no allocation
    the program under test could influence."""
    started = time.perf_counter()
    total = 0
    table = {}
    for index in range(200_000):
        total += (index * 2654435761) % 1013
        table[index & 1023] = total
    return 1000.0 * (time.perf_counter() - started)


class HostSpeed:
    """Kernel readings over time, and the speed factor of any interval."""

    def __init__(self, on_sample: Optional[Callable[[float], None]] = None) -> None:
        self.times: List[float] = []
        self.readings: List[float] = []
        #: Called with the seconds each sample took (spans subtract it).
        self.on_sample = on_sample

    def sample(self, reuse_fresh: bool = False) -> float:
        now = time.perf_counter()
        if reuse_fresh and self.times and now - self.times[-1] < FRESH:
            return self.readings[-1]
        reading = kernel_ms()
        self.times.append(time.perf_counter())
        self.readings.append(reading)
        if self.on_sample is not None:
            self.on_sample(reading / 1000.0)
        return reading

    def factor(self, start: float, end: float) -> float:
        """How slow the host ran over ``[start, end]`` against the reference.

        The mean of the last reading before the interval, every reading
        inside it and the first one after it, over ``REFERENCE_MS``.
        """
        if not self.readings:
            raise ValueError("no calibration sample taken")
        first = max(0, bisect_left(self.times, start) - 1)
        last = min(len(self.times), bisect_right(self.times, end) + 1)
        window = self.readings[first:last]
        return sum(window) / len(window) / REFERENCE_MS

    def mean_ms(self) -> float:
        return sum(self.readings) / len(self.readings)
