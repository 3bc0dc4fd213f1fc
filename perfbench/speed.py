"""Machine-speed probe that turns measured times into calibrated times.

A shared machine runs for seconds at a time at well under its usual
speed, in phases that can flip in the middle of an op. So, while a
:class:`SpeedProbe` is active, a ``SIGALRM`` handler runs a short fixed
loop every ``PERIOD_S``: once to warm the caches the interrupted code
left cold, and once more, timed. An interval's calibrated length is its
measured length, minus the handler's own time inside it, times
``NOMINAL_S`` over the loop time sampled around it: it reads as if the
loop had taken exactly ``NOMINAL_S`` throughout, which is about its time
on the reference machine (2-vCPU x86-64 VM, CPython 3.11) when idle.

The handler keeps the garbage collector off and frees all it allocates,
so sampling neither runs nor moves the program's collections.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

PERIOD_S = 0.01
NOMINAL_S = 100e-6
LOOP = 400


def _loop() -> int:
    table = {}
    for i in range(LOOP):
        table[(i % 97, i % 13)] = frozenset((i, i + 1))
    return len(table)


class SpeedProbe:
    """Samples the loop time while active; see the module docstring."""

    def __init__(self):
        self.ends: list[float] = []
        self.loop_s: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        entered = time.perf_counter()
        _loop()  # warms the caches the op left cold; only the rerun is timed
        started = time.perf_counter()
        _loop()
        ended = time.perf_counter()
        if collecting:
            gc.enable()
        self.ends.append(ended)
        self.loop_s.append(ended - started)
        self.spent += ended - entered

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def interval(self):
        """A stopwatch: call it to start, call the result to stop.

        Stopping returns ``(start, end, busy)``: the interval's ends and
        its length without the probe's own time.
        """
        spent, start = self.spent, time.perf_counter()

        def stop() -> tuple[float, float, float]:
            end = time.perf_counter()
            return start, end, end - start - (self.spent - spent)

        return stop

    def calibrated(self, start: float, end: float, busy: float) -> float:
        """``busy`` seconds between ``start`` and ``end``, at nominal speed.

        Uses the samples within one period of the interval, so call it once
        the probe has sampled past ``end`` (or has been stopped).
        """
        first = bisect.bisect_left(self.ends, start - PERIOD_S)
        last = bisect.bisect_right(self.ends, end + PERIOD_S)
        window = self.loop_s[first:last] or self.loop_s[max(0, first - 1):first + 1]
        return busy * NOMINAL_S * statistics.fmean(1 / s for s in window)

    def median_loop_ms(self) -> float:
        return statistics.median(self.loop_s) * 1e3 if self.loop_s else 0.0
