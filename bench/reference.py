"""A fixed reference computation that measures how fast the host runs now.

On a shared host the speed of one thread can change by a factor of two, for
stretches of milliseconds to minutes, as other tenants come and go.  The
benchmark therefore reports every timed region in *reference seconds*: the
time the region would take on a host where one reference computation takes
exactly 1 ms.  ``Pace.timed`` runs the computation right before and after the
region and, from a timer signal, every ``TICK_S`` inside it; each stretch of
the region between two samples is divided by the mean reference time of the
two.  The samples' own time is left out of the region's.  On the
shared 2-vCPU x86-64 VM the bounds were set on, one reference computation
took about 1.0 ms in the host's fast phases and 1.8 ms in its slow ones, so
reference milliseconds read close to wall milliseconds on a quiet host.

The computation does what lhamc's hot loops do (exact ``Fraction`` steps,
tuple-keyed dict inserts, f-string formatting) in pure Python and the standard
library, so a host slow-down hits it as it hits the program.  It never imports
lhamc and never changes, so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter
from typing import Any, Callable, TypeVar

T = TypeVar("T")

ROUNDS = 300
SAMPLES = 5
TICK_S = 0.05
REFERENCE_S = 1e-3  # what one reference computation takes, by definition


def _once() -> int:
    seen: dict[tuple[int, Fraction], str] = {}
    x = Fraction(0)
    for i in range(ROUNDS):
        x = x + Fraction(i % 17, 10)
        seen[i % 50, x] = f"{x},{i}"
    return len(seen)


def reference_s() -> float:
    """Seconds one reference computation takes now (the median of a few)."""
    times = []
    for _ in range(SAMPLES):
        start = perf_counter()
        _once()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Pace:
    """Samples of the reference computation around and inside timed regions."""

    def __init__(self) -> None:
        self.last = reference_s()  # seconds of the latest sample
        self._ticks: list[tuple[float, float]] = []

    def _tick(self, signum: int, frame: Any) -> None:
        # The region's own allocations decide when it collects garbage.
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        _once()
        self._ticks.append((start, perf_counter()))
        if enabled:
            gc.enable()

    def timed(self, region: Callable[[], T]) -> tuple[T, float, float]:
        """Run ``region``; return its result, its wall seconds and its
        reference seconds, both without the samples taken inside it.  Each
        stretch between two samples runs at the mean pace of the two."""
        before = reference_s()
        self._ticks = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        try:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
            start = perf_counter()
            result = region()
            end = perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.last = reference_s()
        # (start, end, seconds) of each sample, the stretches lying between
        samples = [(start, start, before)]
        samples += [(a, b, b - a) for a, b in self._ticks if a < end]
        samples.append((end, end, self.last))
        wall = reference = 0.0
        for (_, since, pace), (until, _, next_pace) in zip(samples, samples[1:]):
            wall += until - since
            reference += (until - since) * REFERENCE_S * 2 / (pace + next_pace)
        return result, wall, reference
