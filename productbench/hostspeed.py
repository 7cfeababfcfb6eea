"""Host-speed normalization.

On a shared host each CPU runs in slow episodes, about two thirds of
its usual speed for a tenth of a second up to seconds at a time, and
the two CPUs of a 2-core host do so independently.  The same pinned
``analyze_paper`` pass took 8.8 s in one run and 16.3 s in another;
no bound can gate a metric that moves that much with the neighbours.

So the benchmark runs on one CPU (see :func:`one_cpu`) and a
background thread on that CPU times a fixed unit of interpreter work
every ``INTERVAL_S``, by its own thread CPU time, which waiting for the
CPU or the interpreter lock does not inflate.  A measured interval is
converted to reference-speed time by the mean of ``(REFERENCE_S / unit
time) ** EXPONENT`` over the probes taken inside it: the time the same
work would have taken had the CPU run at the reference speed throughout.

The unit is a loop that stays in the first-level cache, so a slow
episode slows it less than the workloads, which touch far more memory.
Over interleaved passes of all four workloads on a 2-core host (raw
pass times spread 7-25 %), scaling by the probe's speed ratio itself
left 2.5-7.5 % of spread; raised to the power 1.5 it left 1.7-4 %.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import statistics
import threading
import time
from typing import Iterator, List, Optional

#: unit time, in seconds, at the reference speed (a fast episode of one
#: x86-64 CPU of a 2-core host); only ratios between runs matter
REFERENCE_S = 0.0004
#: how much more than the probe the workloads slow in a slow episode
EXPONENT = 1.5
#: seconds between probes
INTERVAL_S = 0.05


@contextlib.contextmanager
def one_cpu() -> Iterator[int]:
    """Restrict this process (and the children it starts) to the lowest
    CPU it may use, so the probe thread sees the CPU the work runs on;
    the previous affinity is restored on exit."""
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    try:
        yield cpu
    finally:
        os.sched_setaffinity(0, allowed)


def _unit() -> None:
    total = 0
    for i in range(10_000):
        total += i


class HostSpeed:
    """Probe samples taken on a background thread while it runs."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.units: List[float] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "HostSpeed":
        self._thread = threading.Thread(
            target=self._probe, name="hostspeed", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def _probe(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            cpu = time.thread_time()
            _unit()
            unit = time.thread_time() - cpu
            # Readers pair the common prefix of the two lists.
            self.units.append(unit)
            self.times.append(time.perf_counter())

    def factor(self, start: float, end: float) -> float:
        """Mean ``(REFERENCE_S / unit time) ** EXPONENT`` of the probes
        in ``[start, end]``; the nearest probe's when none fell inside."""
        n = min(len(self.times), len(self.units))
        times, units = self.times[:n], self.units[:n]
        if not times:
            raise RuntimeError("no host-speed probe has run yet")
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        if lo == hi:
            near = min(
                (i for i in (lo - 1, lo) if 0 <= i < n),
                key=lambda i: abs(times[i] - start),
            )
            return (REFERENCE_S / units[near]) ** EXPONENT
        return statistics.fmean(
            (REFERENCE_S / u) ** EXPONENT for u in units[lo:hi]
        )

    def normalize(self, start: float, duration: float) -> float:
        """``duration`` seconds from ``start``, at reference speed."""
        return duration * self.factor(start, start + duration)
