"""Host-speed probe: rescale host timings to a fixed reference speed.

On a shared cloud host a core can run 1.7x slower for ten to twenty
seconds at a time, each core on its own schedule, while other tenants
load the physical core under it (measured on a 2-CPU VM).  A timing
taken in a slow phase says more about the neighbours than about the
code.  So every timed phase interleaves a short fixed probe -- pure
Python written here, touching no ``repro`` code, so no change to the
program can speed it up -- and each step's host time is rescaled by how
much slower than :data:`REFERENCE_PROBE_S` the probes around it ran::

    rescaled = raw * REFERENCE_PROBE_S / probe_s

A rescaled time reads as "seconds this step would take when the probe
runs in :data:`REFERENCE_PROBE_S`".  Raw times are printed alongside.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import deque

#: Probe wall time that defines reference speed: the probe's time on an
#: uncontended core of a 2-CPU Python 3.11 host.
REFERENCE_PROBE_S = 0.00047

#: Probes whose median is the current speed estimate.
WINDOW = 7

#: Host time between interleaved probes (a probe costs about 1% of it).
PROBE_EVERY_S = 0.05


def probe_work(n: int = 8000) -> int:
    """Plain interpreter dispatch and integer arithmetic, no allocation.

    Under neighbour load on a 2-CPU host this slowed down by about as
    much as the simulator did (a probe that allocated objects and used a
    heap slowed down noticeably more).
    """
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


class HostSpeed:
    """Rolling estimate of this core's speed from interleaved probes."""

    def __init__(self) -> None:
        self.recent: deque = deque(maxlen=WINDOW)
        self._last = -float("inf")

    def probe(self, count: int = 1) -> None:
        clock = time.perf_counter
        # The collector's cost grows with the live heap, which would make
        # the probe read a big simulation as a slow host.
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                t0 = clock()
                probe_work()
                self.recent.append(clock() - t0)
        finally:
            if collecting:
                gc.enable()
        self._last = clock()

    def maybe_probe(self) -> None:
        """Probe if :data:`PROBE_EVERY_S` passed since the last probe."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def scale(self) -> float:
        """Factor turning a raw host time into a reference-speed time."""
        if not self.recent:
            self.probe(WINDOW)
        return REFERENCE_PROBE_S / statistics.median(self.recent)
