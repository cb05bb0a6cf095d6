"""Seconds measured on a shared host, scaled to one reference speed.

On a small shared VM the speed of a core moves by tens of percent from
one minute to the next, and its two vCPUs can differ by half.  So the
benchmark runs on one CPU (`pin`), and between operations it times a
fixed piece of pure Python, the probe, which touches nothing of
combterp.  The work between two probes is a segment; every second
measured inside a segment is multiplied by REFERENCE_S over the mean of
the probe times at the segment's two ends.  A figure is thus the time
the work would take at the speed at which the probe takes REFERENCE_S.

The probe allocates no container and runs with the cyclic collector
off, so what the program leaves on the heap cannot slow it.
"""
from __future__ import annotations

import gc
import os
import resource
from time import perf_counter

REFERENCE_S = 0.004  # the probe's time at the reference speed
EVERY_S = 0.1        # the shortest segment: at most one probe per 0.1 s of work
_DEPTH, _LOOPS = 100, 375


def pin() -> None:
    """Keep this process and the threads it starts on its lowest allowed CPU."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # no affinity calls on this platform
        pass


def _spin(n: int) -> int:
    return n if n < 2 else (_spin(n - 1) + n) & 0xFFFF


def probe() -> float:
    """Seconds the probe takes now."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(_LOOPS):
            _spin(_DEPTH)
        return perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()


def cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


class Clock:
    """Scaled seconds of one round, gathered segment by segment.

    `add` holds a measured duration until the segment closes; `mark`,
    called between operations, closes it once EVERY_S has passed (or when
    forced, at the end of a round) and adds the scaled durations, and the
    segment's scaled wall and CPU time, to their totals.
    """

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self._pending = []
        self._probe = probe()
        self._t0, self._c0 = perf_counter(), cpu_s()

    def add(self, into: dict, key, seconds: float) -> None:
        self._pending.append((into, key, seconds))

    def mark(self, force: bool = False) -> None:
        wall = perf_counter() - self._t0
        if wall < EVERY_S and not force:
            return
        cpu = cpu_s() - self._c0
        now = probe()
        scale = REFERENCE_S / ((self._probe + now) / 2)
        self.wall += wall * scale
        self.cpu += cpu * scale
        for into, key, seconds in self._pending:
            into[key] = into.get(key, 0.0) + seconds * scale
        self._pending.clear()
        self._probe = now
        self._t0, self._c0 = perf_counter(), cpu_s()
