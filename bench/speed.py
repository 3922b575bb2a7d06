"""Run times corrected for the measuring machine's changing speed.

On a shared host a vCPU alternates, every few milliseconds, between an
uncontended speed and a contended one about 1.5x slower, and the share of
contended time drifts from minute to minute.  A wall time therefore mixes
the program's cost with the neighbours' load.  ``Probe`` measures that load
from inside the measured process: a timer signal every ``INTERVAL`` seconds
runs a fixed loop and records how long it took, so the samples come from
the same vCPU at the same moments as the work being timed.  On a 2-vCPU VM
the samples of two processes, one per vCPU, did not correlate, which is why
the probe cannot run in a process of its own.

A timed region's slowdown (``factors``) is the mean of its samples, capped,
divided by ``REFERENCE_S``; dividing the region's wall time by it gives the
time it would have taken with the probe loop at ``REFERENCE_S``.  The probe
costs about 0.5% of the region.
"""

from __future__ import annotations

import signal
from statistics import mean, median
from time import perf_counter

INTERVAL = 0.005        # seconds between samples
CAP = 2.0               # see factors
# The probe loop's uncontended time on the Xeon (2.1 GHz) 2-vCPU VM the
# baseline was measured on: its fast-mode samples had a median of 16.4 us.
REFERENCE_S = 16e-6


class Probe:
    """Samples this process's speed from a timer signal while it runs."""

    def __init__(self):
        self.samples = []
        self._table = dict.fromkeys(range(32), 0)

    def _handler(self, signum, frame):
        # The loop allocates no container, so it cannot set off a garbage
        # collection of the program's heap and time that instead.
        d = self._table
        t0 = perf_counter()
        for i in range(200):
            d[i & 31] ^= i
        self.samples.append(perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def factors(sample_lists) -> list[float]:
    """Slowdown of each timed region against ``REFERENCE_S``.

    Each sample counts at most ``CAP`` times the median of all the regions'
    samples.  A longer one is a stall, such as the vCPU being descheduled
    for milliseconds, that costs the region only its own length; uncapped,
    one 7.6 ms stall among 600 samples of 20 us tripled a region's factor.
    A region too short to hold a sample takes the mean of all the regions'
    capped samples; with no samples at all, every factor is 1.
    """
    pooled = [x for s in sample_lists for x in s]
    if not pooled:
        return [1.0 for _ in sample_lists]
    cap = CAP * median(pooled)
    fallback = mean(min(x, cap) for x in pooled)
    return [(mean(min(x, cap) for x in s) if s else fallback) / REFERENCE_S
            for s in sample_lists]
