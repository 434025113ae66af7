"""Host speed, sampled by a fixed probe, to put times from a shared host on one scale.

On a shared virtual machine other tenants slow the CPU by up to 1.8x, in
bursts that last from under a second to minutes; the guest sees neither
steal time nor a busy run queue, and process CPU time slows with wall time.
A fixed probe of exact rational arithmetic, the same kind of work the program
does, slows by the same factor.  While a run measures, a timer interrupts
the client every INTERVAL_S seconds and times one probe.  A piece of work is
scaled by REFERENCE_PROBE_S over the mean probe time sampled while it ran,
after the probes' own time is taken out of its wall time: the result is
the time the work would have taken at the reference speed.  The slowest
fifth of the probes is left out of the mean: a probe that the host stops
for a few milliseconds would charge that stop to the whole interval.

On the reference host, over 14 runs of each certify-det command in a slow
phase (median probe 1.55 ms), the quartiles of a command's wall time were
0.26-0.34 of its median apart and the slowest run 1.6-1.7x the fastest;
scaled, 0.02-0.04 and 1.06-1.19x.

Only timings are scaled; what runs is not.  The probe does not call the
program, so no change to the program can change the probe.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# Median probe time on the reference host: 2 vCPU Intel Xeon virtual
# machine, Python 3.11.7, fractions.Fraction (no gmpy2).
REFERENCE_PROBE_S = 0.0009
INTERVAL_S = 0.1


def probe() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, i + 1)
    return acc


class HostSampler:
    """While active, times one probe every INTERVAL_S seconds of wall time.

    The cyclic collector is off while the probe runs, so that the size of the
    program's heap does not weigh on it; the probe makes no cycles.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._old_handler = None

    def _sample(self, _signum, _frame):
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        probe()
        self.samples.append((t0, time.perf_counter() - t0))
        if enabled:
            gc.enable()

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """(wall seconds without the probes, seconds at the reference speed) of work in [start, end).

        The probes sampled in [start - INTERVAL_S, end) give the speed, so a
        piece shorter than the interval still has one.
        """
        inside = [s for t, s in self.samples if start <= t < end]
        near = sorted(s for t, s in self.samples if start - INTERVAL_S <= t < end) or [self.samples[-1][1]]
        kept = near[: len(near) - len(near) // 5]
        net = end - start - sum(inside)
        return net, net * REFERENCE_PROBE_S * len(kept) / sum(kept)

    def median_probe_s(self) -> float:
        return sorted(s for _, s in self.samples)[len(self.samples) // 2]
