"""Host-speed sampling, to take a shared machine's load out of timings.

On a host shared with other tenants the speed of a core swings by up to
2x within seconds, and different kinds of code (interpreter loops,
complex arithmetic, numpy) slow by nearly the same factor at the same
moment: over 0.1 s slices their log speeds correlate at 0.93-0.97.  A
short fixed loop of complex arithmetic, like the orbit recursions the
package runs, is timed every ``interval`` seconds from a SIGALRM handler
while a region runs; the region's duration is then expressed in seconds
of a host running at a fixed reference speed.  On a shared 2-vCPU VM,
repeated runs of one workload spread 3-10x less this way than their
wall times do.

Each slice of time between two samples, less the probes in it, is scaled
by ``REFERENCE_PROBE_S / d`` for the probe duration ``d`` that closes it;
time before the first sample is scaled by the first.  Handlers run
between bytecodes, so a long call into compiled code delays a sample;
the slice it closes is then longer, which the weighting by slice length
accounts for.
"""

from __future__ import annotations

import cmath
import math
import signal
import time

PROBE_STEPS = 600
# The probe's duration at the reference speed: its median on a 2-vCPU
# x86-64 VM with CPython 3.11 at a quiet moment, so reference seconds
# read close to wall seconds on that machine when nothing else runs.
REFERENCE_PROBE_S = 2.4e-4


def probe() -> float:
    """Seconds taken by the fixed calibration loop."""
    t0 = time.monotonic()
    z, acc = complex(0.3, 0.1), 0.0
    for _ in range(PROBE_STEPS):
        w = cmath.sqrt(z + 0.25)
        z = w if w.real > 0 else -w
        acc += math.log(abs(2 * z) + 1.0)
    return time.monotonic() - t0


class Sampler:
    """Samples host speed from ``start`` to ``stop``, on the
    ``time.monotonic`` clock, which child and parent processes share."""

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []  # (end time, probe duration)
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        d = probe()
        self.samples.append((time.monotonic(), d))

    def start(self) -> None:
        self.samples.clear()
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def reference_s(self, t_a: float, t_b: float) -> float:
        """Duration of [t_a, t_b], without the probes, in reference seconds."""
        total, t_prev = 0.0, -math.inf
        for t_end, d in self.samples:
            lo, hi = max(t_prev, t_a), min(t_end - d, t_b)
            if hi > lo:
                total += (hi - lo) * REFERENCE_PROBE_S / d
            t_prev = t_end
        return total

    def wall_s(self, t_a: float, t_b: float) -> float:
        """Duration of [t_a, t_b] without the probes, in wall seconds."""
        probes = sum(max(0.0, min(t, t_b) - max(t - d, t_a)) for t, d in self.samples)
        return t_b - t_a - probes

    def median_probe_s(self) -> float:
        ds = sorted(d for _, d in self.samples)
        return ds[len(ds) // 2]
