"""Work time in reference seconds, corrected for load from outside.

The machine this benchmark runs on is shared: other tenants' load slows
a core by up to a factor of two for seconds to minutes, while this
process still runs the whole time (no steal time shows).  Raw wall times
of one workload then spread by 20-35 % between runs, far more than the
changes the benchmark has to resolve.

``SpeedSampler`` measures the slowdown while the work runs.  Every
``INTERVAL_S`` a ``SIGALRM`` handler runs ``kernel()``, a fixed
pure-Python loop on small frozen-dataclass matrices (the same kind of
code as monocat's exact kernel), with the garbage collector off, so
that collections the program's heap needs are charged to the program,
and records its duration.  The time between two samples counts
``REFERENCE_S / d`` times, where ``d`` is the median duration of the
four samples around it (two on each side, so one disturbed sample does
not rescale a whole gap): the seconds it would have taken on a core
where the kernel takes ``REFERENCE_S``.  The samples' own time is
excluded.  Reference seconds are proportional to seconds on an
unloaded core (on the reference machine one is about 1.1 s of unloaded
wall time); under load the correction cut the spread
of ``functor-wide`` from 0.21 to 0.03 of the median (20 processes,
2-vCPU x86_64 VM, Python 3.11.7).  The loop does not touch monocat, so
a change to the program moves reference seconds as it moves real ones.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from dataclasses import dataclass

INTERVAL_S = 0.1
# kernel() on an unloaded core of the reference machine (2-vCPU x86_64
# VM, Python 3.11.7): the least of 200 runs
REFERENCE_S = 0.00176


@dataclass(frozen=True)
class _Entry:
    v: int


def kernel(reps: int = 8, n: int = 12):
    """Fixed work: ``reps`` products of n×n matrices of boxed residues."""
    a = tuple(tuple(_Entry((i * 7 + j * 3) % 5 + 1) for j in range(n))
              for i in range(n))
    for _ in range(reps):
        raw = [[e.v for e in row] for row in a]
        cols = list(zip(*raw))
        a = tuple(tuple(_Entry(sum(x * y for x, y in zip(r, c)) % 5 + 1)
                        for c in cols) for r in raw)
    return a


class SpeedSampler:
    """Samples the core's speed during a stretch of work."""

    def __init__(self):
        self.ticks = []          # (start, end) of each kernel run
        self._previous = None

    def _sample(self, *_):
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        self.ticks.append((t0, time.perf_counter()))
        if enabled:
            gc.enable()

    def start(self) -> float:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return time.perf_counter()

    def stop(self) -> float:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return end

    def reference_clock(self):
        """R(t): reference seconds of work from the first sample to the
        ``time.perf_counter()`` value t.  Each gap between samples counts
        at the median speed of the four samples around it; samples
        count 0."""
        durations = [t1 - t0 for t0, t1 in self.ticks]
        gaps, cum, total = [], [], 0.0
        for i, ((_, gap_start), (t0, _)) in enumerate(
                zip(self.ticks, self.ticks[1:])):
            d = statistics.median(durations[max(i - 1, 0):i + 3])
            gaps.append((gap_start, t0, REFERENCE_S / d))
            cum.append(total)
            total += (t0 - gap_start) * gaps[-1][2]
        gap_starts = [g[0] for g in gaps]

        def clock(t: float) -> float:
            i = bisect.bisect_right(gap_starts, t) - 1
            if i < 0:
                return 0.0
            gap_start, gap_end, factor = gaps[i]
            return cum[i] + (min(t, gap_end) - gap_start) * factor
        return clock
