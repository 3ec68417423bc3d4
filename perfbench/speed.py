"""Machine-speed gauge: a fixed reference kernel, timed between the measured
work, used to rescale the benchmark's timings to one reference speed.

The 2-vCPU machine this benchmark was tuned on changes speed by up to 1.7x
in phases of seconds to minutes, with ``process_time`` equal to wall time
(the process is slowed, not descheduled). Phases often span a whole run, so
no estimator over the run's own samples removes them. Timing a kernel that
never changes, interleaved with the work, measures the phase the work ran
in. A timing is reported as ``raw x KERNEL_REFERENCE_S / kernel time``, with
the kernel timed around that very span: the time the same work would have
taken at the reference speed.

The kernel is fixed benchmark code, so a change to fdp moves only the raw
time and shows in full. Each workload names the kernel whose speed tracks
its own: ``small`` is small-matrix numpy calls, like the overhead-bound
24x24 policy; ``small+blas`` adds 256x256 single-thread BLAS products, like
the CLI default policy. On the tuning machine, log round time against log
kernel time had a slope of 1.0 to 1.25 (``small``, eval-small rounds) and
1.03 (``small+blas``, adapt-cli rounds), so a plain ratio removes most of
the phases.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

# Median kernel times on the reference machine (2 vCPUs of an Intel Xeon,
# Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31 on one thread).
KERNEL_REFERENCE_S = {"small": 0.68e-3, "small+blas": 0.9e-3}
# Wall time between kernel runs; each costs under a millisecond.
PERIOD_S = 0.025
# A span is rescaled by the kernel runs within WINDOW_S of it, at least
# MIN_SAMPLES of them: the speed phases last seconds or more.
WINDOW_S = 1.0
MIN_SAMPLES = 20

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((8, 32))
_W1 = _rng.standard_normal((32, 24)) / 6
_W2 = _rng.standard_normal((24, 24)) / 5
_XB = _rng.standard_normal((32, 256))
_B = _rng.standard_normal((256, 256)) / 16


def kernel(name: str) -> float:
    """Run the named reference kernel once; return its wall time in seconds."""
    blas = name == "small+blas"
    t0 = perf_counter()
    for _ in range(40 if blas else 80):
        h = np.tanh(np.tanh(_X @ _W1) @ _W2)
        if not np.isfinite(h).all():
            raise FloatingPointError("reference kernel overflowed")
    if blas:
        h = _XB
        for _ in range(4):
            h = np.tanh(h @ _B)
    return perf_counter() - t0


class Gauge:
    """Runs the kernel at most once per PERIOD_S when ticked, and keeps a
    work clock that excludes the time spent in it. Every kernel time is kept
    with the work-clock time it ran at, for the whole run."""

    def __init__(self, kernel_name: str):
        self.kernel_name = kernel_name
        self.reference_s = KERNEL_REFERENCE_S[kernel_name]
        self.spent = 0.0  # seconds spent in the kernel so far
        self.stamps: list[float] = []  # work-clock time of each kernel run
        self.samples: list[float] = []  # its duration
        self._next = 0.0

    def clock(self) -> float:
        return perf_counter() - self.spent

    def tick(self, force: bool = False) -> None:
        now = perf_counter()
        if not force and now < self._next:
            return
        self.stamps.append(now - self.spent)
        self.samples.append(kernel(self.kernel_name))
        end = perf_counter()
        self.spent += end - now
        self._next = end + PERIOD_S

    def scale(self, t0: float, t1: float) -> float:
        """The factor that turns work done between work-clock times t0 and
        t1 into reference-speed time: the reference kernel time over the
        trimmed mean of the kernel times within WINDOW_S of that span
        (widened to the MIN_SAMPLES nearest when there are fewer)."""
        if not self.samples:
            self.tick(force=True)
        lo = bisect_left(self.stamps, t0 - WINDOW_S)
        hi = bisect_right(self.stamps, t1 + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.stamps)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.stamps))
        near = sorted(self.samples[lo:hi])
        cut = len(near) // 10
        kept = near[cut : len(near) - cut]
        return self.reference_s * len(kept) / sum(kept)


class WallClock:
    """The Gauge interface without the kernel: raw time, scale 1. Used for
    traced runs, whose per-layer times are reported raw."""

    spent = 0.0

    def clock(self) -> float:
        return perf_counter()

    def tick(self, force: bool = False) -> None:
        pass

    def scale(self, t0: float, t1: float) -> float:
        return 1.0
