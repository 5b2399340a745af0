"""Scale measured times to a reference machine speed.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within a minute, for every process on them alike.  A `Speedometer` samples
that speed while the benchmark runs: every PERIOD_S seconds a timer signal
runs one fixed calibration chunk -- Fraction arithmetic, dict updates and
small numpy row operations, the kinds of work `mnhd` does, using no `mnhd`
code -- in the main thread, between two bytecodes of whatever is running,
and records how fast the chunk ran.  A timed region's wall time, less the
time its samples took, is then scaled by the mean sampled speed over the
region: it reads in seconds on a machine where one chunk takes REFERENCE_S.
A change to `mnhd` moves a scaled time; a change of host speed mostly does
not.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np

REFERENCE_S = 0.001
PERIOD_S = 0.025
# A region with fewer samples inside it is scaled by this many samples
# nearest to it in time.
MIN_SAMPLES = 24

_M = np.linspace(0.0, 1.0, 40 * 40).reshape(40, 40)


def _chunk() -> float:
    acc = Fraction(0)
    table = {}
    for i in range(1, 100):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
        table[i % 97] = acc.numerator % 1009
    A = _M.copy()
    for p in range(12):
        rp, rq = A[p, :].copy(), A[p + 1, :].copy()
        A[p, :] = 0.6 * rp - 0.8 * rq
        A[p + 1, :] = 0.8 * rp + 0.6 * rq
    A = np.einsum("ij,jk->ik", A, _M) / 40.0
    return float(A[0, 0]) + len(table)


class Speedometer:
    """Samples of host speed, as REFERENCE_S over the chunk's time, each
    stamped with the perf_counter time it ended."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.speeds: list[float] = []
        self.spent = 0.0  # seconds spent running samples
        self._previous = None

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        _chunk()
        end = time.perf_counter()
        self.stamps.append(end)
        self.speeds.append(REFERENCE_S / (end - start))
        self.spent += end - start

    def sample_for(self, seconds: float) -> None:
        """Sample back to back, for a region the timer does not cover."""
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.sample()

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float, busy: float) -> float:
        """`busy` seconds of work done between perf_counter times start and
        end, in seconds at reference speed: times the mean sampled speed over
        [start, end], or near it when fewer than MIN_SAMPLES fall inside."""
        lo, hi = bisect_left(self.stamps, start), bisect_right(self.stamps, end)
        chosen = range(lo, hi)
        if len(chosen) < MIN_SAMPLES:
            mid = (start + end) / 2.0
            at = bisect_left(self.stamps, mid)
            window = range(max(0, at - MIN_SAMPLES),
                           min(len(self.stamps), at + MIN_SAMPLES))
            chosen = sorted(window, key=lambda i: abs(self.stamps[i] - mid))
            chosen = chosen[:MIN_SAMPLES]
        return busy * statistics.fmean(self.speeds[i] for i in chosen)
