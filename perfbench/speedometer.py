"""Host-speed correction for the end-to-end timings.

On a shared host the speed of one Python thread swings by up to 2x for
seconds to minutes at a time (frequency changes, other tenants on the same
cores), and a 25-second run can land in either state.  The speedometer
samples that speed from inside the benchmark's own process: a timer signal
fires every ``PERIOD_S`` seconds and its handler runs a fixed pure-Python
kernel twice and takes the CPU time of the second, warm run (dense
matrix-vector products and sigmoids over lists, the same kind of work rnnp
does, but the benchmark's own code, so that no change to rnnp changes the
kernel).  CPU time, not wall time, so that a program that keeps every core
busy with its own processes does not slow the kernel by time-slicing and
so flatter itself.

``seconds(t0, t1)`` turns a wall-clock interval into *reference seconds*:
each stretch between ticks is divided by the kernel time measured around
it (median of the nearest five ticks) and multiplied by ``REF_KERNEL_S``.
The handler's own time is left out of the interval.  A reference second
is the wall second of a host on which the kernel takes ``REF_KERNEL_S``.
"""

from __future__ import annotations

import bisect
import math
import signal
import time
from array import array
from statistics import median

clock = time.perf_counter

PERIOD_S = 0.05
# One reference second is 10,000 warm kernel runs.  On the 2-vCPU x86-64
# host this benchmark was built on (CPython 3.11) that is close to a wall
# second in the host's fastest state.
REF_KERNEL_S = 100e-6
SMOOTH = 5

_N = 16
_DATA = [((i * 7) % 11 - 5) * 0.05 for i in range(_N * _N)]
_X0 = [0.1 * (i % 5) for i in range(_N)]


def kernel() -> list:
    """Six 16x16 matrix-vector products, each followed by a sigmoid."""
    x = _X0
    for _ in range(6):
        out = []
        for r in range(_N):
            acc = 0.0
            base = r * _N
            for c in range(_N):
                acc += _DATA[base + c] * x[c]
            out.append(1.0 / (1.0 + math.exp(-acc)))
        x = out
    return x


class Speedometer:
    """Samples the kernel time on a timer signal between start and stop."""

    def __init__(self) -> None:
        self.starts: list = []
        self.ends: list = []
        self.durations: list = []
        self._ref: list = []

    def _tick(self, signum, frame) -> None:
        t0 = clock()
        kernel()  # warm-up: the first run after the program's work is cold
        c0 = time.thread_time()
        kernel()
        c1 = time.thread_time()
        self.starts.append(t0)
        self.ends.append(clock())
        self.durations.append(c1 - c0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        durations = self.durations
        n = len(durations)
        self._ref = []
        for i in range(n):
            lo = max(0, min(i - SMOOTH // 2, n - SMOOTH))
            self._ref.append(median(durations[lo : lo + SMOOTH]))

    def ticks(self) -> int:
        return len(self.starts)

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the wall interval [t0, t1], ticks excluded."""
        starts, ends, ref = self.starts, self.ends, self._ref
        if not ref:
            return t1 - t0
        j = bisect.bisect_left(starts, t0)
        total, t = 0.0, t0
        while j < len(starts) and starts[j] < t1:
            total += (starts[j] - t) / ref[j]
            t = min(ends[j], t1)
            j += 1
        total += max(0.0, t1 - t) / ref[min(j, len(ref) - 1)]
        return total * REF_KERNEL_S


class Intervals:
    """Wall-clock intervals ``(t0, t1)`` kept in two float arrays.

    For the tens of thousands of calls a job times, so that the run's peak
    memory does not grow with the number of jobs it fits in.
    """

    __slots__ = ("starts", "ends")

    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")

    def add(self, t0: float, t1: float) -> None:
        self.starts.append(t0)
        self.ends.append(t1)

    def __len__(self) -> int:
        return len(self.starts)

    def __iter__(self):
        return zip(self.starts, self.ends)
