"""How fast the machine runs right now, sampled while a pass runs.

The small shared machines this benchmark runs on change speed by up to 2x,
over periods from a fraction of a second to minutes: pure-Python loops,
small numpy calls and BLAS all slow together, and CPU time slows with wall
time.  A fixed reference kernel, run many times inside each timed pass,
samples that speed every PERIOD_S.  Each stretch of a pass between two
samples is divided by the median of the nearby kernel times and multiplied
by REF_KERNEL_S, which reports it as it would read on a machine where the
kernel takes REF_KERNEL_S.

The kernel is the benchmark's own code and does not touch the library, so
a change to the library moves the rescaled times as it moves the raw ones.
The time the samples take is left out of the pass's times.  The kernel runs with the garbage collector off, so the program's
heap does not change its cost.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# Rescaled times read as on a machine where kernel() takes this long.  On
# the 2-vCPU baseline machine it took 0.6 ms in fast periods and 1.4 ms in
# slow ones.
REF_KERNEL_S = 1.0e-3
# Seconds between two kernel samples inside a pass.
PERIOD_S = 0.02
# The machine's speed changes within 100 ms: each stretch of a pass is
# rescaled by the median of the LOCAL samples nearest to it.
LOCAL = 5

_A3 = np.eye(3) + 0.1
_B3 = np.ones(3)
_A60 = np.random.default_rng(0).normal(size=(60, 60))
_A60 = _A60 @ _A60.T + 60.0 * np.eye(60)


def kernel() -> float:
    """The reference work, in the program's proportions: interpreter
    arithmetic, small numpy calls, dict and tuple traffic, one small
    Cholesky factorization."""
    s = 0
    for i in range(4000):
        s += i * i % 7
    for _ in range(60):
        c = _A3 @ _B3
        s += float(np.outer(c + _B3, _B3).sum())
    d = {}
    for i in range(1000):
        d[i & 255] = (i, i & 7)
    s += float(np.linalg.cholesky(_A60)[-1, -1])
    return s


class Clock:
    """Kernel samples taken during one pass, with when they ran."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self.samples = []
        self._last = time.perf_counter()

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(start)
        self.ends.append(end)
        self.samples.append(end - start)
        self._last = end

    def tick(self):
        """Sample if PERIOD_S has passed since the last sample.  Called by
        the benchmark between two solves, never inside one."""
        if time.perf_counter() - self._last >= PERIOD_S:
            self.sample()

    @contextmanager
    def interrupting(self):
        """Sample every PERIOD_S from a timer signal while the block runs,
        for a solve too long to leave between samples."""
        def handler(signum, frame):
            self.sample()
        old = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)

    def kernel_in(self, a, b) -> float:
        """Seconds the samples inside [a, b] took."""
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_right(self.ends, b)
        return sum(self.samples[i:j])

    def _gaps(self, a, b):
        """(seconds, slowness) of each stretch of [a, b] between two
        samples.  A stretch's slowness is the median of the LOCAL samples
        nearest to it, over REF_KERNEL_S."""
        n = len(self.samples)
        i = bisect.bisect_right(self.ends, a)
        while True:
            lo = self.ends[i - 1] if i > 0 else -math.inf
            hi = self.starts[i] if i < n else math.inf
            seconds = min(b, hi) - max(a, lo)
            if seconds > 0:
                first = max(0, min(i - LOCAL // 2, n - LOCAL))
                near = self.samples[first:first + LOCAL]
                yield seconds, statistics.median(near) / REF_KERNEL_S
            if hi >= b:
                return
            i += 1

    def rescaled(self, a, b) -> float:
        """The program's seconds in [a, b], samples left out, each divided
        by the slowness of the machine at that moment."""
        return sum(sec / slow for sec, slow in self._gaps(a, b))

    def factor(self, a, b) -> float:
        """Rescaled over raw program seconds in [a, b]."""
        return self.rescaled(a, b) / sum(sec for sec, _ in self._gaps(a, b))

    def slowness(self) -> float:
        """Median kernel time over REF_KERNEL_S: how much slower than the
        reference the machine ran during the pass."""
        return statistics.median(self.samples) / REF_KERNEL_S


class NoClock:
    """The clock of a traced pass: it never samples, so spans hold only
    the program's time."""

    samples = ()

    def tick(self):
        pass

    @contextmanager
    def interrupting(self):
        yield self

