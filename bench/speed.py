"""Machine-speed probes for rescaling timings.

On the shared 2-vCPU VM this benchmark was built on, the speed of
interpreter-bound code drifts by up to 1.8x in episodes lasting from a few
seconds to over a minute, far longer than best-of-N repetition within one
run can average out.  The benchmark therefore runs a fixed calibration
kernel (``kernel``, code of the benchmark's own, never the library's) every
``INTERVAL`` seconds between operations, and rescales the time of each
interpreter-bound operation by ``REFERENCE_S / kernel time`` around it.  A
rescaled time reads as the time the operation would take on a machine where
the kernel takes ``REFERENCE_S``; since the kernel is the same on every
commit, ratios between commits are those of wall time at equal machine
speed.

Large-array Monte Carlo calls do not track that small-array kernel: they
are rescaled the same way by ``array_kernel``, which draws and transforms
large arrays as the library's sampler does, probed right before and right
after each such call.  Those probes are short and noisy next to the calls,
so the median over a wider window (``ARRAY_WINDOW``) describes each call.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from scipy import special

REFERENCE_S = 0.005     # kernel wall time the rescaled figures refer to
ARRAY_REFERENCE_S = 0.032   # the same for array_kernel
INTERVAL = 0.25         # seconds between probes
WINDOW = 0.5            # probes this close to an operation describe its speed
ARRAY_WINDOW = 4.0      # the same for array_kernel

_X = np.linspace(-3.0, 3.0, 16)
_ARRAY_N = 1 << 19


def kernel() -> float:
    """Small-array scipy/numpy calls driven from Python, like the library's scalar paths."""
    acc = 0.0
    for i in range(300):
        y = special.ndtr(_X + i * 1e-3)
        acc += float(np.where(y > 0.5, y, 1.0 - y).sum())
    big = np.linspace(1e-6, 1.0 - 1e-6, 100_000)
    return acc + float(special.ndtri(big).sum() + np.exp(-big).sum())


def array_kernel() -> float:
    """Philox uniforms through an inverse CDF and a mask, like one sampler chunk."""
    u = np.random.Generator(np.random.Philox(12345)).random(_ARRAY_N)
    y = special.ndtri(u)
    return float(np.count_nonzero(np.where(y > 0.0, y, -y) < 1.0))


class SpeedProbe:
    """Timed runs of a calibration kernel taken between operations."""

    def __init__(self, kernel=kernel, reference_s: float = REFERENCE_S, window: float = WINDOW,
                 warm: bool = True):
        self.kernel = kernel
        self.reference_s = reference_s
        self.window = window
        self.warm = warm                # run the kernel once untimed before each probe
        self.at: list[float] = []       # midpoint of each probe (perf_counter)
        self.took: list[float] = []     # kernel wall time of each probe

    def probe(self):
        """Time one kernel run; with ``warm``, after an untimed one, so that the
        probe reads the machine's speed and not the state of the caches and
        allocator that the previous operation left behind."""
        if self.warm:
            self.kernel()
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.took.append(t1 - t0)

    def maybe(self):
        """Probe when the last probe is more than INTERVAL seconds old."""
        if not self.at or time.perf_counter() - self.at[-1] > INTERVAL:
            self.probe()

    def scale(self, t0: float, t1: float) -> float:
        """The reference time over the median kernel time of probes around [t0, t1]."""
        lo = bisect.bisect_left(self.at, t0 - self.window)
        hi = bisect.bisect_right(self.at, t1 + self.window)
        near = self.took[lo:hi]
        if not near:
            j = min(range(len(self.at)), key=lambda k: abs(self.at[k] - t0))
            near = [self.took[j]]
        return self.reference_s / statistics.median(near)
