"""Machine-speed calibration for timings on a shared machine.

The speed of the machines this benchmark runs on wanders: identical work
measured back to back took anywhere from 0.66 to 1.15 s, and CPU time moved
with wall time.  A :class:`Clock` times a fixed kernel (FFTs, an IIR filter
and a Python dictionary loop, the same mix the program runs, none of its
code) between pieces of work.  A stretch of work is scaled by
``REFERENCE_S / median(kernel times around it)``, which reports its time as
it would read on a machine where the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import fft as sfft
from scipy.signal import lfilter

#: Kernel time on the reference machine: a round figure near its median on
#: the 2-core machine the figures in README.md come from.
REFERENCE_S = 0.030
#: Least time between two kernel samples taken at episode boundaries.
EVERY_S = 0.5


class Clock:
    """Kernel samples ``(time, seconds)`` taken during a run."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.last = float("-inf")
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((16, 4800))

    def sample(self) -> float:
        """Time the kernel once; returns the wall time it took."""
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(10):
            spec = sfft.rfft(self._x, 8192, axis=1)
            acc += float(sfft.irfft(spec * np.conj(spec), 8192, axis=1)[0, 0])
            acc += float(lfilter([0.2, 0.3, 0.2], [1.0, -0.5, 0.25], self._x, axis=1)[0, -1])
            counts: dict[int, int] = {}
            for i in range(3000):
                counts[i % 97] = counts.get(i % 97, 0) + i
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, t1 - t0))
        self.last = t1
        return t1 - t0

    def factor(self, start: float, end: float) -> float:
        """Scale for work done between ``start`` and ``end``: the samples
        taken in that interval or within a second of it."""
        near = [s for t, s in self.samples if start - 1.0 <= t <= end + 1.0]
        return REFERENCE_S / statistics.median(near)
