"""Host speed during a measurement, from a fixed kernel timed between ops.

The 2-vCPU host this benchmark was written on shares its cores: the same
pure-Python loop ran 1.8x faster at the end of one minute than at its
start, and throughput of the workloads moved with it. ``Pace`` times a
fixed kernel (a pure-Python integer loop and a loop of small numpy calls,
about 4 ms at full speed) at most every ``interval_s`` between ops. Over
one-second windows of lp_bound, Pfender checks and CLI commands on that
host, this kernel tracked their speed better than either loop alone or a
memory-bound numpy kernel. ``slowdown`` is the kernel's mean
time over the measured span, weighted by time, over ``REFERENCE_S``; the
benchmark divides CPU-bound times by it, so a figure reads as on a host
running the kernel in ``REFERENCE_S``. Time inside the kernel is kept in
``spent_s`` so the caller can leave it out of its wall time.

numpy is imported by the first kernel run, not with this module, so that
a set-up timed before the first ``Pace`` still pays numpy's import.
"""

from __future__ import annotations

import time

PYTHON_LOOPS = 40_000
NUMPY_CALLS = 1_500
# The kernel's time on a 2-vCPU x86 host running at full speed.
REFERENCE_S = 0.0036


def kernel() -> float:
    import numpy as np

    total = 0
    for i in range(PYTHON_LOOPS):
        total += i * i
    small = np.arange(8.0)
    for _ in range(NUMPY_CALLS):
        total += float(np.dot(small, small))
    return total


class Pace:
    """Samples the kernel now, on ``tick`` and in ``slowdown``. Each span
    between two samples counts with its length and the mean of its two
    ends' kernel times."""

    def __init__(self, interval_s: float = 0.1):
        self.interval_s = interval_s
        self._weighted = 0.0
        self._weight = 0.0
        self._last_kernel_s = None
        self._sample()
        self.spent_s = 0.0  # kernel time after this first sample

    def tick(self) -> None:
        """Sample if ``interval_s`` has passed since the last sample."""
        if time.perf_counter() - self._last >= self.interval_s:
            self._sample()

    def _sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        kernel_s = end - start
        if self._last_kernel_s is not None:
            weight = start - self._last
            self._weighted += weight * (kernel_s + self._last_kernel_s) / 2
            self._weight += weight
            self.spent_s += kernel_s
        self._last_kernel_s = kernel_s
        self._last = end

    def slowdown(self) -> float:
        """Mean kernel time over the reference, after one last sample."""
        self._sample()
        return self._weighted / self._weight / REFERENCE_S
