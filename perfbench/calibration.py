"""Host-speed calibration for wall-clock timings on a shared machine.

On a shared host the same code can run twice as slowly a few minutes later,
because other tenants load the same cores and caches.  The benchmark
therefore times a fixed kernel next to every timed step.  The kernel mixes
the kinds of work the workloads do: a pure-Python loop over a list, many
numpy operations on small arrays, one scipy Dijkstra, and random reads from
an array larger than the caches.  It uses no ``rspmetric`` code, so a change
to the package cannot change the kernel.

A unit that took ``t`` seconds while the kernel took ``k`` seconds on
average around its steps is scaled to ``t * REFERENCE_S / k``: its duration
on a host on which the kernel takes ``REFERENCE_S`` seconds.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

REFERENCE_S = 0.016  # fixed for good: changing it rescales every calibrated metric
KERNEL_EVERY_S = 0.25  # after a step, one kernel run per this many seconds of step

_gen = np.random.default_rng(12345)
_TABLE = _gen.random(256).tolist()
_SMALL = _gen.random((12, 12))
_GRAPH = csr_matrix(np.triu(_gen.random((90, 90)), 1))
_BIG = _gen.random(2_000_000)  # 16 MB
_GATHER = _gen.integers(0, len(_BIG), 300_000)


def kernel() -> float:
    """Seconds taken by one run of the fixed calibration kernel."""
    t0 = time.perf_counter()
    dp = [0.0] * 16384
    for m in range(1, 16384):
        dp[m] = min(dp[m >> 1], dp[m - 1]) + _TABLE[m & 255]
    x = _SMALL
    for _ in range(350):
        x = np.minimum(x[:, None, :] + _SMALL[None, :, :], 5.0).min(axis=1)
    dijkstra(_GRAPH, directed=False)
    _BIG[_GATHER].sum()
    return time.perf_counter() - t0


class Clock:
    """Times a unit's steps and samples the host's speed around each of them.

    Pass ``mark`` to the workload, which calls it between its stages, and
    call it once more when the unit returns.
    """

    def __init__(self) -> None:
        self.steps: list[float] = []
        self.kernels: list[float] = []
        self.sample()

    def mark(self) -> None:
        self.lap()
        self.sample()

    def lap(self) -> None:
        """End the current step."""
        self.steps.append(time.perf_counter() - self._t0)

    def sample(self) -> None:
        """Run the kernel, then start the next step.

        The host's speed changes within seconds, so the kernel runs about
        once per ``KERNEL_EVERY_S`` of the step just ended: the unit's kernel
        runs then sample its whole duration evenly.
        """
        runs = max(1, int(self.steps[-1] / KERNEL_EVERY_S)) if self.steps else 1
        self.kernels += [kernel() for _ in range(runs)]
        self._t0 = time.perf_counter()

    @property
    def raw(self) -> float:
        """Wall seconds of all steps, kernels excluded."""
        return sum(self.steps)

    @property
    def calibrated(self) -> float:
        """Wall seconds scaled to a host on which the kernel takes ``REFERENCE_S``."""
        return self.raw * REFERENCE_S * len(self.kernels) / sum(self.kernels)
