"""Host-speed calibration for timings taken on a shared machine.

On a shared 2-vCPU host the speed a process gets drifts by 20-40%
over minutes while no steal time shows: CPU seconds inflate as much as wall
seconds, so neither can be compared between runs as it stands. The benchmark
therefore times a fixed NumPy kernel, shaped like the engine's hot loops but
independent of levygrad, right before and right after every timed call, on
as many threads as the call uses, and scales the call's seconds by

    factor = K_REF[threads] / mean(kernel before, kernel after).

A timing so scaled reads in seconds at the host speed where the kernel takes
K_REF seconds. A change to levygrad cannot move the kernel, so it cannot
move the factor; the factors are recorded with every run. Over ten 25-second
runs per workload on a 2-vCPU Xeon host, scaling cut the interquartile
spread of the median call time from 11% to 6% (quickstart), 13% to 8%
(fd_crn) and 7% to 6% (sign_fine_cut).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

# Kernel seconds at the reference speed, per thread count: medians measured
# on an Intel Xeon 2.0 GHz 2-vCPU host (Python 3.11, numpy 2.4).
K_REF = {1: 0.100, 2: 0.250}

_ROWS = 32_768
_STEPS = 12
_SORT_ROWS = 100_000


class _Kernel:
    """Fixed inputs for one kernel: an RK4-shaped loop over 32 768 rows (like
    ``flow_batch``) and a lexsort/gather/cumsum/bincount over 100 000 rows
    (like ``sample_jump_batch`` and ``path_cumulatives``). The loop is bound by
    the core and its caches, the sort by memory, so together they track both
    kinds of slowdown a neighbour on the host can cause."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.x0 = rng.standard_normal((_ROWS, 2))
        self.j0 = rng.standard_normal((_ROWS, 2))
        self.a = np.ascontiguousarray(np.broadcast_to(-np.eye(2), (_ROWS, 2, 2)))
        self.times = rng.uniform(size=_SORT_ROWS)
        self.paths = np.repeat(np.arange(_SORT_ROWS // 100), 100)
        self.sizes = rng.standard_normal(_SORT_ROWS)

    def __call__(self) -> float:
        x, j = self.x0.copy(), self.j0.copy()
        for _ in range(_STEPS):
            rows = np.nonzero(np.abs(x[:, 0]) < 2.5)[0]
            xx, jj = x[rows], j[rows]
            g = np.einsum("mij,mj->mi", self.a[rows], jj)
            x[rows] = xx + 0.01 * (np.tanh(xx) - xx)
            j[rows] = jj + 0.01 * g
        order = np.lexsort((self.times, self.paths))
        sums = np.bincount(self.paths, weights=np.cumsum(self.sizes[order]))
        return float(x[0, 0] + sums[0])


class Calibrator:
    """Speed factors for a sequence of timed calls on ``threads`` threads."""

    def __init__(self, threads: int) -> None:
        if threads not in K_REF:
            raise ValueError(f"no kernel reference for {threads} threads")
        self.threads = threads
        self._kernel = _Kernel()
        self.kernel_s: list[float] = []
        self._last = self.kernel()

    def kernel(self) -> float:
        """Seconds for the kernel on one thread, then (for more threads) on
        each of the threads side by side, as the timed call runs them."""
        start = perf_counter()
        self._kernel()
        if self.threads > 1:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                futures = [pool.submit(self._kernel) for _ in range(self.threads)]
                for fut in futures:
                    fut.result()
        seconds = perf_counter() - start
        self.kernel_s.append(seconds)
        return seconds

    def factor(self) -> float:
        """Factor for the call that just ended, from the kernels around it."""
        last, now = self._last, self.kernel()
        self._last = now
        return K_REF[self.threads] / (0.5 * (last + now))
