"""Host-speed reference: fixed work, timed between ops, that the benchmark
divides its timings by.

The benchmark was built on 2 vCPUs of a shared host that switches, in spells
from under a second to minutes, between a fast and a slow state. In the slow
state a Python loop over tiny numpy arrays takes about 1.7 times as long,
streaming numpy kernels over 100k elements about 1.1 to 1.2 times, and CPU
time tracks wall time, so it is not preemption. One two-path op took 205 ms
in one five-second window and 335 ms in the next.

A fixed piece of work timed next to the ops slows down with them, if it
costs what the workload costs. The reference has two parts, and each
workload weighs them (``host_mix``) like its own ops' cost:

* dispatch: a Python loop over 5-element numpy arrays, for the two-path and
  grid runs, whose steps are dominated by per-call overhead;
* kernel: elementwise arithmetic, a gather and a weighted ``bincount`` over
  100k edges sorted by source, for the large graph's split kernel. (An
  unsorted gather slowed down 1.36 times in the slow state, against 1.11
  for a large-graph op, so it is not used.)

Neither part calls trailflow, so a change to the program moves the
normalized times in full. A normalized time is ``raw * nominal / ref``,
where ``ref`` is the median of the reference samples nearest the timed
interval and ``nominal`` what the reference takes at the median on the
2.1 GHz Xeon vCPU it was built on: the time the interval would have taken
on a host where the reference takes its nominal time.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

# nominal seconds of one call of each part of the reference
REF_DISPATCH_S = 3.3e-3
REF_KERNEL_S = 2.7e-3
EVERY_S = 0.1  # least wall time between two samples during the timed phase
NEAR = 3  # samples taken each side of an interval to normalize it
WARM_UP = 3  # untimed reference calls before the first sample
# a set-up builds its inputs in Python loops (gen_gnp lists 100k edges, the
# two-path set-up solves for fixed points), so it is weighed as dispatch even
# where the ops are kernel-bound
SETUP_MIX = (1.0, 0.0)


class HostSpeed:
    """Times both parts of the reference between ops; ``factor`` weighs
    them by a workload's mix."""

    def __init__(self) -> None:
        # numpy comes in with trailflow, whose import ``setup_s`` times, so
        # it is not imported before it
        import numpy as np

        self._bincount = np.bincount
        rng = np.random.default_rng(20111472)
        self._x = np.linspace(0.1, 1.0, 5)
        self._y = self._x[::-1].copy()
        # 100k edges sorted by source vertex, as a CSR edge list is
        self._sources = np.sort(rng.integers(0, 1000, 100_000))
        self._pheromone = rng.random(100_000)
        self._flow = rng.random(100_000)
        self._levels = rng.random(1000)
        self.starts: list = []
        self.dispatch: list = []  # seconds of each sample's dispatch part
        self.kernel: list = []  # and of its kernel part
        self.last_end = 0.0
        for _ in range(WARM_UP):
            self._dispatch()
            self._kernel()

    def _dispatch(self) -> float:
        x, y = self._x, self._y
        acc = 0.0
        for i in range(800):
            a = x * y + 0.5
            acc += float(a.max()) / (1.0 + i % 7)
            d = {"k": i, "v": acc}
            acc -= d["v"] * 1e-9
        return acc

    def _kernel(self) -> float:
        sources, levels = self._sources, self._levels
        acc = 0.0
        for _ in range(3):
            flow = 0.5 * self._pheromone + self._flow * self._pheromone
            acc += float(self._bincount(sources, weights=levels[sources] * flow, minlength=1000).sum())
        return acc

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = perf_counter()
            self._dispatch()
            t1 = perf_counter()
            self._kernel()
            self.last_end = perf_counter()
            self.starts.append(t0)
            self.dispatch.append(t1 - t0)
            self.kernel.append(self.last_end - t1)

    def due(self) -> bool:
        return perf_counter() - self.last_end >= EVERY_S

    def factor(self, t: float, mix) -> float:
        """The nominal reference time over the median of the ``NEAR``
        samples taken before ``t`` and the ``NEAR`` taken after it, with
        the parts weighed by ``mix`` = (dispatch weight, kernel weight)."""
        w_dispatch, w_kernel = mix
        i = bisect.bisect(self.starts, t)
        near = slice(max(0, i - NEAR), i + NEAR)
        refs = [w_dispatch * d + w_kernel * k for d, k in zip(self.dispatch[near], self.kernel[near])]
        return (w_dispatch * REF_DISPATCH_S + w_kernel * REF_KERNEL_S) / statistics.median(refs)
