"""Machine-speed calibration for the benchmark's timings.

A shared VM with 2 vCPUs (Intel Xeon, CPython 3.11) changes speed by up to
1.8x within seconds, in user time as much as in wall time, so raw timings of
runs made a few minutes apart differ by more than any change worth
catching.  A fixed pure-Python kernel, which lives here and shares no code
with the package, is timed next to every measured interval.  Each interval is then scaled by
``NOMINAL_S / kernel time``: it reads as the seconds it would take on a
machine that runs the kernel in ``NOMINAL_S``.  A change to the package
moves the scaled time as much as the raw one; a change of machine speed
moves both the interval and the kernel, and cancels out.

The kernel is Dijkstra with ``heapq`` over dicts and tuples, the kind of
interpreter work the solver does, so the two slow down together.
"""

from __future__ import annotations

import heapq
import random
import time

NOMINAL_S = 0.010     # about one kernel run on that VM when it runs fast
_NODES = 1500
_DEGREE = 6
_SOURCES = (0, 1, 2)


def _graph() -> list:
    rng = random.Random("perfbench-speed")
    adj: list = [[] for _ in range(_NODES)]
    for u in range(_NODES):
        for _ in range(_DEGREE // 2):
            v = rng.randrange(_NODES)
            w = rng.randint(1, 100)
            adj[u].append((v, w))
            adj[v].append((u, w))
    return adj


def _kernel(adj: list) -> int:
    total = 0
    for s in _SOURCES:
        dist = {s: 0}
        done = set()
        heap = [(0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in adj[u]:
                nd = d + w
                if nd < dist.get(v, 1 << 60):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        total += sum(dist.values())
    return total


class Calibrator:
    """Times the kernel; ``scale`` turns raw seconds into nominal seconds."""

    def __init__(self, warmup: int = 3):
        self._adj = _graph()
        self._expected = _kernel(self._adj)
        for _ in range(warmup):
            self.sample()

    def sample(self) -> float:
        """Seconds of one kernel run, now."""
        t0 = time.perf_counter()
        result = _kernel(self._adj)
        elapsed = time.perf_counter() - t0
        if result != self._expected:
            raise RuntimeError("speed kernel returned a different result")
        return elapsed

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        """``seconds`` measured between kernel runs of ``before`` and ``after`` s."""
        return seconds * NOMINAL_S / ((before + after) / 2.0)
