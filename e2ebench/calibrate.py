"""Host-speed calibration: a fixed kernel timed alongside the workload.

The benchmark runs on shared machines whose speed drifts, by up to half
over a few minutes, with whatever else the host is running.  A drift
that lasts longer than a run moves every window of that run alike, so no
median inside the run can remove it.  So the benchmark times a fixed
kernel between its operations, and reports every timing scaled to a
reference host: one on which :func:`kernel` takes exactly
:data:`REFERENCE_S`.  A time ``t`` measured in a run whose kernel takes
``m`` on average is reported as ``t * REFERENCE_S / m``; a rate is
divided by the same factor.  The mean, not the median, because the host
flips between a fast and a slow state every second or so: the mean
follows the share of the run spent in each, where the median jumps from
one state to the other.

The kernel is pure-Python greedy colouring of a fixed random graph, the
same kind of interpreter work (dicts, sets, small ints) as the program
measured.  It lives here, so no change to the program can move it.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Dict, List, Tuple

#: Kernel time on the reference host, in seconds.
REFERENCE_S = 1e-3

#: Kernel calls made and discarded before the first sample.
WARMUP_CALLS = 20

#: Seconds between two samples taken by :meth:`HostSpeed.tick`.
TICK_INTERVAL_S = 0.1

#: Units of timings, scaled by the factor; rates are divided by it.
TIME_UNITS = ("s", "ms", "us")
RATE_UNITS = ("1/s",)


def kernel() -> int:
    """Greedy-colour a fixed 120-vertex random graph; its colour count."""
    rng = random.Random(12345)
    n = 120
    adjacent: Dict[int, set] = {v: set() for v in range(n)}
    for _ in range(600):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            adjacent[a].add(b)
            adjacent[b].add(a)
    colour: Dict[int, int] = {}
    for v in sorted(adjacent, key=lambda v: (len(adjacent[v]), v)):
        used = {colour[u] for u in adjacent[v] if u in colour}
        c = 0
        while c in used:
            c += 1
        colour[v] = c
    return max(colour.values()) + 1


class HostSpeed:
    """Kernel timings of one run and the factor they give."""

    def __init__(self) -> None:
        for _ in range(WARMUP_CALLS):
            kernel()
        self.samples: List[float] = []
        self._last = time.perf_counter()

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def tick(self) -> None:
        """Take a sample if :data:`TICK_INTERVAL_S` has passed since the
        last one; call it only while no operation is in flight."""
        if time.perf_counter() - self._last >= TICK_INTERVAL_S:
            self.sample()

    def mean_s(self) -> float:
        """Mean kernel time of this run, in seconds."""
        if not self.samples:
            self.sample()
        return statistics.fmean(self.samples)

    def factor(self) -> float:
        """``REFERENCE_S`` over the mean kernel time of this run."""
        return REFERENCE_S / self.mean_s()

    def scale(self, metrics: Dict[str, Tuple[float, str]]
              ) -> Dict[str, Tuple[float, str]]:
        """Timings and rates of ``metrics`` at reference-host speed."""
        factor = self.factor()
        out = {}
        for name, (value, unit) in metrics.items():
            if unit in TIME_UNITS:
                value *= factor
            elif unit in RATE_UNITS:
                value /= factor
            out[name] = (value, unit)
        return out
