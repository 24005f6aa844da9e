"""Machine-speed reference for the benchmark's timings.

The 2-vCPU x86_64 virtual machine this benchmark was sized on shares its
host with other work: the same deterministic computation there takes up to
twice as long from one second to the next, and shifts by a third between
minutes.  That drift, not the program, would dominate every timing.  So
each timing is scaled to a nominal machine speed:

- a small fixed kernel, mixing the kinds of work the package does (exact
  rational arithmetic, dict updates, a loop over numpy scalars, many small
  numpy calls, large array operations and elementwise powers as in the
  compiled evaluator), is timed at least every `INTERVAL_S` seconds
  between items;
- each measured interval is multiplied by `NOMINAL_S` divided by the
  kernel's time interpolated at the middle of that interval.

A scaled time is what the interval would have taken with the kernel
running at `NOMINAL_S`, about the kernel's median time on that machine.
Raw wall times are kept next to the scaled ones in the run's details.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

NOMINAL_S = 0.005
INTERVAL_S = 0.25
_BASE = np.linspace(0.5, 1.5, 1500)[:, None]
_POWERS = np.arange(16.0)[None, :]


def kernel_s() -> float:
    """Wall time of one pass of the reference kernel."""
    t0 = time.perf_counter()
    x = Fraction(1, 3)
    for i in range(1, 60):
        x = ((x * x + Fraction(1, i)) / (x + 1)).limit_denominator(10**12)
    counts: dict[int, int] = {}
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + i
    parent = np.arange(400)
    for i in range(1, 400):
        parent[i] = parent[parent[i - 1] // 2]
    v = np.arange(64.0)
    for _ in range(80):
        v = np.sqrt(v * v + 1.0) - 1.0
    a = np.linspace(0.0, 1.0, 30_000)
    float(np.sin(a) @ np.cos(a))
    for _ in range(3):
        float(np.prod(_BASE ** _POWERS, axis=1).sum())
    return time.perf_counter() - t0


class SpeedProbe:
    """Kernel timings along a run, and the scale factors they imply."""

    def __init__(self):
        self.at: list[float] = []
        self.kernel: list[float] = []

    def sample(self) -> None:
        self.kernel.append(statistics.median(kernel_s() for _ in range(3)))
        self.at.append(time.perf_counter())

    def sample_if_due(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= INTERVAL_S:
            self.sample()

    def scaled(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] in nominal seconds."""
        kernel = float(np.interp(0.5 * (t0 + t1), self.at, self.kernel))
        return (t1 - t0) * NOMINAL_S / kernel
