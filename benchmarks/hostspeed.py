"""Host-speed reference: expresses measured times at a fixed speed of a shared host.

On a shared virtual machine the same CPU-bound work can run 1.5x slower for
tens of seconds at a time while the process's CPU time still equals its wall
time, so no statistic taken inside one run removes the swing.  A short fixed
reference computation, timed before every unit, tracks that speed: a unit's
wall time is multiplied by `REF_S` over the slower of the reference timings
taken just before and just after it.  A slow spell that overlaps a unit
usually shows in one of its neighbours; on five seeds the slower neighbour
gave steadier percentiles than their mean, their faster one or any wider
window.  A change to coflow does not touch the reference, so it shows in
full in the adjusted times.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

REF_S = 1e-3      # reference time the adjusted figures are scaled to


def reference_work() -> None:
    """Fixed work in the library's mix: Python integers, Fractions, small numpy arrays."""
    s = 0
    for i in range(4000):
        s += i * i % 7
    f = Fraction(0)
    for i in range(1, 80):
        f += Fraction(i, i + 1) * Fraction(3, i + 2)
    y = np.array([1.0, 2.0, 3.0])
    for _ in range(120):
        y = y + 0.01 * y * y / (y + 1.0)


class HostSpeed:
    def __init__(self) -> None:
        self.durations: list[float] = []

    def sample(self) -> int:
        """Time the reference once; returns the sample's index."""
        t0 = time.perf_counter()
        reference_work()
        self.durations.append(time.perf_counter() - t0)
        return len(self.durations) - 1

    def factor(self, before: int) -> float:
        """REF_S over the slower of sample `before` and the next one, which bracket a unit."""
        return REF_S / max(self.durations[before:before + 2])
