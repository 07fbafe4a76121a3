"""A fixed probe of the host's speed, and timings corrected by it.

On a shared VM the CPU's speed can change by half or more, in phases that
last from seconds to minutes (see README.md). A run's median hides phases
shorter than the run, but not longer ones, so the benchmark probes the
host's speed right before and right after every timed interval, and at every
epoch boundary inside ``train()``, and scales each interval by it.

The probe is a fixed mix of the kernels training spends its time in:
float32 matmul, elementwise ``exp``, a row gather, an ``np.add.at``
scatter and a pure-Python loop. Its inputs are the same in every run, and it
calls nothing in slotgnn, so a change to the program cannot change it.
"""

from __future__ import annotations

import math
import time

import numpy as np

# The probe's time on the 2-vCPU Xeon VM of README.md in its fast phase.
# Scaled timings read as wall times measured in that phase.
REFERENCE_S = 0.025

_rng = np.random.default_rng(0)
_MAT = _rng.standard_normal((4096, 64), dtype=np.float32)
_WEIGHT = _rng.standard_normal((64, 64), dtype=np.float32)
_VEC = _rng.standard_normal(1 << 20, dtype=np.float32)
_ROWS = _rng.standard_normal((8000, 64), dtype=np.float32)
_INDEX = _rng.integers(0, 8000, 30_000)
_VALUES = _rng.standard_normal((30_000, 16), dtype=np.float32)


def _kernels() -> None:
    for _ in range(10):
        _MAT @ _WEIGHT
    for _ in range(4):
        np.exp(_VEC) * _VEC + _VEC
    np.add.at(np.zeros((8000, 16), dtype=np.float32), _INDEX, _VALUES)
    for _ in range(4):
        _ROWS[_INDEX]
    total = 0
    for i in range(100_000):
        total += i


class HostClock:
    """The probes of one run, and timings of intervals between them."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []  # (start, end), in time order

    def probe(self) -> None:
        start = time.perf_counter()
        _kernels()
        self.probes.append((start, time.perf_counter()))

    def probe_times(self) -> list[float]:
        return [end - start for start, end in self.probes]

    def _inside(self, start: float, end: float) -> list[tuple[float, float]]:
        return [p for p in self.probes if start <= p[0] and p[1] <= end]

    def wall(self, start: float, end: float) -> float:
        """Wall time of [start, end] outside the probes run inside it."""
        return (end - start) - sum(e - s for s, e in self._inside(start, end))

    def scaled(self, start: float, end: float) -> float:
        """Wall time of [start, end] at the reference speed.

        The interval is cut at the probes inside it. Each piece is scaled by
        ``REFERENCE_S`` over the geometric mean of the probes on either side
        of it. A probe must have ended before ``start`` and another started
        after ``end``.
        """
        before = max(p for p in self.probes if p[1] <= start)
        after = min(p for p in self.probes if p[0] >= end)
        total, cursor, prev = 0.0, start, before
        for p in self._inside(start, end) + [after]:
            piece = min(p[0], end) - cursor
            total += piece * REFERENCE_S / math.sqrt((prev[1] - prev[0]) * (p[1] - p[0]))
            cursor, prev = p[1], p
        return total
