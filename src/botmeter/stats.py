"""Streaming univariate statistics used by the flow accumulators."""

from __future__ import annotations

import math


class RunningStats:
    """Single-pass mean/std/min/max accumulator (Welford update).

    ``std`` is the sample standard deviation (n-1 divisor) and is 0 for
    fewer than two observations.  All statistics over an empty accumulator
    are 0.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "_mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)

    @property
    def mean(self) -> float:
        if not self.count:
            return 0.0
        # The rounded quotient can fall just outside [min, max] when the
        # values are equal or nearly so (three copies of 357913941.8457235
        # give 357913941.84572345).  For integer values it is correctly
        # rounded from an exact sum and never does.
        return min(max(self.total / self.count, float(self.minimum)),
                   float(self.maximum))

    @property
    def std(self) -> float:
        if self.count <= 1:
            return 0.0
        return math.sqrt(max(self._m2, 0.0) / (self.count - 1))

    @property
    def min(self) -> float:
        return self.minimum if self.count else 0.0

    @property
    def max(self) -> float:
        return self.maximum if self.count else 0.0
