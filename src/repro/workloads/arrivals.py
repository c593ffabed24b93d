"""Job arrival processes."""

from __future__ import annotations

from typing import List

import numpy as np


class ArrivalProcess:
    """Interface: produce ``n`` submission times (sorted, seconds)."""

    def sample(self, n: int, rng: np.random.Generator) -> List[float]:
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at ``rate`` jobs/second (exponential gaps)."""

    def __init__(self, rate: float):
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate}")
        self.rate = rate

    def sample(self, n: int, rng: np.random.Generator) -> List[float]:
        gaps = rng.exponential(scale=1.0 / self.rate, size=n)
        times = np.cumsum(gaps)
        return [float(t) for t in times - times[0]] if n else []


class UniformArrivals(ArrivalProcess):
    """Evenly spaced submissions across a window of ``span`` seconds."""

    def __init__(self, span: float):
        if span < 0:
            raise ValueError(f"span must be >= 0, got {span}")
        self.span = span

    def sample(self, n: int, rng: np.random.Generator) -> List[float]:
        if n <= 1:
            return [0.0] * n
        return [self.span * i / (n - 1) for i in range(n)]

