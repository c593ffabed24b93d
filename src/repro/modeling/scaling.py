"""Linear scaling laws across input sizes.

Keddah's models must generate traffic for input sizes that were never
captured.  Flow *size* distributions are nearly input-invariant (blocks
and partitions are configuration-quantised), while flow *counts* and
total *volumes* grow with the input — so the model carries per-metric
linear laws fitted across the capture campaign's input sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Sequence

import numpy as np


@dataclass(frozen=True)
class LinearLaw:
    """``y = slope * x + intercept`` with least-squares fitting."""

    slope: float
    intercept: float

    def predict(self, x: float) -> float:
        return self.slope * float(x) + self.intercept

    def predict_nonneg(self, x: float) -> float:
        return max(self.predict(x), 0.0)

    @classmethod
    def fit(cls, xs: Sequence[float], ys: Sequence[float]) -> "LinearLaw":
        """Least squares; a single point degrades to proportionality.

        With one (x, y) observation the only defensible extrapolation is
        through the origin: ``y = (y/x) * x``.
        """
        x = np.asarray(list(xs), dtype=float)
        y = np.asarray(list(ys), dtype=float)
        if x.size == 0 or x.size != y.size:
            raise ValueError("need matching non-empty x/y samples")
        if x.size == 1 or float(np.ptp(x)) == 0.0:
            base = float(x[0])
            if base == 0.0:
                return cls(slope=0.0, intercept=float(y.mean()))
            return cls(slope=float(y.mean()) / base, intercept=0.0)
        slope, intercept = np.polyfit(x, y, deg=1)
        return cls(slope=float(slope), intercept=float(intercept))

    def to_dict(self) -> Dict[str, Any]:
        return {"slope": self.slope, "intercept": self.intercept}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LinearLaw":
        return cls(slope=float(data["slope"]), intercept=float(data["intercept"]))

    def __repr__(self) -> str:
        return f"LinearLaw(y = {self.slope:.6g}*x + {self.intercept:.6g})"

