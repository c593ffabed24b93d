"""Summary statistics of empirical samples."""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np


def summarize(samples: Iterable[float]) -> Dict[str, float]:
    """Summary statistics in the shape the experiment tables print."""
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        return {"n": 0, "mean": 0.0, "std": 0.0, "min": 0.0,
                "p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0, "sum": 0.0}
    return {
        "n": int(data.size),
        "mean": float(data.mean()),
        "std": float(data.std(ddof=1)) if data.size > 1 else 0.0,
        "min": float(data.min()),
        "p50": float(np.percentile(data, 50)),
        "p90": float(np.percentile(data, 90)),
        "p99": float(np.percentile(data, 99)),
        "max": float(data.max()),
        "sum": float(data.sum()),
    }

