"""Kolmogorov-Smirnov distances and tests.

Model selection needs only the one-sample KS distance between the data
and a fitted CDF, so :func:`ks_distance` computes exactly that, the way
``scipy.stats.kstest`` computes its statistic, without the exact
p-value scipy would also pay for.  Validation (two-sample, synthetic vs
captured — the paper's reproduction-fidelity check) reads a p-value,
so :func:`ks_two_sample` wraps :mod:`scipy.stats` in a result object.

:func:`ks_two_sample` imports ``scipy.stats`` inside the call, so only
processes that validate a reproduction load it; importing this module
(which :mod:`repro.analysis` does for every command) stays cheap.
``tests/test_import_graph.py`` guards that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class KsResult:
    """A two-sample KS test outcome."""

    statistic: float
    pvalue: float
    n: int
    m: int = 0  # second sample size

    def accept(self, alpha: float = 0.05) -> bool:
        """Whether the null (same distribution) survives at level alpha."""
        return self.pvalue >= alpha


def ks_distance(samples: Sequence[float], cdf: Callable) -> float:
    """One-sample KS distance between data and a fitted CDF.

    Bit-identical to ``scipy.stats.kstest(samples, cdf).statistic``:
    ``cdf`` is evaluated once on the sorted data, ``D+`` and ``D-`` are
    the largest gaps above and below the empirical CDF, and the result
    is ``D+`` only when ``D+ > D-`` (scipy's rule), so a NaN from
    ``cdf`` propagates.
    """
    data = np.sort(np.asarray(samples, dtype=float))
    n = data.size
    if n == 0:
        raise ValueError("KS distance needs at least one sample")
    cdfvals = cdf(data)
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdfvals)
    d_minus = np.max(cdfvals - np.arange(0.0, n) / n)
    return float(d_plus if d_plus > d_minus else d_minus)


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> KsResult:
    """KS distance between two empirical samples."""
    first = np.asarray(list(a), dtype=float)
    second = np.asarray(list(b), dtype=float)
    if first.size == 0 or second.size == 0:
        raise ValueError("KS test needs non-empty samples on both sides")
    from scipy import stats

    statistic, pvalue = stats.ks_2samp(first, second)
    return KsResult(statistic=float(statistic), pvalue=float(pvalue),
                    n=first.size, m=second.size)
