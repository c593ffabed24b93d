"""Model selection: fit every candidate family, rank by KS distance.

``fit_candidates`` MLE-fits the whole candidate family and scores each
fit by its one-sample KS distance to the data, the only score the
toolchain reads.  ``fit_best`` applies the selection rule used
throughout the toolchain:

1. zero-variance data → point mass;
2. otherwise the parametric family with the smallest KS distance;
3. if even the best family's KS distance exceeds
   ``empirical_threshold`` the fit is judged unrepresentative: a
   two-component lognormal mixture is kept if it at least halves that
   distance, and otherwise an empirical-quantile distribution is
   returned (the paper's models are empirical where parametric
   families fail).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.modeling.distributions import (
    CANDIDATE_FAMILIES,
    DegenerateDistribution,
    EmpiricalDistribution,
    FittedDistribution,
    fit_family,
)
from repro.modeling.ks import ks_distance

DEFAULT_EMPIRICAL_THRESHOLD = 0.25


@dataclass
class FitReport:
    """One fitted distribution's score card."""

    distribution: Union[FittedDistribution, DegenerateDistribution]
    ks: float  # one-sample KS distance to the fitted data

    @property
    def family(self) -> str:
        return self.distribution.family


def fit_candidates(samples: Sequence[float],
                   families: Optional[Sequence[str]] = None) -> List[FitReport]:
    """Fit each family; return reports sorted by ascending KS distance.

    Families whose MLE fails on the data (singular likelihoods, etc.)
    are silently dropped — at least one family always survives.
    """
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        raise ValueError("cannot fit to an empty sample")
    reports: List[FitReport] = []
    for family in families or CANDIDATE_FAMILIES:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fitted = fit_family(family, data)
                ks = ks_distance(data, fitted.cdf)
        except Exception:
            continue
        reports.append(FitReport(distribution=fitted, ks=ks))
    if not reports:
        raise RuntimeError("every candidate family failed to fit")
    reports.sort(key=lambda report: report.ks)
    return reports


def best_report(samples: Sequence[float],
                families: Optional[Sequence[str]] = None) -> FitReport:
    """Rules 1 and 2 of the module docstring as one score card.

    Zero-spread data gets a point mass with KS distance 0: no family is
    ranked on it, because ``ks_distance``'s continuous-CDF formula
    reads a point mass as far from every fit.
    """
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        raise ValueError("cannot fit to an empty sample")
    if data.size == 1 or float(np.ptp(data)) == 0.0:
        return FitReport(distribution=DegenerateDistribution(float(data[0])),
                         ks=0.0)
    return fit_candidates(data, families)[0]


def fit_best(samples: Sequence[float],
             families: Optional[Sequence[str]] = None,
             empirical_threshold: float = DEFAULT_EMPIRICAL_THRESHOLD,
             try_mixture: bool = True):
    """The toolchain's selection rule.  Returns a distribution object.

    When no single family fits (rule 3 in the module docstring), a
    two-component lognormal mixture is attempted before falling back to
    empirical quantiles: structurally bimodal populations (e.g. the
    HDFS-write mix of jar blocks and output blocks) get a compact,
    extrapolatable model if the mixture at least halves the best
    single-family KS distance.
    """
    data = np.asarray(list(samples), dtype=float)
    best = best_report(data, families)
    if best.ks <= empirical_threshold:
        return best.distribution
    if try_mixture:
        from repro.modeling.mixture import fit_mixture_if_better

        mixture = fit_mixture_if_better(data, baseline_ks=best.ks)
        if mixture is not None:
            return mixture
    return EmpiricalDistribution.from_samples(data)
