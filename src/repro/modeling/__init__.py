"""Keddah stage 2 — empirical traffic modelling.

Given captured :class:`~repro.capture.records.JobTrace` datasets, this
package produces the paper's deliverable: a statistical model of each
job type's traffic, decomposed by component, that a network simulator
can sample from.

Pipeline:

1. :mod:`repro.modeling.empirical` — summary statistics;
2. :mod:`repro.modeling.distributions` — a candidate family of
   parametric distributions (exponential, lognormal, Weibull, gamma,
   Pareto, normal, uniform) with MLE fitting, plus degenerate and
   empirical-quantile fallbacks for data parametric families cannot
   represent (e.g. block-size point masses);
3. :mod:`repro.modeling.fitting` — model selection by one-sample
   Kolmogorov-Smirnov distance, with mixture and empirical fallbacks;
4. :mod:`repro.modeling.scaling` — linear scaling laws of flow counts
   and volumes against input size, fitted across capture campaigns;
5. :mod:`repro.modeling.model` — the assembled
   :class:`~repro.modeling.model.JobTrafficModel` with JSON
   round-tripping, and :func:`~repro.modeling.model.fit_job_model`.
"""

from repro.modeling.bundle import ModelBundle
from repro.modeling.crossval import CrossValidationReport, leave_one_out
from repro.modeling.diff import diff_models, diff_table
from repro.modeling.health import check_model
from repro.modeling.inspect import describe_model
from repro.modeling.mixture import LognormalMixture
from repro.modeling.distributions import (
    CANDIDATE_FAMILIES,
    DegenerateDistribution,
    EmpiricalDistribution,
    FittedDistribution,
    distribution_from_dict,
    fit_family,
)
from repro.modeling.empirical import summarize
from repro.modeling.fitting import FitReport, fit_best, fit_candidates
from repro.modeling.ks import ks_distance, ks_two_sample
from repro.modeling.model import ComponentModel, JobTrafficModel, fit_job_model
from repro.modeling.scaling import LinearLaw

__all__ = [
    "CANDIDATE_FAMILIES",
    "ComponentModel",
    "DegenerateDistribution",
    "EmpiricalDistribution",
    "FitReport",
    "FittedDistribution",
    "JobTrafficModel",
    "LinearLaw",
    "ModelBundle",
    "CrossValidationReport",
    "LognormalMixture",
    "check_model",
    "describe_model",
    "diff_models",
    "diff_table",
    "leave_one_out",
    "distribution_from_dict",
    "fit_best",
    "fit_candidates",
    "fit_family",
    "fit_job_model",
    "ks_distance",
    "ks_two_sample",
    "summarize",
]
