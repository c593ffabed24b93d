"""Multi-job workload suites: arrival processes and job mixes.

Single-job captures (the core Keddah methodology) miss an axis real
clusters have: *concurrency*.  This package layers it on:

* :mod:`repro.workloads.arrivals` — inter-arrival processes (Poisson,
  uniform);
* :mod:`repro.workloads.suite` — :class:`WorkloadSuite`: a weighted job
  mix sampled into a concrete submission schedule, run on one
  :class:`~repro.mapreduce.cluster.HadoopCluster`, yielding per-job
  traces plus cluster-level load statistics;
* :mod:`repro.workloads.hibench` — the canonical mixes (HiBench-like
  micro mix, a shuffle-heavy mix, an analytics mix).
"""

from repro.workloads.arrivals import PoissonArrivals, UniformArrivals
from repro.workloads.hibench import ANALYTICS_MIX, MICRO_MIX, SHUFFLE_HEAVY_MIX
from repro.workloads.suite import SuiteResult, WorkloadSuite

__all__ = [
    "ANALYTICS_MIX",
    "MICRO_MIX",
    "PoissonArrivals",
    "SHUFFLE_HEAVY_MIX",
    "SuiteResult",
    "UniformArrivals",
    "WorkloadSuite",
]
