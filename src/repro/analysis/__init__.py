"""Analysis: breakdowns, comparisons and table rendering.

The quantitative layer between raw traces and the experiment outputs:

* :mod:`repro.analysis.tables` — plain-text table/series rendering used
  by every benchmark to print the rows a paper figure would plot;
* :mod:`repro.analysis.breakdown` — per-component traffic volume and
  flow-count decompositions of job traces;
* :mod:`repro.analysis.compare` — captured-vs-synthetic validation
  (two-sample KS per component metric, volume/count errors);
* :mod:`repro.analysis.jct` — job-completion-time statistics;
* :mod:`repro.analysis.plans` — per-stage attribution and scoring of
  workload-plan captures.
"""

from repro.analysis.breakdown import component_breakdown
from repro.analysis.compare import compare_traces, validation_summary
from repro.analysis.hotspots import hotspot_table, imbalance_factor, per_host_traffic
from repro.analysis.matrix import rack_matrix, rack_matrix_table
from repro.analysis.plans import is_plan_trace, plan_score, stage_breakdown, stage_table
from repro.analysis.tables import Table, cdf_table, render_table

__all__ = [
    "Table",
    "cdf_table",
    "compare_traces",
    "component_breakdown",
    "hotspot_table",
    "imbalance_factor",
    "per_host_traffic",
    "is_plan_trace",
    "plan_score",
    "stage_breakdown",
    "stage_table",
    "rack_matrix",
    "rack_matrix_table",
    "render_table",
    "validation_summary",
]
