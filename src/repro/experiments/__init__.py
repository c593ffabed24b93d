"""The evaluation harness: campaigns, the capture store, and experiments.

:mod:`repro.experiments.campaigns` defines the canonical experiment
parameters (job mix, input sizes, cluster scale — scaled so the whole
evaluation regenerates in seconds on a laptop) and fronts the capture
cache hierarchy: a bounded in-process LRU memo over the optional
persistent content-addressed store.

:mod:`repro.experiments.store` is that persistent store — capture
(result, trace) pairs addressed by the SHA-256 of their canonical
parameter dict, with atomic writes and corruption-tolerant reads, so
sweeps are shared across processes, benchmark files and CLI runs.

:mod:`repro.experiments.runner` executes campaigns: it resolves
capture points memo → store → simulation and fans cache misses out
across worker processes with output flow-for-flow identical to a
serial run.  Each simulated point is stored as it resolves, so the
store doubles as the campaign's checkpoint.

:mod:`repro.experiments.figures` has one entry point per evaluation
artefact (E1..E20 and ablations A1..A5 in DESIGN.md's index), each
returning the :class:`~repro.analysis.tables.Table` rows the paper's
corresponding table/figure reports.

:mod:`repro.experiments.dag` is the crash-safe multi-stage pipeline
scheduler: stage nodes run in isolated, relocatable, content-addressed
dirs, each committed by an atomically published ``outputs.json``
manifest, so a killed pipeline resumes with zero re-execution of
completed nodes.
:mod:`repro.experiments.pipelines` wires the built-in
capture→classify→fit→replay→validate→report DAG over one shared
capture set, with E12/E18 ported on as sibling branches.
"""

from repro.experiments.campaigns import (
    CampaignConfig,
    cache_stats,
    capture,
    capture_campaign,
    clear_cache,
    get_store,
    set_store,
)
from repro.experiments.dag import (
    DAGRunner,
    NodeOutcome,
    PipelineCycleError,
    PipelineDAG,
    PipelineFailed,
    PipelineResult,
    PROPAGATION_MODES,
    StageContext,
    StageNode,
    register_stage,
)
from repro.experiments.pipelines import PipelineSpec, build_pipeline, load_spec, save_spec
from repro.experiments.runner import CampaignRunner, CapturePoint, derive_seed
from repro.experiments.store import CaptureStore, ScrubReport
from repro.experiments.supervision import (
    CampaignPointsFailed,
    FailureFingerprint,
    PointFailure,
    Quarantine,
    RetryPolicy,
    classify_failure,
)
from repro.experiments import figures
from repro.experiments.report import generate_report, write_report

__all__ = ["CampaignConfig", "CampaignPointsFailed", "CampaignRunner",
           "CaptureStore", "CapturePoint", "DAGRunner",
           "FailureFingerprint", "PROPAGATION_MODES", "NodeOutcome", "PipelineCycleError", "PipelineDAG",
           "PipelineFailed", "PipelineResult", "PipelineSpec", "PointFailure",
           "Quarantine", "RetryPolicy", "ScrubReport", "StageContext",
           "StageNode", "build_pipeline", "cache_stats", "capture",
           "capture_campaign", "classify_failure", "clear_cache",
           "derive_seed", "figures", "generate_report", "get_store",
           "load_spec", "register_stage", "save_spec", "set_store",
           "write_report"]
