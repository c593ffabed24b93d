"""The built-in keddah pipeline: capture → classify → fit → replay →
validate → report, as a crash-safe :mod:`~repro.experiments.dag` DAG.

The paper's own methodology is this chain; every stage here is a
registered DAG stage operating on *shared artifacts*:

* ``capture`` simulates the job × size sweep into one
  content-addressed :class:`~repro.experiments.store.CaptureStore`
  inside its node dir.  Every downstream stage opens that store
  read-only (a store miss raises instead of silently simulating — the
  capture stage's config is the single source of workload truth).
* ``capture_plans`` (only when the spec names workload plans) does the
  same for plans, in a store of its own.
* ``classify`` writes per-point traffic component breakdowns.
* ``fit`` trains one :class:`~repro.modeling.model.JobTrafficModel`
  per job from the training-size traces.
* ``replay`` replays each captured trace through the generation layer.
* ``validate`` generates synthetic traces from the fitted models and
  scores them against held-out captures.
* ``report`` renders everything into one markdown + JSON report.

A :class:`PipelineSpec` captures the whole workload declaratively; it
is persisted as ``pipeline.json`` at the pipeline root so ``keddah
pipeline resume|plan`` can rebuild the identical DAG with zero
re-specification (and therefore identical node signatures).  The
experiment figures are not pipeline nodes: ``keddah experiment e12
e18`` renders them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.analysis.breakdown import component_breakdown
from repro.analysis.compare import validation_summary
from repro.experiments.campaigns import (
    DEFAULT_SEED,
    CampaignConfig,
)
from repro.experiments.dag import (
    PipelineDAG,
    StageContext,
    StageNode,
    register_stage,
)
from repro.experiments.runner import CampaignRunner, CapturePoint, derive_seed
from repro.experiments.store import CaptureStore, canonical_json
from repro.experiments.supervision import RetryPolicy
from repro.generation.generator import generate_trace
from repro.generation.replay import replay_trace
from repro.modeling.model import JobTrafficModel, fit_job_model

PIPELINE_SPEC_FILE = "pipeline.json"


# -- the declarative spec -----------------------------------------------------------


@dataclass(frozen=True)
class PipelineSpec:
    """Everything that determines the built-in pipeline's workload.

    ``sizes_gb`` is the captured sweep per job; ``fit_sizes_gb`` (a
    subset, default: all but the largest) trains the models and the
    largest size is the held-out validation target.  ``campaign``
    holds :class:`~repro.experiments.campaigns.CampaignConfig`
    overrides as a plain dict so the spec stays JSON-serialisable.
    """

    jobs: Tuple[str, ...] = ("terasort", "wordcount", "grep")
    sizes_gb: Tuple[float, ...] = (0.25, 0.5, 1.0)
    fit_sizes_gb: Optional[Tuple[float, ...]] = None
    seed: int = DEFAULT_SEED
    campaign: Mapping[str, Any] = field(default_factory=dict)
    #: Workload plans captured alongside the single-job sweep (one
    #: `capture_plans` node, default parameters per plan).
    plans: Tuple[str, ...] = ()
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ValueError("pipeline spec needs at least one job")
        if len(self.sizes_gb) < 2:
            raise ValueError("pipeline spec needs >= 2 sizes (fit + target)")
        if self.plans:
            from repro.jobs.plan import plan_catalog

            known = plan_catalog()
            unknown_plans = [name for name in self.plans if name not in known]
            if unknown_plans:
                raise ValueError(
                    f"unknown workload plan(s) {unknown_plans}; "
                    f"known: {sorted(known)}")
        if self.fit_sizes_gb is not None:
            unknown = set(self.fit_sizes_gb) - set(self.sizes_gb)
            if unknown:
                raise ValueError(f"fit sizes not captured: {sorted(unknown)}")

    @property
    def training_sizes(self) -> Tuple[float, ...]:
        if self.fit_sizes_gb is not None:
            return tuple(self.fit_sizes_gb)
        return tuple(self.sizes_gb[:-1])

    @property
    def target_gb(self) -> float:
        return self.sizes_gb[-1]

    def campaign_config(self) -> CampaignConfig:
        return CampaignConfig(**dict(self.campaign))

    def to_dict(self) -> Dict[str, Any]:
        return {"jobs": list(self.jobs),
                "sizes_gb": list(self.sizes_gb),
                "fit_sizes_gb": (None if self.fit_sizes_gb is None
                                 else list(self.fit_sizes_gb)),
                "seed": self.seed,
                "campaign": dict(self.campaign),
                "plans": list(self.plans),
                "workers": self.workers}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PipelineSpec":
        """Rebuild a saved spec.

        Specs saved when the pipeline still had figure nodes carry an
        ``experiments`` list (and ``e12_*``/``e18_*`` parameters, ignored
        here); a non-empty list is refused rather than silently dropping
        those nodes.
        """
        experiments = list(data.get("experiments") or ())
        if experiments:
            raise ValueError(
                f"spec names pipeline experiments {experiments}, which are "
                f"no longer pipeline nodes; render them with `keddah "
                f"experiment {' '.join(experiments)}`")
        return cls(jobs=tuple(data["jobs"]),
                   sizes_gb=tuple(data["sizes_gb"]),
                   fit_sizes_gb=(None if data.get("fit_sizes_gb") is None
                                 else tuple(data["fit_sizes_gb"])),
                   seed=int(data.get("seed", DEFAULT_SEED)),
                   campaign=dict(data.get("campaign", {})),
                   plans=tuple(data.get("plans", ())),
                   workers=int(data.get("workers", 1)))

    def with_overrides(self, **overrides: Any) -> "PipelineSpec":
        return replace(self, **overrides)


def save_spec(root: str | Path, spec: PipelineSpec) -> Path:
    from repro.experiments.store import write_atomic

    path = Path(root) / PIPELINE_SPEC_FILE
    return write_atomic(path, json.dumps(
        {"format": 1, "spec": spec.to_dict()}, indent=2, sort_keys=True)
        + "\n")


def load_spec(root: str | Path) -> PipelineSpec:
    path = Path(root) / PIPELINE_SPEC_FILE
    data = json.loads(path.read_text(encoding="utf-8"))
    return PipelineSpec.from_dict(data["spec"])


# -- point bookkeeping --------------------------------------------------------------


def _point_payload(job: str, input_gb: float, seed: int,
                   campaign: Mapping[str, Any]) -> Dict[str, Any]:
    return {"job": job, "input_gb": float(input_gb), "seed": int(seed),
            "campaign": dict(campaign)}


def _payload_point(payload: Mapping[str, Any]) -> CapturePoint:
    return CapturePoint.from_campaign(
        payload["job"], float(payload["input_gb"]), int(payload["seed"]),
        CampaignConfig(**dict(payload["campaign"])))


def base_point_payloads(spec: PipelineSpec) -> List[Dict[str, Any]]:
    """The job x size sweep every core stage consumes."""
    campaign = spec.campaign_config().to_dict()
    return [_point_payload(job, size, derive_seed(spec.seed, index), campaign)
            for job in spec.jobs
            for index, size in enumerate(spec.sizes_gb)]


def capture_point_payloads(spec: PipelineSpec) -> List[Dict[str, Any]]:
    """The capture node's points: the base sweep, deduplicated and
    sorted by store key."""
    unique: Dict[str, Dict[str, Any]] = {}
    for payload in base_point_payloads(spec):
        unique.setdefault(_payload_point(payload).key(), payload)
    return [unique[key] for key in sorted(unique)]


class SharedStoreMiss(LookupError):
    """A downstream stage asked for a point the capture stage never ran.

    Downstream stages must never simulate — the capture stage's config
    is the single source of workload truth, so a miss is a wiring bug
    (or a corrupted store), not something to paper over.
    """


def _load_point(store: CaptureStore, point: CapturePoint):
    entry = store.get(point.key_dict())
    if entry is None:
        raise SharedStoreMiss(
            f"capture store has no entry for {point.job} "
            f"{point.input_gb} GiB seed={point.seed} (key {point.key()[:12]})")
    return entry


# -- stages -------------------------------------------------------------------------


#: A capture node's points get one attempt each: the node's own retry
#: policy is the pipeline's only attempt budget, and a node retry
#: re-simulates just the points its node-local store still lacks.
_ONE_ATTEMPT = RetryPolicy(max_attempts=1)


def _capture_runner(store: CaptureStore,
                    context: StageContext) -> CampaignRunner:
    return CampaignRunner(store=store, workers=context.workers,
                          telemetry=context.telemetry,
                          retry_policy=_ONE_ATTEMPT)


@register_stage("capture")
def stage_capture(context: StageContext) -> None:
    """Simulate every declared point into a node-local CaptureStore."""
    points = [_payload_point(payload)
              for payload in context.config["points"]]
    store = CaptureStore(context.out("store"),
                         registry=context.telemetry.registry)
    runner = _capture_runner(store, context)
    runner.run(points)
    manifest = {"points": sorted(
        ({"key": point.key(), "job": point.job,
          "input_gb": point.input_gb, "seed": point.seed}
         for point in points), key=lambda entry: entry["key"])}
    context.write_output("manifest", canonical_json(manifest) + "\n")


@register_stage("capture_plans")
def stage_capture_plans(context: StageContext) -> None:
    """Capture every declared workload plan into a node-local store.

    Plans get their own store (and node) rather than riding in the
    single-job capture node: their key schema differs and no current
    downstream stage consumes them, so a changed plan list never
    re-keys — and never re-simulates — the shared single-job sweep.
    """
    from repro.analysis.plans import stage_breakdown
    from repro.experiments.runner import PlanPoint

    campaign = CampaignConfig(**dict(context.config["campaign"]))
    seed = int(context.config["seed"])
    points = [PlanPoint.from_campaign(name, derive_seed(seed, index),
                                      campaign)
              for index, name in enumerate(context.config["plans"])]
    store = CaptureStore(context.out("store"),
                         registry=context.telemetry.registry)
    runner = _capture_runner(store, context)
    outcomes = runner.run(points)
    rows = []
    for point, (result, trace) in zip(points, outcomes):
        rows.append({"plan": point.plan, "seed": point.seed,
                     "key": point.key(),
                     "completion_time": result.completion_time,
                     "failed": result.failed,
                     "total_bytes": trace.total_bytes(),
                     "flows": trace.flow_count(),
                     "stages": stage_breakdown(trace)})
    rows.sort(key=lambda row: (row["plan"], row["seed"]))
    context.write_output("plan_summary",
                         canonical_json({"plans": rows}) + "\n")


@register_stage("classify")
def stage_classify(context: StageContext) -> None:
    """Per-point traffic component breakdown from the shared store."""
    store = CaptureStore(context.input("store"),
                         registry=context.telemetry.registry)
    rows = []
    for payload in context.config["points"]:
        point = _payload_point(payload)
        _, trace = _load_point(store, point)
        breakdown = component_breakdown(trace)
        rows.append({"job": point.job, "input_gb": point.input_gb,
                     "seed": point.seed,
                     "total_bytes": trace.total_bytes(),
                     "flows": trace.flow_count(),
                     "components": {name: stats["bytes"]
                                    for name, stats in breakdown.items()}})
    rows.sort(key=lambda row: (row["job"], row["input_gb"], row["seed"]))
    context.write_output("classification",
                         canonical_json({"points": rows}) + "\n")


@register_stage("fit")
def stage_fit(context: StageContext) -> None:
    """One fitted JobTrafficModel per job, from the training sizes."""
    store = CaptureStore(context.input("store"),
                         registry=context.telemetry.registry)
    campaign = dict(context.config["campaign"])
    seed = int(context.config["seed"])
    sizes = [float(size) for size in context.config["sizes_gb"]]
    # Seeds derive from each size's position in the *captured* sweep,
    # so a training subset still resolves the same captured points.
    indices = [int(index) for index in
               context.config.get("size_indices", range(len(sizes)))]
    models_dir = context.out("models")
    models_dir.mkdir(parents=True, exist_ok=True)
    for job in context.config["jobs"]:
        traces = []
        for index, size in zip(indices, sizes):
            point = _payload_point(_point_payload(
                job, size, derive_seed(seed, index), campaign))
            traces.append(_load_point(store, point)[1])
        model = fit_job_model(traces)
        model.to_json(models_dir / f"{job}.json")


@register_stage("replay")
def stage_replay(context: StageContext) -> None:
    """Replay every captured trace through the generation layer."""
    store = CaptureStore(context.input("store"),
                         registry=context.telemetry.registry)
    rows = []
    for payload in context.config["points"]:
        point = _payload_point(payload)
        result, trace = _load_point(store, point)
        report = replay_trace(trace)
        rows.append({"job": point.job, "input_gb": point.input_gb,
                     "seed": point.seed,
                     "captured_jct": result.completion_time,
                     "replayed_makespan": report.makespan,
                     "flows": report.flow_count,
                     "bytes": report.total_bytes})
    rows.sort(key=lambda row: (row["job"], row["input_gb"], row["seed"]))
    context.write_output("replay", canonical_json({"points": rows}) + "\n")


@register_stage("validate")
def stage_validate(context: StageContext) -> None:
    """Score model-generated traces against the held-out target size."""
    store = CaptureStore(context.input("store"),
                         registry=context.telemetry.registry)
    models_dir = context.input("models")
    campaign = dict(context.config["campaign"])
    seed = int(context.config["seed"])
    target_gb = float(context.config["target_gb"])
    target_index = int(context.config["target_index"])
    rows = []
    for job in context.config["jobs"]:
        model = JobTrafficModel.from_json(models_dir / f"{job}.json")
        point = _payload_point(_point_payload(
            job, target_gb, derive_seed(seed, target_index), campaign))
        _, captured = _load_point(store, point)
        synthetic = generate_trace(model, input_gb=target_gb,
                                   seed=seed + 999)
        summary = validation_summary(captured, synthetic)
        rows.append({
            "job": job, "target_gb": target_gb,
            "mean_volume_error": summary.mean_volume_error,
            "components": {
                name: {"count_error": comparison.count_error,
                       "volume_error": comparison.volume_error,
                       "size_ks": (comparison.size_ks.statistic
                                   if comparison.size_ks else None)}
                for name, comparison in sorted(
                    summary.components.items())}})
    context.write_output("validation",
                         canonical_json({"jobs": rows}) + "\n")


@register_stage("report")
def stage_report(context: StageContext) -> None:
    """Aggregate every upstream artifact into one report.md/.json."""
    sections: List[str] = ["# keddah pipeline report", ""]
    aggregate: Dict[str, Any] = {}

    classification = json.loads(
        context.input("classification").read_text(encoding="utf-8"))
    aggregate["classification"] = classification
    sections.append("## Traffic classification")
    sections.append(f"{len(classification['points'])} captured points; "
                    "per-point component bytes in report.json.")
    sections.append("")

    models_dir = context.input("models")
    model_files = sorted(path.name for path in models_dir.glob("*.json"))
    aggregate["models"] = model_files
    sections.append("## Fitted models")
    sections.extend(f"- {name}" for name in model_files)
    sections.append("")

    replay = json.loads(context.input("replay").read_text(encoding="utf-8"))
    aggregate["replay"] = replay
    sections.append("## Replay")
    sections.append(f"{len(replay['points'])} traces replayed through the "
                    "generation layer.")
    sections.append("")

    if "plan_summary" in context.inputs:
        plans = json.loads(
            context.input("plan_summary").read_text(encoding="utf-8"))
        aggregate["plans"] = plans
        sections.append("## Workload plans")
        for row in plans["plans"]:
            stage_names = [s["stage"] for s in row["stages"]
                           if s["stage"] != "(shared)"]
            sections.append(
                f"- {row['plan']} (seed {row['seed']}): "
                f"{'→'.join(stage_names)}; completion "
                f"{row['completion_time']:.2f} s, "
                f"{row['flows']} flows")
        sections.append("")

    validation = json.loads(
        context.input("validation").read_text(encoding="utf-8"))
    aggregate["validation"] = validation
    sections.append("## Validation (held-out target)")
    for row in validation["jobs"]:
        sections.append(f"- {row['job']} @ {row['target_gb']} GiB: "
                        f"mean volume error "
                        f"{row['mean_volume_error']:.4f}")
    sections.append("")

    context.write_output("report_md", "\n".join(sections).rstrip() + "\n")
    context.write_output("report_json", canonical_json(aggregate) + "\n")


@register_stage("sleep")
def stage_sleep(context: StageContext) -> None:
    """Debug/test stage: sleep then write a marker.

    Exists so watchdog deadlines (which need a registry stage runnable
    in a spawn worker) have something deterministic to kill.
    """
    import time

    time.sleep(float(context.config.get("seconds", 0.0)))
    context.write_output("marker",
                         str(context.config.get("text", "slept")) + "\n")


# -- wiring -------------------------------------------------------------------------


def build_pipeline(spec: PipelineSpec) -> PipelineDAG:
    """The built-in capture→classify→fit→replay→validate→report DAG."""
    dag = PipelineDAG("keddah")
    # The worker count reaches the capture stages through their
    # StageContext, not their config: it cannot change a capture's
    # bytes, so it must not re-key (and re-simulate) the sweep.
    dag.workers = spec.workers
    base = base_point_payloads(spec)
    campaign = spec.campaign_config().to_dict()
    training = list(spec.training_sizes)
    training_indices = [spec.sizes_gb.index(size)
                        for size in spec.training_sizes]
    # Seeds derive from the position in the *captured* sweep, so the
    # fit stage must know each training size's original index.
    dag.add(StageNode(
        "capture", "capture",
        config={"points": capture_point_payloads(spec)},
        out_paths={"store": "store", "manifest": "manifest.json"}))
    if spec.plans:
        dag.add(StageNode(
            "capture_plans", "capture_plans",
            config={"plans": list(spec.plans), "seed": spec.seed,
                    "campaign": campaign},
            out_paths={"store": "store",
                       "plan_summary": "plan_summary.json"}))
    dag.add(StageNode(
        "classify", "classify",
        config={"points": base},
        in_paths={"store": ("capture", "store")},
        out_paths={"classification": "classification.json"}))
    dag.add(StageNode(
        "fit", "fit",
        config={"jobs": list(spec.jobs), "sizes_gb": training,
                "size_indices": training_indices,
                "seed": spec.seed, "campaign": campaign},
        in_paths={"store": ("capture", "store")},
        out_paths={"models": "models"}))
    dag.add(StageNode(
        "replay", "replay",
        config={"points": base},
        in_paths={"store": ("capture", "store")},
        out_paths={"replay": "replay.json"}))
    dag.add(StageNode(
        "validate", "validate",
        config={"jobs": list(spec.jobs), "target_gb": spec.target_gb,
                "target_index": len(spec.sizes_gb) - 1,
                "seed": spec.seed, "campaign": campaign},
        in_paths={"store": ("capture", "store"),
                  "models": ("fit", "models")},
        out_paths={"validation": "validation.json"}))
    report_inputs = {"classification": ("classify", "classification"),
                     "models": ("fit", "models"),
                     "replay": ("replay", "replay"),
                     "validation": ("validate", "validation")}
    if spec.plans:
        report_inputs["plan_summary"] = ("capture_plans", "plan_summary")
    dag.add(StageNode(
        "report", "report",
        config={},
        in_paths=report_inputs,
        out_paths={"report_md": "report.md", "report_json": "report.json"}))
    return dag


__all__ = [
    "PipelineSpec",
    "SharedStoreMiss",
    "base_point_payloads",
    "build_pipeline",
    "capture_point_payloads",
    "load_spec",
    "save_spec",
]
