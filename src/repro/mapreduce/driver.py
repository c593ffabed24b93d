"""Job and plan drivers: submit rounds and stages, report results.

One :class:`JobDriver` executes one :class:`~repro.jobs.base.JobSpec`.
For single-round jobs it submits one
:class:`~repro.mapreduce.appmaster.MRAppMaster`; for iterative profiles
it chains rounds the way real drivers (Mahout, Giraph-on-MR) do:

* ``reread_input=False`` (PageRank): round *k+1* reads round *k*'s
  output files;
* ``reread_input=True`` (K-Means): every round re-reads the original
  input; the small per-round output is the model, not the next input.

All rounds share the job's id, so the capture stage aggregates the
whole iterative workload into one :class:`~repro.capture.records.
JobTrace`, matching how the paper treats an application run.

A :class:`PlanExecutor` generalises the driver to a whole
:class:`~repro.jobs.plan.WorkloadPlan`: every stage runs as one
JobDriver, root stages are admitted concurrently at submission, and
dependent stages wait for their upstream done-signals before resolving
their input from the upstream jobs' *actual HDFS output files* — so
cross-stage data moves through the real write/read path and shows up
on the wire.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.cluster.topology import Host
from repro.jobs.base import JobSpec, make_job
from repro.jobs.plan import PlanStage, WorkloadPlan
from repro.mapreduce.appmaster import MRAppMaster
from repro.mapreduce.result import JobResult, PlanResult, StageResult
from repro.simkit.core import Signal

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.cluster import HadoopCluster


class JobDriver:
    """Runs one job (all its rounds) on a HadoopCluster.

    ``input_paths`` overrides where the first round reads from (plan
    stages pass the upstream stage's HDFS output files); the default is
    the spec's own ``input_path``.  ``parent_span``/``span_attrs`` hang
    the job span under a plan span with plan/stage labels — both are
    no-ops on the legacy single-job path, which keeps that path's
    captures and telemetry byte-for-byte unchanged.
    """

    def __init__(self, cluster: "HadoopCluster", spec: JobSpec,
                 client_host: Optional[Host] = None,
                 input_paths: Optional[List[str]] = None,
                 parent_span: Any = None,
                 span_attrs: Optional[Dict[str, Any]] = None):
        self.cluster = cluster
        self.spec = spec
        self.client_host = client_host or cluster.master
        self._tracer = cluster.sim.telemetry.tracer
        self._input_paths = list(input_paths) if input_paths is not None else None
        self._parent_span = parent_span
        self._span_attrs = dict(span_attrs) if span_attrs else {}
        self.done: Signal = cluster.sim.signal(name=f"{spec.job_id}.done")
        self.result = JobResult(job_id=spec.job_id, kind=spec.kind,
                                input_bytes=spec.input_bytes,
                                submitted_at=cluster.sim.now)
        self._rounds_submitted = 0
        cluster.sim.process(self._run(), name=f"driver[{spec.job_id}]")

    def _run(self):
        profile = self.spec.profile
        sim = self.cluster.sim
        job_span = self._tracer.start(
            "job", self.spec.job_id, sim.now, parent=self._parent_span,
            kind_of_job=self.spec.kind, input_bytes=self.spec.input_bytes,
            backend=self.cluster.net.name, **self._span_attrs)
        if self._input_paths is not None:
            input_paths = list(self._input_paths)
        else:
            input_paths = [self.spec.input_path] if not profile.is_generator else []
        yield from self.cluster.stage_job_resources(self.spec, self.client_host)
        for round_index in range(profile.iterations):
            output_path = self._round_output(round_index)
            app = MRAppMaster(
                sim=self.cluster.sim,
                net=self.cluster.net,
                dfs=self.cluster.dfs,
                rm=self.cluster.rm,
                config=self.cluster.config,
                spec=self.spec,
                input_paths=input_paths,
                output_path=output_path,
                rng=self.cluster.rng.stream(f"job.{self.spec.job_id}.r{round_index}"),
                round_index=round_index,
                client_host=self.client_host,
                node_speed=self.cluster.node_speed,
                parent_span=job_span,
            )
            self.cluster.rm.submit_application(app, client_host=self.client_host)
            round_result = yield app.done
            self.result.rounds.append(round_result)
            if round_result.failed:
                break  # an unrecoverable round (AM loss) fails the job
            is_last = round_index == profile.iterations - 1
            if not is_last and not profile.reread_input:
                input_paths = self._output_files(output_path)
        self._tracer.end(job_span, sim.now,
                         rounds=len(self.result.rounds),
                         failed=any(r.failed for r in self.result.rounds))
        self.done.fire(self.result)

    def _round_output(self, round_index: int) -> str:
        if self.spec.profile.iterations == 1:
            return self.spec.output_path
        return f"{self.spec.output_path}/iter{round_index:02d}"

    def output_files(self) -> List[str]:
        """The job's final-round HDFS output files (for chaining stages)."""
        last_round = max(len(self.result.rounds), 1) - 1
        return self._output_files(self._round_output(last_round))

    def _output_files(self, output_path: str) -> List[str]:
        prefix = output_path + "/"
        files = [path for path in self.cluster.dfs.namenode.list_files()
                 if path.startswith(prefix)]
        if not files:
            raise RuntimeError(
                f"{self.spec.job_id}: round produced no output under {output_path}")
        return files


class PlanExecutor:
    """Runs one :class:`WorkloadPlan` (all its stages) on a HadoopCluster.

    Every stage gets its own simulation process: root stages resolve
    and submit immediately (so independent stages contend for
    containers concurrently under the YARN scheduler), dependent stages
    first wait on their upstream done-signals, then list the upstream
    jobs' actual HDFS output files, apply the per-edge carryover
    selection and run their job over those files.  Stage job ids derive
    from the plan id (default: the plan signature), so each stage draws
    deterministic RNG streams regardless of execution interleaving.
    """

    def __init__(self, cluster: "HadoopCluster", plan: WorkloadPlan,
                 client_host: Optional[Host] = None,
                 plan_id: Optional[str] = None):
        self.cluster = cluster
        self.plan = plan
        self.client_host = client_host or cluster.master
        self.plan_id = plan_id or f"plan_{plan.name}_{plan.signature()[:10]}"
        self._tracer = cluster.sim.telemetry.tracer
        sim = cluster.sim
        self.done: Signal = sim.signal(name=f"{self.plan_id}.done")
        self.result = PlanResult(plan=plan.name, plan_id=self.plan_id,
                                 signature=plan.signature(),
                                 submitted_at=sim.now)
        self.drivers: Dict[str, JobDriver] = {}
        self._order = plan.topological_order()
        self._stage_done: Dict[str, Signal] = {}
        self._stage_results: Dict[str, StageResult] = {}
        self._span = self._tracer.start(
            "plan", self.plan_id, sim.now, plan=plan.name,
            stages=len(plan.stages), backend=cluster.net.name)
        for stage in self._order:
            self._stage_done[stage.name] = sim.signal(
                name=f"{self.plan_id}.{stage.name}.done")
        for stage in self._order:
            sim.process(self._run_stage(stage),
                        name=f"plan[{self.plan_id}].{stage.name}")
        sim.process(self._finalise(), name=f"plan[{self.plan_id}]")

    # -- stage processes ----------------------------------------------------------

    def stage_job_id(self, stage: PlanStage) -> str:
        return f"{self.plan_id}.{stage.name}"

    def _run_stage(self, stage: PlanStage):
        sim = self.cluster.sim
        if stage.inputs:
            yield sim.all_of([self._stage_done[edge.source]
                              for edge in stage.inputs])
            blocked = [edge.source for edge in stage.inputs
                       if not self._stage_results[edge.source].completed]
            if blocked:
                self._settle_stage(stage, StageResult(
                    name=stage.name, kind=stage.kind, status="skipped",
                    deps=stage.dep_names()))
                return
            input_paths, input_bytes = self._resolve_inputs(stage)
            spec = self._stage_spec(stage, input_bytes=input_bytes)
        else:
            input_paths = None
            spec = self._stage_spec(stage)
            self.cluster.preload_input(spec)
        driver = JobDriver(
            self.cluster, spec, client_host=self.client_host,
            input_paths=input_paths, parent_span=self._span,
            span_attrs={"plan": self.plan.name, "stage": stage.name})
        self.drivers[stage.name] = driver
        job_result = yield driver.done
        status = "failed" if job_result.failed else "completed"
        self._settle_stage(stage, StageResult(
            name=stage.name, kind=stage.kind, status=status,
            deps=stage.dep_names(), job=job_result))

    def _settle_stage(self, stage: PlanStage, record: StageResult) -> None:
        self._stage_results[stage.name] = record
        self._stage_done[stage.name].fire(record)

    def _finalise(self):
        yield self.cluster.sim.all_of(
            [self._stage_done[stage.name] for stage in self._order])
        self.result.stages = [self._stage_results[stage.name]
                              for stage in self._order]
        self._tracer.end(self._span, self.cluster.sim.now,
                         failed=self.result.failed)
        self.done.fire(self.result)

    # -- stage resolution ---------------------------------------------------------

    def _stage_spec(self, stage: PlanStage,
                    input_bytes: Optional[float] = None) -> JobSpec:
        spec = make_job(stage.kind, input_gb=stage.input_gb or 0.0,
                        num_reducers=stage.num_reducers, queue=stage.queue,
                        job_id=self.stage_job_id(stage), **stage.overrides())
        if input_bytes is not None:
            spec.input_bytes = float(input_bytes)
        return spec

    def _resolve_inputs(self, stage: PlanStage) -> Tuple[List[str], float]:
        """Upstream HDFS files this stage reads, after carryover selection."""
        namenode = self.cluster.dfs.namenode
        paths: List[str] = []
        total = 0.0
        for edge in stage.inputs:
            upstream = self.drivers[edge.source]
            files = sorted(upstream.output_files())
            sized = [(path, namenode.file_size(path)) for path in files]
            produced = float(sum(size for _, size in sized))
            if produced <= 0:
                raise RuntimeError(
                    f"{self.plan_id}: stage {stage.name!r} reads "
                    f"{edge.source!r}, which produced no bytes")
            target = edge.carryover * produced
            taken = 0.0
            for path, size in sized:
                if size <= 0:
                    continue
                paths.append(path)
                taken += size
                # File-granular selection: stop at the first sorted
                # prefix whose cumulative size reaches the fraction.
                if taken >= target - 1e-9:
                    break
            total += taken
        return paths, total

    # -- capture metadata ---------------------------------------------------------

    def stage_job_ids(self) -> List[str]:
        return [driver.spec.job_id for driver in self.drivers.values()]

    def plan_meta(self) -> Dict[str, Any]:
        """The ``meta.extra['plan']`` payload of a plan capture."""
        stages = []
        for stage in self._order:
            record = self.result.stage(stage.name)
            entry: Dict[str, Any] = {
                "name": stage.name,
                "kind": stage.kind,
                "status": record.status,
                "deps": stage.dep_names(),
                "carryover": {edge.source: edge.carryover
                              for edge in stage.inputs},
                "job_id": (record.job.job_id if record.job is not None
                           else self.stage_job_id(stage)),
            }
            if record.job is not None:
                job = record.job
                entry.update({
                    "submit_time": job.submit_time,
                    "finish_time": job.finish_time,
                    "completion_time": job.completion_time,
                    "input_bytes": job.input_bytes,
                    "shuffle_bytes": job.shuffle_bytes,
                    "output_bytes": job.output_bytes,
                    "num_maps": job.num_maps,
                    "num_reduces": job.num_reduces,
                    "rounds": len(job.rounds),
                })
            stages.append(entry)
        return {"name": self.plan.name,
                "plan_id": self.plan_id,
                "signature": self.result.signature,
                "params": dict(self.plan.params),
                "score_rule": self.plan.score_rule,
                "stages": stages}
