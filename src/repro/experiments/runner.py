"""Campaign execution: fan independent capture points out to workers.

A campaign is a list of :class:`CapturePoint` — fully described,
mutually independent simulations (job kind, input size, derived seed,
cluster + Hadoop configuration, job kwargs).  The
:class:`CampaignRunner` resolves each point through a three-level
hierarchy:

1. the process-local memo (:mod:`repro.experiments.campaigns`),
2. the persistent content-addressed store
   (:class:`repro.experiments.store.CaptureStore`), and
3. actual simulation — serial in-process, or fanned out across
   ``workers`` processes with a ``spawn`` context.

The store is also the campaign's checkpoint: each simulated point is
published to it the moment it resolves, so a campaign killed mid-run
keeps every finished point, and rerunning it against the same store
simulates only what is missing.

Determinism is the contract that makes the fan-out safe: every point
carries its own derived seed and builds a fresh
:class:`~repro.mapreduce.cluster.HadoopCluster`, so a point's
(result, trace) depends only on the point — never on which worker ran
it or in what order.  Parallel campaign output is flow-for-flow
identical to serial output, and both are byte-identical once written
as JSONL.

Supervision
-----------
Simulation is executed under the supervision layer
(:mod:`repro.experiments.supervision`): transient worker failures
(broken pools, SIGKILLed workers, pickling errors) are retried with
deterministic exponential backoff; a per-point wall-clock deadline is
enforced by a watchdog that kills hung workers; points that exhaust
their attempt budget — or fail deterministically — are quarantined
with failure fingerprints and the campaign *completes*, returning a
partial result set.  After ``pool_failure_limit`` consecutive pool
collapses the runner degrades gracefully from parallel to serial
in-process execution.  Every mechanism is counted on the telemetry
registry (``campaign.retries``, ``campaign.deadline_kills``,
``campaign.quarantined``, ``campaign.pool_failures``,
``campaign.degraded_serial``).

Seed derivation
---------------
Historically the repo had two formulas — ``seed + size_index`` in the
campaign memo and ``seed * 10_007 + size_index * 101 + repeat`` in the
top-level API — so the same logical sweep point hashed to different
captures depending on the entry path.  :func:`derive_seed` is now the
single documented rule, used by both.
"""

from __future__ import annotations

import os
import time as _time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.capture.records import JobTrace
from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.jobs import make_job
from repro.mapreduce.cluster import HadoopCluster
from repro.mapreduce.result import JobResult
from repro.obs.aggregate import AggregateRegistry, EventBroker, delta_envelope
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.experiments.store import (TRACE_FORMAT_VERSION, CaptureStore,
                                     key_hash)
from repro.experiments.supervision import (
    CampaignPointsFailed,
    DeadlineExpired,
    FailureFingerprint,
    PointFailure,
    Quarantine,
    RetryPolicy,
    classify_failure,
)


def derive_seed(base_seed: int, size_index: int, repeat: int = 0) -> int:
    """The campaign seed-derivation rule (one formula for all layers).

    ``base_seed * 10_007 + size_index * 101 + repeat`` — multiplying the
    base by a prime much larger than any sweep keeps campaigns with
    nearby base seeds from colliding, and the ``* 101`` stride keeps
    (size_index, repeat) pairs injective for any realistic sweep
    (repeats < 101).  The function is pure, so serial and parallel
    execution derive identical seeds for identical points.
    """
    return base_seed * 10_007 + size_index * 101 + repeat


@dataclass(frozen=True)
class CapturePoint:
    """One fully-specified capture: everything a worker needs to run it.

    ``key_config`` is the canonical configuration sub-dict used for
    content addressing; constructors set it so that logically equal
    points (same campaign, or same explicit spec+config) share one
    hash regardless of which API layer built them.
    """

    job: str
    input_gb: float
    seed: int
    cluster_spec: ClusterSpec
    hadoop_config: HadoopConfig
    job_kwargs: Tuple[Tuple[str, Any], ...] = ()
    key_config: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def from_campaign(cls, job: str, input_gb: float, seed: int,
                      campaign: "Any", job_kwargs: Optional[Mapping[str, Any]]
                      = None) -> "CapturePoint":
        """Point for a :class:`~repro.experiments.campaigns.CampaignConfig`."""
        return cls(job=job, input_gb=float(input_gb), seed=int(seed),
                   cluster_spec=campaign.cluster_spec(),
                   hadoop_config=campaign.hadoop_config(),
                   job_kwargs=_freeze(job_kwargs),
                   key_config=_freeze({"campaign": campaign.to_dict()}))

    @classmethod
    def from_configs(cls, job: str, input_gb: float, seed: int,
                     cluster_spec: ClusterSpec, hadoop_config: HadoopConfig,
                     job_kwargs: Optional[Mapping[str, Any]] = None,
                     ) -> "CapturePoint":
        """Point for explicit (ClusterSpec, HadoopConfig) pairs (api layer)."""
        return cls(job=job, input_gb=float(input_gb), seed=int(seed),
                   cluster_spec=cluster_spec, hadoop_config=hadoop_config,
                   job_kwargs=_freeze(job_kwargs),
                   key_config=_freeze({"cluster": cluster_spec.to_dict(),
                                       "hadoop": hadoop_config.to_dict()}))

    def key_dict(self) -> Dict[str, Any]:
        """Canonical key: hash input for the store AND the memo key."""
        return {
            "format": TRACE_FORMAT_VERSION,
            "job": self.job,
            "input_gb": self.input_gb,
            "seed": self.seed,
            # Explicit top-level backend discriminator: analytic and
            # fluid captures of the same point must never alias, no
            # matter which constructor built the key_config payload.
            # The fluid *engine* is deliberately absent (ClusterSpec.
            # to_dict drops it): scalar and vectorized captures are
            # byte-identical, so they share one store entry.
            "backend": self.cluster_spec.backend,
            "config": _thaw(self.key_config),
            "job_kwargs": _thaw(self.job_kwargs),
        }

    def key(self) -> str:
        return key_hash(self.key_dict())

    def logical_key(self) -> str:
        """Hash of the workload alone: backend- and format-independent.

        Seeds the job id, so the same logical point produces the same
        RNG streams (and therefore the same flow population) under
        every transport backend — while :meth:`key` still separates
        their store entries.
        """
        logical = self.key_dict()
        del logical["format"]
        del logical["backend"]
        config = {name: dict(value) if isinstance(value, dict) else value
                  for name, value in logical["config"].items()}
        for section in config.values():
            if isinstance(section, dict):
                section.pop("backend", None)
        logical["config"] = config
        return key_hash(logical)

    def simulate(self, telemetry: Optional[Telemetry] = None,
                 ) -> Tuple[JobResult, JobTrace]:
        """Run this point on a fresh cluster (pure function of the point).

        The job id is derived from the point's content hash rather than
        the process-global job counter, so the (result, trace) bytes
        are identical no matter which process/worker runs the point or
        how many jobs ran before it — telemetry included: spans and
        probes only read engine state, so passing an enabled
        ``telemetry`` never changes the returned bytes.
        """
        kwargs = dict(self.job_kwargs)
        kwargs.setdefault("job_id", f"job_{self.job}_{self.logical_key()[:10]}")
        cluster = HadoopCluster(self.cluster_spec, self.hadoop_config,
                                seed=self.seed, telemetry=telemetry)
        spec = make_job(self.job, input_gb=self.input_gb, **kwargs)
        results, traces = cluster.run([spec])
        return results[0], traces[0]


@dataclass(frozen=True)
class PlanPoint:
    """One fully-specified workload-plan capture.

    The plan analogue of :class:`CapturePoint`, presenting the same
    surface the runner consumes (``key``/``key_dict``/``simulate`` plus
    the ``job``/``input_gb``/``seed`` fields supervision reports on) —
    so plans flow through the memo → store → simulate hierarchy, worker
    pools, retries and quarantine untouched.

    Keying: the ``plan`` block carries the plan name, its parameters
    *and* the built plan's structural signature.  The key has no
    ``job``/``input_gb``/``job_kwargs`` fields and no single-job key
    ever contains a ``plan`` field, so the two key families can never
    alias inside one store.
    """

    plan: str
    params: Tuple[Tuple[str, Any], ...]
    seed: int
    cluster_spec: ClusterSpec
    hadoop_config: HadoopConfig
    key_config: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def from_campaign(cls, plan: str, seed: int, campaign: "Any",
                      params: Optional[Mapping[str, Any]] = None,
                      ) -> "PlanPoint":
        return cls(plan=plan, params=_freeze(params), seed=int(seed),
                   cluster_spec=campaign.cluster_spec(),
                   hadoop_config=campaign.hadoop_config(),
                   key_config=_freeze({"campaign": campaign.to_dict()}))

    @classmethod
    def from_configs(cls, plan: str, seed: int, cluster_spec: ClusterSpec,
                     hadoop_config: HadoopConfig,
                     params: Optional[Mapping[str, Any]] = None,
                     ) -> "PlanPoint":
        return cls(plan=plan, params=_freeze(params), seed=int(seed),
                   cluster_spec=cluster_spec, hadoop_config=hadoop_config,
                   key_config=_freeze({"cluster": cluster_spec.to_dict(),
                                       "hadoop": hadoop_config.to_dict()}))

    def build(self) -> "Any":
        """Materialise the :class:`~repro.jobs.plan.WorkloadPlan`."""
        from repro.jobs.plan import make_plan

        return make_plan(self.plan, **_thaw(self.params))

    # Supervision-facing fields (quarantine records, progress events).

    @property
    def job(self) -> str:
        return f"plan:{self.plan}"

    @property
    def input_gb(self) -> float:
        """External bytes entering the plan, in GB (display only)."""
        return self.build().external_gb

    def key_dict(self) -> Dict[str, Any]:
        """Canonical key: hash input for the store AND the memo key."""
        plan = self.build()
        return {
            "format": TRACE_FORMAT_VERSION,
            "plan": {"name": self.plan,
                     "params": _thaw(self.params),
                     "signature": plan.signature()},
            "seed": self.seed,
            "backend": self.cluster_spec.backend,
            "config": _thaw(self.key_config),
        }

    def key(self) -> str:
        return key_hash(self.key_dict())

    def logical_key(self) -> str:
        """Hash of the workload alone: backend- and format-independent."""
        logical = self.key_dict()
        del logical["format"]
        del logical["backend"]
        config = {name: dict(value) if isinstance(value, dict) else value
                  for name, value in logical["config"].items()}
        for section in config.values():
            if isinstance(section, dict):
                section.pop("backend", None)
        logical["config"] = config
        return key_hash(logical)

    def simulate(self, telemetry: Optional[Telemetry] = None,
                 ) -> Tuple[Any, JobTrace]:
        """Run this plan on a fresh cluster (pure function of the point).

        The plan id derives from the point's logical content hash, so
        every stage's job id — and therefore its RNG streams, HDFS
        paths and flow population — is identical no matter which
        worker runs the point or under which transport backend.
        """
        plan = self.build()
        plan_id = f"plan_{self.plan}_{self.logical_key()[:10]}"
        cluster = HadoopCluster(self.cluster_spec, self.hadoop_config,
                                seed=self.seed, telemetry=telemetry)
        return cluster.run_plan(plan, plan_id=plan_id)


def _freeze(mapping: Optional[Mapping[str, Any]]) -> Tuple[Tuple[str, Any], ...]:
    """Sorted item-tuple of a kwargs dict (hashable, deterministic)."""
    if not mapping:
        return ()
    return tuple(sorted(mapping.items()))


def _thaw(items: Tuple[Tuple[str, Any], ...]) -> Dict[str, Any]:
    return dict(items)


def _simulate_point(point: CapturePoint) -> Tuple[JobResult, JobTrace]:
    """Module-level worker entry point (picklable under spawn)."""
    return point.simulate()


def _simulate_point_observed(
        point: CapturePoint, config: Optional[TelemetryConfig],
        delta_id: Optional[str] = None,
) -> Tuple[Tuple[JobResult, JobTrace], Dict[str, Any]]:
    """Worker entry point that also ships telemetry back to the parent.

    The worker builds its own telemetry from the picklable ``config``
    (span sinks stay per-process — workers default to the null sink).
    With a ``delta_id`` (the point's content hash) it returns an
    identified *delta envelope* — the worker telemetry is fresh per
    point, so the registry snapshot is exactly the increment — which
    the parent folds into its :class:`~repro.obs.aggregate.
    AggregateRegistry`: counters sum, gauges land under this worker's
    label, and a re-delivered completion merges exactly once.  Without
    one it returns the legacy plain snapshot.
    """
    telemetry = config.build() if config is not None else Telemetry.disabled()
    value = point.simulate(telemetry=telemetry)
    if delta_id is None:
        return value, telemetry.snapshot()
    envelope = delta_envelope(telemetry.registry,
                              source=f"worker-{os.getpid()}",
                              delta_id=delta_id,
                              spans_emitted=telemetry.tracer.spans_emitted)
    return value, envelope


#: The per-level counters a runner keeps on its registry as
#: ``campaign.<name>``, in presentation order.
_RUNNER_STAT_FIELDS = ("points", "points_completed", "memo_hits",
                       "store_hits", "simulated", "parallel_simulated",
                       "retries", "deadline_kills", "quarantined",
                       "pool_failures", "degraded_serial")


@dataclass
class _Supervised:
    """Mutable per-point supervision state while a campaign resolves."""

    point: CapturePoint
    attempts: int = 0
    fingerprints: List[FailureFingerprint] = field(default_factory=list)

    def failure(self, key: str) -> PointFailure:
        return PointFailure(key=key, job=self.point.job,
                            input_gb=self.point.input_gb,
                            seed=self.point.seed, attempts=self.attempts,
                            fingerprints=list(self.fingerprints))


#: How the watchdog polls in-flight futures when a deadline is set
#: (seconds).  Coarse enough to be free, fine enough that a kill lands
#: within a small fraction of any realistic deadline.
_WATCHDOG_TICK = 0.05


class CampaignRunner:
    """Resolve capture points through memo → store → simulation.

    ``workers <= 1`` simulates in-process; ``workers > 1`` uses a
    ``spawn``-context :class:`ProcessPoolExecutor` so workers import the
    package fresh (fork-safety of the simulator's global state is never
    relied on).  ``memo_get``/``memo_put`` plug in the process-local
    memo without creating an import cycle with ``campaigns``.

    Supervision knobs:

    ``retry_policy``
        attempt budget, backoff and per-point deadline
        (:class:`~repro.experiments.supervision.RetryPolicy`).  Deadline
        enforcement needs process isolation, so a configured deadline
        routes even ``workers == 1`` runs through a one-worker pool.
    ``quarantine``
        optional sidecar recording points that exhausted their budget.
    ``strict``
        when True (default), :meth:`run` raises
        :class:`~repro.experiments.supervision.CampaignPointsFailed`
        *after* resolving everything else; when False it returns the
        partial result list with ``None`` at quarantined indices.
    ``pool_failure_limit``
        consecutive pool collapses tolerated before degrading the rest
        of the campaign to serial in-process execution.
    """

    def __init__(self, store: Optional[CaptureStore] = None, workers: int = 1,
                 memo_get=None, memo_put=None,
                 telemetry: Optional[Telemetry] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 quarantine: Optional[Quarantine] = None,
                 strict: bool = True, pool_failure_limit: int = 3,
                 events: Optional[EventBroker] = None):
        self.store = store
        self.workers = max(1, int(workers))
        self._memo_get = memo_get or (lambda key: None)
        self._memo_put = memo_put or (lambda key, value: None)
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.quarantine = quarantine
        self.strict = strict
        self.pool_failure_limit = max(1, int(pool_failure_limit))
        # Worker registry deltas fold in here: counters sum into the
        # runner telemetry's registry, gauges land per-worker, and a
        # re-delivered completion merges exactly once.  The serve
        # daemon reads the same registry, so the aggregate IS the live
        # cluster-wide view.
        self.aggregate = AggregateRegistry(self.telemetry.registry)
        # Optional live progress stream (campaign/point events) for the
        # serve daemon's /events endpoint.
        self.events = events
        self.failures: List[PointFailure] = []
        self._total_points = 0
        registry = self.telemetry.registry
        self._counters = {name: registry.counter(f"campaign.{name}")
                          for name in _RUNNER_STAT_FIELDS}

    def _count(self, name: str, amount: int = 1) -> None:
        self._counters[name].value += amount

    def _publish(self, kind: str, **payload: Any) -> None:
        """Emit a live progress event when a broker is attached."""
        if self.events is not None:
            self.events.publish(kind, **payload)

    def _resolved(self, point: CapturePoint, origin: str) -> None:
        """Count one completed point and stream a progress event.

        Called at resolution time — inside the serial loop / the pool's
        fan-in — so a live observer sees ``campaign.points_completed``
        advance *during* the run, not after it.
        """
        self._count("points_completed")
        self._publish("point", status="completed", origin=origin,
                      job=point.job, input_gb=point.input_gb,
                      seed=point.seed,
                      completed=int(self._counters["points_completed"].value),
                      total=self._total_points)

    def _simulated(self, key: str, point: CapturePoint,
                   value: Tuple[JobResult, JobTrace]) -> None:
        """Checkpoint one freshly simulated point, then count it resolved.

        Runs inside the serial loop / the pool's fan-in, so a campaign
        killed mid-run has already stored every point that finished.
        """
        if self.store is not None:
            self.store.put(point.key_dict(), *value)
        self._memo_put(key, value)
        self._resolved(point, "simulated")

    def _absorb(self, envelope: Optional[Dict[str, Any]]) -> None:
        """Fold a worker's telemetry return into the parent registry.

        Identified delta envelopes (``source`` key) go through the
        aggregate — idempotent per (source, delta_id), gauges labelled
        per worker; legacy plain snapshots merge directly.
        """
        if envelope and "source" in envelope:
            self.aggregate.apply(envelope)
        else:
            self.telemetry.absorb(envelope)

    # -- single point -------------------------------------------------------------

    def run_point(self, point: CapturePoint) -> Tuple[JobResult, JobTrace]:
        return self.run([point])[0]

    # -- campaign -----------------------------------------------------------------

    def run(self, points: Sequence[CapturePoint],
            ) -> List[Tuple[JobResult, JobTrace]]:
        """Resolve every point, preserving input order.

        Duplicate points (same key) are simulated at most once per
        call; later occurrences reuse the first resolution.  Points
        that fail past their attempt budget are quarantined; see
        ``strict`` for how they surface.
        """
        results: List[Optional[Tuple[JobResult, JobTrace]]] = [None] * len(points)
        pending: Dict[str, List[int]] = {}
        pending_points: Dict[str, CapturePoint] = {}
        self.failures = []
        self._count("points", len(points))
        self._total_points = len(points)
        self._publish("campaign", status="started", points=len(points))

        for index, point in enumerate(points):
            key = point.key()
            if key in pending:
                pending[key].append(index)
                continue
            hit = self._memo_get(key)
            if hit is not None:
                self._count("memo_hits")
                results[index] = hit
                self._resolved(point, "memo")
                continue
            if self.store is not None:
                stored = self.store.get(point.key_dict())
                if stored is not None:
                    self._count("store_hits")
                    self._memo_put(key, stored)
                    results[index] = stored
                    self._resolved(point, "store")
                    continue
            pending[key] = [index]
            pending_points[key] = point

        if pending:
            simulated, failures = self._simulate_all(
                list(pending_points.items()))
            for key, value in simulated.items():
                for index in pending[key]:
                    results[index] = value
                # The first occurrence was already counted live at
                # resolution time; later (deduplicated) indices settle
                # here.
                duplicates = len(pending[key]) - 1
                if duplicates:
                    self._count("points_completed", duplicates)
            for failure in failures:
                self._count("quarantined")
                self.failures.append(failure)
                if self.quarantine is not None:
                    self.quarantine.record(failure)
                self._publish("point", status="quarantined",
                              job=failure.job, input_gb=failure.input_gb,
                              seed=failure.seed, attempts=failure.attempts)
        self._publish("campaign", status="completed",
                      points=len(points),
                      completed=int(
                          self._counters["points_completed"].value),
                      quarantined=len(self.failures))
        if self.failures and self.strict:
            raise CampaignPointsFailed(list(self.failures), results)
        return results  # type: ignore[return-value]

    def manifest(self) -> Dict[str, Any]:
        """Explicit partial-result manifest of the last :meth:`run`."""
        return {"stats": {name: int(counter.value)
                          for name, counter in self._counters.items()},
                "quarantined": [failure.to_dict()
                                for failure in self.failures]}

    # -- simulation back-ends -----------------------------------------------------

    def _simulate_all(self, items: List[Tuple[str, CapturePoint]],
                      ) -> Tuple[Dict[str, Tuple[JobResult, JobTrace]],
                                 List[PointFailure]]:
        self._count("simulated", len(items))
        # Deadline enforcement needs a killable process, so a deadline
        # promotes even single-worker runs onto the pool path.
        use_pool = len(items) > 1 and self.workers > 1
        if self.retry_policy.deadline_s is not None:
            use_pool = True
        if not use_pool:
            # In-process: points run directly against the runner's
            # telemetry, so counters/spans/probes accumulate in place.
            return self._run_serial(items)
        self._count("parallel_simulated", len(items))
        return self._run_pool(items)

    # -- serial (in-process) path ---------------------------------------------------

    def _run_serial(self, items: List[Tuple[str, CapturePoint]],
                    ) -> Tuple[Dict[str, Tuple[JobResult, JobTrace]],
                               List[PointFailure]]:
        policy = self.retry_policy
        resolved: Dict[str, Tuple[JobResult, JobTrace]] = {}
        failures: List[PointFailure] = []
        for key, point in items:
            state = _Supervised(point)
            while True:
                try:
                    value = point.simulate(telemetry=self.telemetry)
                except Exception as exc:
                    state.attempts += 1
                    state.fingerprints.append(
                        FailureFingerprint.from_exception(exc))
                    if not policy.should_retry(classify_failure(exc),
                                               state.attempts):
                        failures.append(state.failure(key))
                        break
                    self._count("retries")
                    _time.sleep(policy.delay(key, state.attempts))
                    continue
                resolved[key] = value
                self._simulated(key, point, value)
                break
        return resolved, failures

    # -- pool (process-isolated) path ------------------------------------------------

    def _new_pool(self, size: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=size,
                                   mp_context=get_context("spawn"))

    @staticmethod
    def _terminate_pool(pool: ProcessPoolExecutor) -> None:
        """Kill every worker process (breaks the pool on purpose)."""
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.terminate()
            except Exception:
                pass

    def _run_pool(self, items: List[Tuple[str, CapturePoint]],
                  ) -> Tuple[Dict[str, Tuple[JobResult, JobTrace]],
                             List[PointFailure]]:
        policy = self.retry_policy
        order = [key for key, _ in items]
        state = {key: _Supervised(point) for key, point in items}
        resolved: Dict[str, Tuple[JobResult, JobTrace]] = {}
        failures: List[PointFailure] = []
        unresolved = set(state)
        ready_at = {key: 0.0 for key in unresolved}
        consecutive_breaks = 0
        # Workers re-create telemetry from the picklable config (null
        # span sink — span streams stay per-process) and return their
        # registry snapshots, which the parent merges in.
        worker_config = self.telemetry.config()
        pool: Optional[ProcessPoolExecutor] = None
        try:
            while unresolved:
                if consecutive_breaks >= self.pool_failure_limit:
                    # Graceful degradation: the pool keeps collapsing,
                    # so finish the campaign serially in-process (no
                    # deadline — there is nothing left to kill safely).
                    self._count("degraded_serial", len(unresolved))
                    serial_items = [(key, state[key].point)
                                    for key in order if key in unresolved]
                    more, more_failures = self._run_serial(serial_items)
                    resolved.update(more)
                    failures.extend(more_failures)
                    return resolved, failures
                now = _time.monotonic()
                wake = min(ready_at[key] for key in unresolved)
                if wake > now:
                    _time.sleep(wake - now)
                if pool is None:
                    pool = self._new_pool(min(self.workers, len(unresolved)))
                round_keys = [key for key in order
                              if key in unresolved
                              and ready_at[key] <= _time.monotonic()]
                broke = self._run_round(pool, round_keys, state, resolved,
                                        unresolved, failures, ready_at,
                                        worker_config)
                if broke == "organic":
                    self._count("pool_failures")
                    consecutive_breaks += 1
                elif broke == "deadline":
                    consecutive_breaks = 0
                else:
                    consecutive_breaks = 0
                if broke:
                    pool.shutdown(wait=False)
                    pool = None
            if pool is not None:
                # Every future is done: join the idle workers so none
                # outlives the campaign and competes with what runs next.
                pool.shutdown(wait=True)
                pool = None
        finally:
            if pool is not None:
                pool.shutdown(wait=False)
        return resolved, failures

    def _run_round(self, pool: ProcessPoolExecutor, round_keys: List[str],
                   state: Dict[str, _Supervised],
                   resolved: Dict[str, Tuple[JobResult, JobTrace]],
                   unresolved: set, failures: List[PointFailure],
                   ready_at: Dict[str, float],
                   worker_config: TelemetryConfig) -> str:
        """Submit one batch and supervise it to quiescence.

        Returns ``""`` when the pool survived, ``"deadline"`` when the
        watchdog killed it deliberately, ``"organic"`` when a worker
        died underneath us (SIGKILL, OOM, crash).
        """
        policy = self.retry_policy
        futures = {pool.submit(_simulate_point_observed, state[key].point,
                               worker_config, key): key
                   for key in round_keys}
        started = {key: _time.monotonic() for key in round_keys}
        expired: set = set()
        deliberate_kill = False
        saw_break = False
        remaining = set(futures)
        while remaining:
            timeout = _WATCHDOG_TICK if (policy.deadline_s is not None
                                         and not saw_break) else None
            done, remaining = wait(remaining, timeout=timeout,
                                   return_when=FIRST_COMPLETED)
            for future in done:
                key = futures[future]
                try:
                    value, snapshot = future.result()
                except BrokenExecutor:
                    # The pool collapsed under this future.  Either we
                    # killed it (deadline watchdog) or a worker died.
                    # (A point's own OSError arrives as a plain
                    # exception below — only BrokenExecutor means the
                    # executor itself is gone.)
                    saw_break = True
                    if key in expired:
                        self._point_failed(key, state[key],
                                           DeadlineExpired(
                                               f"point exceeded deadline of "
                                               f"{policy.deadline_s}s"),
                                           unresolved, failures, ready_at)
                    # Collateral victims are rescheduled free of charge:
                    # their failure tells us nothing about the point.
                    continue
                except Exception as exc:
                    # The *point* failed inside a healthy worker.
                    self._point_failed(key, state[key], exc, unresolved,
                                       failures, ready_at)
                    continue
                self._absorb(snapshot)
                resolved[key] = value
                unresolved.discard(key)
                self._simulated(key, state[key].point, value)
            if saw_break:
                # A broken pool fails all outstanding futures promptly;
                # drop the timeout and drain them.
                continue
            if policy.deadline_s is not None:
                now = _time.monotonic()
                overdue = [key for future, key in futures.items()
                           if not future.done()
                           and now - started[key] > policy.deadline_s]
                if overdue:
                    expired.update(overdue)
                    self._count("deadline_kills", len(overdue))
                    deliberate_kill = True
                    self._terminate_pool(pool)
        if saw_break:
            return "deadline" if deliberate_kill else "organic"
        return ""

    def _point_failed(self, key: str, state: _Supervised, exc: BaseException,
                      unresolved: set, failures: List[PointFailure],
                      ready_at: Dict[str, float]) -> None:
        """Charge one failed attempt; schedule a retry or quarantine."""
        policy = self.retry_policy
        state.attempts += 1
        state.fingerprints.append(FailureFingerprint.from_exception(exc))
        if policy.should_retry(classify_failure(exc), state.attempts):
            self._count("retries")
            ready_at[key] = _time.monotonic() + policy.delay(key,
                                                             state.attempts)
        else:
            failures.append(state.failure(key))
            unresolved.discard(key)


def default_workers() -> int:
    """Worker count for ``--workers 0`` / auto: one per available core."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # non-Linux
        return max(1, os.cpu_count() or 1)
