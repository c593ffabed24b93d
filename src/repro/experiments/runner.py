"""Campaign execution: fan independent capture points out to workers.

A campaign is a list of :class:`CapturePoint` — fully described,
mutually independent simulations (job kind, input size, derived seed,
cluster + Hadoop configuration, job kwargs).  The
:class:`CampaignRunner` resolves each point from the persistent
content-addressed store (:class:`repro.experiments.store.CaptureStore`)
when one is given, and otherwise by simulation — serial in-process, or
fanned out across ``workers`` processes with a ``spawn`` context.  The
process-local memo sits in front of the runner, in
:func:`repro.experiments.campaigns.resolve_points`.

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

Simulation runs on the
:class:`~repro.experiments.supervision.SupervisedExecutor`, the same
executor pipeline nodes run on: every failed attempt, a dead worker
included, is charged to its point and transient failures are retried
at once, a deadline kills hung workers, and points that exhaust their
budget are quarantined while the campaign *completes*:
:meth:`CampaignRunner.run` then raises
:class:`~repro.experiments.supervision.CampaignPointsFailed`, which
carries the partial result set.  Its actions count on the registry as
``campaign.retries``, ``campaign.deadline_kills`` and
``campaign.pool_failures``, next to the runner's own ``campaign.*``
resolution counters.
:func:`derive_seed` is the one seed rule every entry path uses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.capture.records import JobTrace
from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.jobs import make_job
from repro.mapreduce.cluster import HadoopCluster
from repro.mapreduce.result import JobResult
from repro.obs.telemetry import Telemetry
from repro.experiments.store import (TRACE_FORMAT_VERSION, CaptureStore,
                                     key_hash)
from repro.experiments.supervision import (
    AttemptLedger,
    CampaignPointsFailed,
    PointFailure,
    Quarantine,
    RetryPolicy,
    SupervisedExecutor,
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


class _ContentKeyed:
    """Store keys shared by both point kinds; subclasses define
    ``key_dict()``."""

    def key(self) -> str:
        return key_hash(self.key_dict())

    def logical_key(self) -> str:
        """Hash of the workload alone: backend- and format-independent.

        Seeds the job (or plan) id, so the same logical point produces
        the same RNG streams (and therefore the same flow population)
        under every transport backend — while :meth:`key` still
        separates their store entries.
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


@dataclass(frozen=True)
class CapturePoint(_ContentKeyed):
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
            "backend": self.cluster_spec.backend,
            "config": _thaw(self.key_config),
            "job_kwargs": _thaw(self.job_kwargs),
        }

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
class PlanPoint(_ContentKeyed):
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

    # Supervision-facing fields (quarantine records).

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


def _simulate(point: CapturePoint, telemetry: Telemetry,
              ) -> Tuple[JobResult, JobTrace]:
    """The executor's task call (module-level: picklable under spawn)."""
    return point.simulate(telemetry=telemetry)


#: The per-level counters a runner keeps on its registry as
#: ``campaign.<name>``, in presentation order.
_RUNNER_STAT_FIELDS = ("points", "points_completed", "store_hits",
                       "simulated", "parallel_simulated",
                       "retries", "deadline_kills", "quarantined",
                       "pool_failures")


class CampaignRunner:
    """Resolve capture points through store → simulation.

    ``workers <= 1`` simulates in-process; ``workers > 1`` fans store
    misses out over the executor's spawn pool.

    Supervision knobs (handed to the
    :class:`~repro.experiments.supervision.SupervisedExecutor`):

    ``retry_policy``
        attempt budget and per-point deadline
        (:class:`~repro.experiments.supervision.RetryPolicy`).  Deadline
        enforcement needs process isolation, so a configured deadline
        routes even ``workers == 1`` runs through a one-worker pool.
    ``quarantine``
        optional sidecar recording points that exhausted their budget.

    A run with quarantined points raises
    :class:`~repro.experiments.supervision.CampaignPointsFailed` *after*
    resolving everything else; it carries the partial result list
    (``None`` at quarantined indices), and :attr:`failures` keeps the
    quarantined points.
    """

    def __init__(self, store: Optional[CaptureStore] = None, workers: int = 1,
                 telemetry: Optional[Telemetry] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 quarantine: Optional[Quarantine] = None):
        self.store = store
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        self.quarantine = quarantine
        self.failures: List[PointFailure] = []
        registry = self.telemetry.registry
        self._counters = {name: registry.counter(f"campaign.{name}")
                          for name in _RUNNER_STAT_FIELDS}
        # Worker registries fold into this registry too, so it is the
        # campaign-wide view that --telemetry writes out.
        self.executor = SupervisedExecutor(
            retry_policy if retry_policy is not None else RetryPolicy(),
            registry, "campaign", workers=workers)

    def _count(self, name: str, amount: int = 1) -> None:
        self._counters[name].value += amount

    # -- single point -------------------------------------------------------------

    def run_point(self, point: CapturePoint) -> Tuple[JobResult, JobTrace]:
        return self.run([point])[0]

    # -- campaign -----------------------------------------------------------------

    def run(self, points: Sequence[CapturePoint],
            ) -> List[Tuple[JobResult, JobTrace]]:
        """Resolve every point, preserving input order.

        Duplicate points (same key) are simulated at most once per
        call; later occurrences reuse the first resolution.  Points
        that fail past their attempt budget are quarantined, and the
        run then raises
        :class:`~repro.experiments.supervision.CampaignPointsFailed`.
        """
        results: List[Optional[Tuple[JobResult, JobTrace]]] = [None] * len(points)
        pending: Dict[str, List[int]] = {}
        pending_points: Dict[str, CapturePoint] = {}
        self.failures = []
        self._count("points", len(points))

        for index, point in enumerate(points):
            key = point.key()
            if key in pending:
                pending[key].append(index)
                continue
            if self.store is not None:
                stored = self.store.get(point.key_dict())
                if stored is not None:
                    self._count("store_hits")
                    results[index] = stored
                    self._count("points_completed")
                    continue
            pending[key] = [index]
            pending_points[key] = point

        def simulated(ledger: AttemptLedger,
                      value: Tuple[JobResult, JobTrace]) -> None:
            # Checkpoint each point the moment it resolves, so a
            # campaign killed mid-run has already stored every point
            # that finished; its deduplicated repeats settle with it.
            point, indices = pending_points[ledger.key], pending[ledger.key]
            if self.store is not None:
                self.store.put(point.key_dict(), *value)
            for index in indices:
                results[index] = value
            self._count("points_completed", len(indices))

        if pending:
            self._count("simulated", len(pending_points))
            if self.executor.isolates(len(pending_points)):
                self._count("parallel_simulated", len(pending_points))
            spent = self.executor.run(_simulate, list(pending_points.items()),
                                      self.telemetry, simulated)
            for ledger in spent:
                point = pending_points[ledger.key]
                failure = ledger.failure(point.job, point.input_gb,
                                         point.seed)
                self._count("quarantined")
                self.failures.append(failure)
                if self.quarantine is not None:
                    self.quarantine.record(failure)
        if self.failures:
            raise CampaignPointsFailed(list(self.failures), results)
        return results  # type: ignore[return-value]

    def manifest(self) -> Dict[str, Any]:
        """Explicit partial-result manifest of the last :meth:`run`."""
        return {"stats": {name: int(counter.value)
                          for name, counter in self._counters.items()},
                "quarantined": [failure.to_dict()
                                for failure in self.failures]}


def default_workers() -> int:
    """Worker count for ``--workers 0`` / auto: one per available core."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # non-Linux
        return max(1, os.cpu_count() or 1)
