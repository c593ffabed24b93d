"""Job execution results and counters."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class RoundResult:
    """Counters for one MapReduce round (iterative jobs run several)."""

    app_id: str
    round_index: int
    submit_time: float
    am_start_time: float = 0.0
    maps_done_time: float = 0.0
    finish_time: float = 0.0
    num_maps: int = 0
    num_reduces: int = 0
    input_bytes: float = 0.0
    map_output_bytes: float = 0.0
    shuffle_bytes: float = 0.0
    output_bytes: float = 0.0
    node_local_reads: int = 0
    rack_local_reads: int = 0
    remote_reads: int = 0
    speculative_attempts: int = 0
    lost_containers: int = 0
    fetch_recoveries: int = 0
    failed: bool = False
    am_host: str = ""
    counters: Dict[str, float] = field(default_factory=dict)
    map_durations: List[float] = field(default_factory=list)
    reduce_durations: List[float] = field(default_factory=list)

    @property
    def completion_time(self) -> float:
        return self.finish_time - self.submit_time

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RoundResult":
        return cls(**data)


@dataclass
class JobResult:
    """Aggregate result of one job (all rounds)."""

    job_id: str
    kind: str
    input_bytes: float
    rounds: List[RoundResult] = field(default_factory=list)
    # When the client submitted the job (jar staging starts here); the
    # first round's AM submission happens after staging completes.
    submitted_at: Optional[float] = None

    @property
    def submit_time(self) -> float:
        if self.submitted_at is not None:
            return self.submitted_at
        return self.rounds[0].submit_time if self.rounds else 0.0

    @property
    def finish_time(self) -> float:
        return self.rounds[-1].finish_time if self.rounds else 0.0

    @property
    def completion_time(self) -> float:
        return self.finish_time - self.submit_time

    @property
    def failed(self) -> bool:
        return any(r.failed for r in self.rounds)

    def counters(self) -> "JobCounters":
        """Hadoop-style counters aggregated over all rounds."""
        from repro.mapreduce.counters import JobCounters

        total = JobCounters()
        for round_result in self.rounds:
            total = total.merge(JobCounters.from_dict(round_result.counters))
        return total

    @property
    def num_maps(self) -> int:
        return sum(r.num_maps for r in self.rounds)

    @property
    def num_reduces(self) -> int:
        return sum(r.num_reduces for r in self.rounds)

    @property
    def shuffle_bytes(self) -> float:
        return sum(r.shuffle_bytes for r in self.rounds)

    @property
    def output_bytes(self) -> float:
        return sum(r.output_bytes for r in self.rounds)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "input_bytes": self.input_bytes,
            "rounds": [r.to_dict() for r in self.rounds],
            "submitted_at": self.submitted_at,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobResult":
        return cls(job_id=data["job_id"], kind=data["kind"],
                   input_bytes=data["input_bytes"],
                   rounds=[RoundResult.from_dict(r)
                           for r in data.get("rounds", [])],
                   submitted_at=data.get("submitted_at"))


@dataclass
class StageResult:
    """Outcome of one :class:`~repro.jobs.plan.PlanStage` execution.

    ``status`` is ``completed``, ``failed`` (the stage's own job
    failed) or ``skipped`` (an upstream stage failed, so the stage
    never ran and ``job`` is None).
    """

    name: str
    kind: str
    status: str = "completed"
    deps: List[str] = field(default_factory=list)
    job: Optional[JobResult] = None

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "kind": self.kind, "status": self.status,
                "deps": list(self.deps),
                "job": self.job.to_dict() if self.job is not None else None}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StageResult":
        job = data.get("job")
        return cls(name=data["name"], kind=data["kind"],
                   status=data.get("status", "completed"),
                   deps=list(data.get("deps", [])),
                   job=JobResult.from_dict(job) if job is not None else None)


@dataclass
class PlanResult:
    """Aggregate result of one workload-plan run (all stages).

    Stages are kept in topological execution order.  ``job_id`` aliases
    ``plan_id`` so plan results flow through machinery (store entries)
    that cross-checks a result id against its trace's ``meta.job_id``.
    """

    plan: str
    plan_id: str
    signature: str = ""
    stages: List[StageResult] = field(default_factory=list)
    submitted_at: float = 0.0

    @property
    def job_id(self) -> str:
        return self.plan_id

    @property
    def kind(self) -> str:
        return f"plan:{self.plan}"

    def stage(self, name: str) -> StageResult:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"plan {self.plan!r} has no stage {name!r}")

    def _jobs(self) -> List[JobResult]:
        return [s.job for s in self.stages if s.job is not None]

    @property
    def submit_time(self) -> float:
        return self.submitted_at

    @property
    def finish_time(self) -> float:
        return max((job.finish_time for job in self._jobs()), default=0.0)

    @property
    def completion_time(self) -> float:
        return self.finish_time - self.submit_time

    @property
    def failed(self) -> bool:
        return any(not s.completed for s in self.stages)

    @property
    def external_input_bytes(self) -> float:
        """Bytes entering the plan from outside (root stages only)."""
        return sum(s.job.input_bytes for s in self.stages
                   if s.job is not None and not s.deps)

    @property
    def num_maps(self) -> int:
        return sum(job.num_maps for job in self._jobs())

    @property
    def num_reduces(self) -> int:
        return sum(job.num_reduces for job in self._jobs())

    @property
    def shuffle_bytes(self) -> float:
        return sum(job.shuffle_bytes for job in self._jobs())

    @property
    def output_bytes(self) -> float:
        return sum(job.output_bytes for job in self._jobs())

    @property
    def rounds(self) -> List[RoundResult]:
        """All stage rounds, flattened (for round-level consumers)."""
        return [r for job in self._jobs() for r in job.rounds]

    def to_dict(self) -> Dict[str, Any]:
        return {"plan": self.plan, "plan_id": self.plan_id,
                "signature": self.signature,
                "stages": [s.to_dict() for s in self.stages],
                "submitted_at": self.submitted_at}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PlanResult":
        return cls(plan=data["plan"], plan_id=data["plan_id"],
                   signature=data.get("signature", ""),
                   stages=[StageResult.from_dict(s)
                           for s in data.get("stages", [])],
                   submitted_at=float(data.get("submitted_at", 0.0)))
