"""Synthetic multi-job workload generation.

Composes per-kind traffic models (a :class:`~repro.modeling.bundle.
ModelBundle`) into one cluster-level trace: each scheduled job is
sampled independently from its model and shifted to its submission
time, and the union is a workload a network simulator can replay —
the "realistic scenarios" the paper's abstract promises without
running a single Hadoop job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.capture.records import CaptureMeta, FlowRecord, JobTrace
from repro.cluster.units import GB
from repro.generation.generator import generate_trace
from repro.modeling.bundle import ModelBundle


@dataclass(frozen=True)
class ScheduledJob:
    """One job in a synthetic workload schedule."""

    kind: str
    input_gb: float
    start_s: float = 0.0

    def __post_init__(self) -> None:
        if self.input_gb < 0:
            raise ValueError(f"input_gb must be >= 0, got {self.input_gb}")
        if self.start_s < 0:
            raise ValueError(f"start_s must be >= 0, got {self.start_s}")


def generate_workload_trace(bundle: ModelBundle,
                            schedule: Sequence[ScheduledJob],
                            seed: int = 0,
                            workload_id: str = "synthetic-workload",
                            arrivals: str = "curve",
                            ) -> JobTrace:
    """Sample every scheduled job and merge into one workload trace.

    Each job draws from its kind's model with a derived seed (so the
    workload is reproducible and jobs are independent), has its flow
    timeline shifted by ``start_s``, and keeps a per-job ``job_id`` so
    the merged trace can still be cut per job downstream.  ``arrivals``
    defaults to the empirical arrival curve — multi-job studies depend
    on realistic temporal overlap between jobs.
    """
    if not schedule:
        raise ValueError("workload schedule is empty")
    flows: List[FlowRecord] = []
    total_input = 0.0
    finish = 0.0
    for index, job in enumerate(schedule):
        model = bundle.get(job.kind)
        job_trace = generate_trace(
            model, input_gb=job.input_gb, seed=seed * 9973 + index,
            job_id=f"{workload_id}/{index:03d}-{job.kind}",
            arrivals=arrivals)
        total_input += job.input_gb * GB
        for flow in job_trace.flows:
            data = flow.to_dict()
            data["start"] = flow.start + job.start_s
            data["end"] = flow.end + job.start_s
            flows.append(FlowRecord.from_dict(data))
        finish = max(finish, job.start_s + job_trace.meta.finish_time)
    flows.sort(key=lambda flow: (flow.start, flow.flow_id))
    meta = CaptureMeta(
        job_id=workload_id,
        job_kind="workload",
        input_bytes=total_input,
        cluster=dict(bundle.get(schedule[0].kind).cluster),
        hadoop=dict(bundle.get(schedule[0].kind).hadoop),
        seed=seed,
        submit_time=0.0,
        finish_time=finish,
        extra={
            "synthetic": True,
            "jobs": [{"kind": job.kind, "input_gb": job.input_gb,
                      "start_s": job.start_s} for job in schedule],
        },
    )
    return JobTrace(meta=meta, flows=flows)

