"""Flow records and job traces — the capture stage's data model.

A :class:`FlowRecord` is the unit Keddah models: one transport
connection with endpoints, ports, byte count and timing, labelled with
the Hadoop traffic component it belongs to.  A :class:`JobTrace` is the
set of flows one MapReduce job generated plus the exact configuration
it ran under (:class:`CaptureMeta`), which the modelling stage uses as
covariates (input size, reducer count, replication, ...).

Both serialise to JSON/JSONL with a stable schema so captures from a
real cluster could be imported unchanged.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional


class TrafficComponent(str, Enum):
    """Keddah's decomposition of Hadoop traffic."""

    HDFS_READ = "hdfs_read"       # DataNode -> map task (input splits)
    HDFS_WRITE = "hdfs_write"     # replication pipeline hops (job output)
    SHUFFLE = "shuffle"           # map host -> reduce task partition fetches
    CONTROL = "control"           # heartbeats, RPC, job submission
    OTHER = "other"               # anything unclassified

    def __str__(self) -> str:
        return self.value

    @classmethod
    def data_components(cls) -> List["TrafficComponent"]:
        """The three data-plane components the paper models."""
        return [cls.HDFS_READ, cls.SHUFFLE, cls.HDFS_WRITE]


@dataclass
class FlowRecord:
    """One captured flow (transport connection)."""

    src: str
    dst: str
    src_rack: int
    dst_rack: int
    src_port: int
    dst_port: int
    size: float
    start: float
    end: float
    component: str = TrafficComponent.OTHER.value
    service: str = ""
    job_id: str = ""
    flow_id: int = 0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"flow size must be >= 0, got {self.size}")
        if self.end < self.start:
            raise ValueError(f"flow ends before it starts: [{self.start}, {self.end}]")

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def mean_rate(self) -> float:
        """Average throughput, bytes/s (0 for empty flows)."""
        if self.duration <= 0:
            return 0.0
        return self.size / self.duration

    @property
    def cross_rack(self) -> bool:
        return self.src_rack != self.dst_rack

    def to_dict(self) -> Dict[str, Any]:
        # Every field is a flat scalar, so this equals ``asdict(self)``
        # (same keys, order and values) without its per-field deep copy.
        return {"src": self.src, "dst": self.dst,
                "src_rack": self.src_rack, "dst_rack": self.dst_rack,
                "src_port": self.src_port, "dst_port": self.dst_port,
                "size": self.size, "start": self.start, "end": self.end,
                "component": self.component, "service": self.service,
                "job_id": self.job_id, "flow_id": self.flow_id}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FlowRecord":
        return cls(**data)


@dataclass
class CaptureMeta:
    """Everything the modelling stage needs to know about one capture."""

    job_id: str
    job_kind: str
    input_bytes: float
    cluster: Dict[str, Any] = field(default_factory=dict)
    hadoop: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    submit_time: float = 0.0
    finish_time: float = 0.0
    num_maps: int = 0
    num_reduces: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def completion_time(self) -> float:
        return self.finish_time - self.submit_time

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CaptureMeta":
        return cls(**data)


@dataclass
class JobTrace:
    """All flows of one job run, with its capture metadata."""

    meta: CaptureMeta
    flows: List[FlowRecord] = field(default_factory=list)

    # -- queries ---------------------------------------------------------------

    def component(self, component: TrafficComponent | str) -> List[FlowRecord]:
        """Flows of one traffic component, by capture order."""
        value = str(component)
        return [flow for flow in self.flows if flow.component == value]

    def components_present(self) -> List[str]:
        return sorted({flow.component for flow in self.flows})

    def total_bytes(self, component: Optional[TrafficComponent | str] = None) -> float:
        flows = self.flows if component is None else self.component(component)
        return sum(flow.size for flow in flows)

    def flow_sizes(self, component: TrafficComponent | str) -> List[float]:
        return [flow.size for flow in self.component(component)]

    def flow_starts(self, component: TrafficComponent | str) -> List[float]:
        """Flow start times relative to job submission, sorted."""
        origin = self.meta.submit_time
        return sorted(flow.start - origin for flow in self.component(component))

    def interarrivals(self, component: TrafficComponent | str) -> List[float]:
        """Sorted-start inter-arrival gaps within a component."""
        starts = self.flow_starts(component)
        return [b - a for a, b in zip(starts[:-1], starts[1:])]

    def flow_count(self, component: Optional[TrafficComponent | str] = None) -> int:
        if component is None:
            return len(self.flows)
        return len(self.component(component))

    def cross_rack_bytes(self, component: Optional[TrafficComponent | str] = None) -> float:
        flows = self.flows if component is None else self.component(component)
        return sum(flow.size for flow in flows if flow.cross_rack)

    # -- serialisation -----------------------------------------------------------

    def to_jsonl(self, path: str | Path) -> None:
        """Write one meta line followed by one line per flow."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps({"meta": self.meta.to_dict()}) + "\n")
            for flow in self.flows:
                handle.write(json.dumps(flow.to_dict()) + "\n")

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "JobTrace":
        path = Path(path)
        with path.open("r", encoding="utf-8") as handle:
            header = json.loads(handle.readline())
            if "meta" not in header:
                raise ValueError(f"{path}: first line must hold the capture meta")
            meta = CaptureMeta.from_dict(header["meta"])
            flows = [FlowRecord.from_dict(json.loads(line))
                     for line in handle if line.strip()]
        return cls(meta=meta, flows=flows)


def save_traces(traces: Iterable[JobTrace], directory: str | Path) -> List[Path]:
    """Write each trace to ``<directory>/<job_id>.jsonl``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for trace in traces:
        path = directory / f"{trace.meta.job_id}.jsonl"
        trace.to_jsonl(path)
        paths.append(path)
    return paths


def load_traces(directory: str | Path) -> List[JobTrace]:
    """Load every ``*.jsonl`` trace in a directory, sorted by name."""
    directory = Path(directory)
    return [JobTrace.from_jsonl(path) for path in sorted(directory.glob("*.jsonl"))]
