"""Replay traces through the flow-level network simulator.

Replay is the toolchain's validation loop: drive a trace (captured or
model-generated) through a clean network built from the trace's own
cluster description and measure what the network does with it —
per-flow completion times, makespan, per-component volumes and link
utilisation.  Comparing the replay of a captured trace against the
replay of a generated one is experiment E11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.capture.collector import FlowCollector
from repro.capture.records import FlowRecord, JobTrace
from repro.cluster.config import ClusterSpec
from repro.cluster.topology import Host, Topology, build_topology
from repro.net.backend import make_backend
from repro.simkit import Simulator
from repro.simkit.rng import stable_hash


@dataclass
class ReplayReport:
    """What the network did with a replayed trace."""

    makespan: float
    total_bytes: float
    flow_count: int
    component_bytes: Dict[str, float] = field(default_factory=dict)
    flow_durations: List[float] = field(default_factory=list)
    mean_link_utilisation: float = 0.0
    peak_link_utilisation: float = 0.0
    records: List[FlowRecord] = field(default_factory=list)

    @property
    def mean_flow_duration(self) -> float:
        if not self.flow_durations:
            return 0.0
        return sum(self.flow_durations) / len(self.flow_durations)


def replay_trace(trace: JobTrace, topology: Optional[Topology] = None,
                 time_scale: float = 1.0,
                 backend: str = "fluid",
                 engine: str = "scalar") -> ReplayReport:
    """Replay every flow of ``trace`` at its recorded start time.

    The topology defaults to one built from the trace's cluster spec.
    Host names missing from the topology (e.g. a capture from foreign
    hardware) are mapped onto workers by a stable hash, preserving
    src/dst distinctness where possible.  ``time_scale`` stretches or
    compresses the schedule (1.0 = as captured).  ``backend`` selects
    the transport substrate replayed against; ``record`` turns replay
    into a zero-cost re-emission of the trace's own schedule (what the
    ns-3/OMNeT exporters consume).  ``engine`` picks the fluid
    implementation (``scalar``/``vectorized``): the replayed flow
    records are identical, while per-link totals (and the utilisation
    figures derived from them) may differ in the last bits.
    """
    if time_scale <= 0:
        raise ValueError(f"time_scale must be positive, got {time_scale}")
    if topology is None:
        spec = ClusterSpec.from_dict(trace.meta.cluster) if trace.meta.cluster else ClusterSpec()
        topology = build_topology(spec.topology, num_hosts=spec.num_nodes + 1,
                                  hosts_per_rack=spec.hosts_per_rack,
                                  host_gbps=spec.host_gbps,
                                  oversubscription=spec.oversubscription)
    sim = Simulator()
    net = make_backend(backend, sim, topology, engine=engine)
    collector = FlowCollector(net)
    by_name = {host.name: host for host in topology.hosts}
    workers = topology.hosts[1:] if len(topology.hosts) > 1 else topology.hosts

    def resolve(name: str, avoid: Optional[Host] = None) -> Host:
        host = by_name.get(name)
        if host is not None:
            return host
        # Unknown host (foreign capture): map stably onto a worker,
        # stepping once to preserve src != dst where the record had it.
        host = workers[stable_hash(name) % len(workers)]
        if host == avoid and len(workers) > 1:
            host = workers[(stable_hash(name) % len(workers) + 1) % len(workers)]
        return host

    origin = min((flow.start for flow in trace.flows), default=0.0)
    for record in trace.flows:
        dst = resolve(record.dst)
        src = resolve(record.src, avoid=dst if record.src != record.dst else None)
        if record.src != record.dst and src == dst:
            dst = resolve(record.dst, avoid=src)
        sim.schedule(
            (record.start - origin) * time_scale,
            net.start_flow, src, dst, record.size, None,
            {
                "component": record.component,
                "service": record.service or "replay",
                "job_id": record.job_id,
                "src_port": record.src_port,
                "dst_port": record.dst_port,
            })
    sim.run()

    component_bytes: Dict[str, float] = {}
    durations = []
    for replayed in collector.records:
        component_bytes[replayed.component] = (
            component_bytes.get(replayed.component, 0.0) + replayed.size)
        durations.append(replayed.duration)
    utilisations = [net.utilisation(link) for link in net.link_bytes]
    return ReplayReport(
        makespan=sim.now,
        total_bytes=collector.total_bytes(),
        flow_count=len(collector.records),
        component_bytes=component_bytes,
        flow_durations=durations,
        mean_link_utilisation=(sum(utilisations) / len(utilisations)
                               if utilisations else 0.0),
        peak_link_utilisation=max(utilisations, default=0.0),
        records=collector.records,
    )
