"""Batched admission differential: one wave vs one-request waves.

The contract under test (DESIGN.md "Batched admission"): ``start_flows``
is every backend's only admission path, and for every substrate a
whole wave is *observationally identical* to admitting the same
requests as one-request waves (what ``start_flow`` does) in order —
same flow ids, same captured bytes, same completion ordering — while
the wave does its bookkeeping (path resolution, allocator insertion,
rate recomputation, heap events) once.  The reference arm wraps the
instance's ``start_flows`` so it admits one request per call.
"""

import json
import random

import pytest

from repro.capture.collector import FlowCollector
from repro.cluster.topology import build_topology
from repro.cluster.units import GBPS
from repro.net.backend import (
    AnalyticBackend,
    FlowRequest,
    RecordBackend,
    TransportBackend,
    make_backend,
)
from repro.net.network import FlowNetwork
from repro.obs import Telemetry
from repro.simkit import Simulator

MB = 1e6

#: Every substrate crossed with the setup-delay axis (hop_latency > 0
#: routes admissions through the delayed-activation path, which groups
#: same-setup flows into one event).
SUBSTRATES = [
    ("fluid", {}),
    ("fluid", {"hop_latency": 20e-6}),
    ("analytic", {}),
    ("analytic", {"hop_latency": 20e-6}),
    ("record", {}),
]

SUBSTRATE_IDS = [f"{name}{'-lat' if cfg.get('hop_latency') else ''}"
                 for name, cfg in SUBSTRATES]


def _make(substrate, telemetry=None):
    name, cfg = substrate
    sim = Simulator(telemetry=telemetry)
    topo = build_topology("tree", num_hosts=8, hosts_per_rack=4,
                          host_gbps=1.0, oversubscription=2.0)
    return sim, topo, make_backend(name, sim, topo, **cfg)


def _force_sequential(net):
    """Make every wave on ``net`` one ``start_flows([request])`` call per
    request, in order."""
    wave = net.start_flows
    net.start_flows = lambda requests: [wave([request])[0]
                                        for request in requests]


def _capture(substrate, sequential, driver):
    sim, topo, net = _make(substrate)
    if sequential:
        _force_sequential(net)
    collector = FlowCollector(net, include_local=True)
    driver(net, sim, topo)
    return [json.dumps(record.to_dict(), sort_keys=True)
            for record in collector.records]


def _mixed_waves(net, sim, topo):
    """A deterministic scenario exercising every admission flavour:
    cross-rack, rate-capped, host-local, zero-size, plus singleton
    admissions interleaved between two batched waves."""
    hosts = topo.hosts

    def wave_a():
        net.start_flows([
            FlowRequest(hosts[0], hosts[5], 8 * MB,
                        metadata={"component": "shuffle", "src_port": 13562,
                                  "dst_port": 40001}),
            FlowRequest(hosts[1], hosts[6], 4 * MB, max_rate=0.2 * GBPS,
                        metadata={"component": "hdfs_write", "src_port": 50010,
                                  "dst_port": 40002}),
            FlowRequest(hosts[2], hosts[2], 2 * MB,
                        metadata={"component": "hdfs_write"}),
            FlowRequest(hosts[3], hosts[0], 0.0,
                        metadata={"component": "shuffle"}),
            FlowRequest(hosts[0], hosts[6], 6 * MB,
                        metadata={"component": "shuffle", "src_port": 13562,
                                  "dst_port": 40003}),
        ])

    def wave_b():
        net.start_flows([
            FlowRequest(hosts[k % 8], hosts[(k + 4) % 8], (1 + k) * MB,
                        metadata={"component": "shuffle",
                                  "src_port": 7000 + k, "dst_port": 8000 + k})
            for k in range(6)
        ])

    sim.schedule(0.0, wave_a)
    sim.schedule(0.02, net.start_flow, hosts[1], hosts[4], 3 * MB)
    sim.schedule(0.05, wave_b)
    sim.run()


@pytest.mark.parametrize("substrate", SUBSTRATES, ids=SUBSTRATE_IDS)
def test_batched_equals_sequential_mixed_waves(substrate):
    batched = _capture(substrate, False, _mixed_waves)
    sequential = _capture(substrate, True, _mixed_waves)
    assert batched, "scenario produced no captured flows"
    assert batched == sequential


def _churn_driver(seed, waves):
    """A seeded mixed single/batch admission schedule, built up-front so
    both arms replay the identical operation sequence."""

    def driver(net, sim, topo):
        rng = random.Random(seed)
        hosts = topo.hosts
        now = 0.0
        for _ in range(waves):
            now += rng.random() * 0.2
            if rng.random() < 0.6:
                count = rng.randint(2, 9)
                requests = []
                for k in range(count):
                    src = hosts[rng.randrange(len(hosts))]
                    roll = rng.random()
                    if roll < 0.1:
                        dst, size = src, rng.uniform(0.5, 4.0) * MB
                    elif roll < 0.2:
                        dst, size = hosts[rng.randrange(len(hosts))], 0.0
                    else:
                        dst = hosts[rng.randrange(len(hosts))]
                        size = rng.uniform(0.5, 8.0) * MB
                    cap = 0.25 * GBPS if rng.random() < 0.3 else None
                    requests.append(FlowRequest(
                        src, dst, size, max_rate=cap,
                        metadata={"component": "shuffle",
                                  "src_port": rng.randrange(1024, 65536),
                                  "dst_port": rng.randrange(1024, 65536)}))
                sim.schedule(now, net.start_flows, requests)
            else:
                src = hosts[rng.randrange(len(hosts))]
                dst = hosts[rng.randrange(len(hosts))]
                sim.schedule(now, net.start_flow, src, dst,
                             rng.uniform(0.5, 8.0) * MB)
        sim.run()

    return driver


@pytest.mark.parametrize("substrate", SUBSTRATES, ids=SUBSTRATE_IDS)
def test_batched_equals_sequential_random_churn(substrate):
    driver = _churn_driver(seed=0xBA7C4, waves=40)
    batched = _capture(substrate, False, driver)
    sequential = _capture(substrate, True, driver)
    assert len(batched) > 40
    assert batched == sequential


# -- bulk harvest ----------------------------------------------------------------


def test_bulk_harvest_fires_listeners_in_admission_order():
    sim, topo, net = _make(("fluid", {}))
    completed = []
    net.add_listener(lambda flow: completed.append(flow.flow_id))
    hosts = topo.hosts
    # Two equal-size flows on disjoint paths complete at the same
    # instant — one harvest retires both.
    flows = net.start_flows([FlowRequest(hosts[0], hosts[1], 4 * MB),
                             FlowRequest(hosts[2], hosts[3], 4 * MB)])
    sim.run()
    assert completed == [flows[0].flow_id, flows[1].flow_id]
    assert sim.telemetry.registry.value("net.bulk_harvests") == 1


def test_harvest_counters_after_a_batched_wave():
    sim, topo, net = _make(("fluid", {}))
    hosts = topo.hosts
    net.start_flows([FlowRequest(hosts[k], hosts[(k + 4) % 8], 2 * MB)
                     for k in range(4)])
    sim.run()
    assert net.completed_count == 4
    assert net.active == {}
    # The whole wave was admitted by one activation: one update request.
    assert sim.telemetry.registry.value("net.updates_requested") == 1
    assert sim.telemetry.registry.value("net.bulk_harvests") >= 1


# -- lazy done signals -----------------------------------------------------------


def test_done_signal_is_lazy_and_prefires_after_completion():
    sim, topo, net = _make(("fluid", {}))
    flow = net.start_flow(topo.hosts[0], topo.hosts[1], 1 * MB)
    assert flow._done is None
    sim.run()
    assert flow.finished
    assert sim.telemetry.registry.value("net.done_signals_skipped") == 1
    # A late waiter still sees a fired signal carrying the flow.
    signal = flow.done
    assert signal.fired and signal.payload is flow
    assert sim.telemetry.registry.counter("net.done_signals").value == 1


def test_done_signal_materialized_early_fires_at_completion():
    sim, topo, net = _make(("fluid", {}))
    flow = net.start_flow(topo.hosts[0], topo.hosts[1], 1 * MB)
    signal = flow.done
    assert not signal.fired
    sim.run()
    assert signal.fired and signal.payload is flow
    assert sim.telemetry.registry.value("net.done_signals_skipped") == 0


# -- seam plumbing ---------------------------------------------------------------


@pytest.mark.parametrize("substrate", SUBSTRATES, ids=SUBSTRATE_IDS)
def test_empty_wave_is_a_noop(substrate):
    sim, topo, net = _make(substrate)
    assert net.start_flows([]) == []
    sim.run()
    assert net.completed_count == 0


@pytest.mark.parametrize("substrate", SUBSTRATES, ids=SUBSTRATE_IDS)
def test_wave_returns_flows_in_request_order(substrate):
    sim, topo, net = _make(substrate)
    hosts = topo.hosts
    requests = [FlowRequest(hosts[k % 8], hosts[(k + 3) % 8], (1 + k) * MB)
                for k in range(5)]
    flows = net.start_flows(requests)
    assert [flow.size for flow in flows] == [request.size
                                             for request in requests]
    ids = [flow.flow_id for flow in flows]
    assert ids == sorted(ids)
    sim.run()


def test_flow_ids_are_per_network():
    first = _make(("fluid", {}))
    second = _make(("analytic", {}))
    for sim, topo, net in (first, second):
        flow = net.start_flow(topo.hosts[0], topo.hosts[1], 1 * MB)
        assert flow.flow_id == 1
        sim.run()


def test_flow_network_native_start_flows_is_overridden():
    # start_flows is the one admission path: every backend implements
    # it, and only the base class defines start_flow (a one-request
    # wave).
    for backend_cls in (FlowNetwork, AnalyticBackend, RecordBackend):
        assert backend_cls.start_flows is not TransportBackend.start_flows
        assert [cls for cls in backend_cls.__mro__
                if "start_flow" in vars(cls)] == [TransportBackend]


# -- counters and spans ------------------------------------------------------------


@pytest.mark.parametrize("substrate", SUBSTRATES, ids=SUBSTRATE_IDS)
def test_every_admitted_flow_is_counted_and_traced(substrate):
    # Local and zero-size flows included: every backend counts each
    # admitted flow started and completed, and traces one flow span.
    telemetry = Telemetry.enabled_in_memory()
    sim, topo, net = _make(substrate, telemetry)
    collector = FlowCollector(net, include_local=True)
    _mixed_waves(net, sim, topo)
    flows = len(collector.records)
    assert flows == 12
    value = telemetry.registry.value
    assert value("net.flows_started") == flows
    assert value("net.flows_completed") == flows
    assert net.completed_count == flows
    assert sum(1 for span in telemetry.spans if span.kind == "flow") == flows
