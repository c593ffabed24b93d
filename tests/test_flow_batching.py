"""Batched admission differential: ``start_flows`` vs one-at-a-time.

The contract under test (DESIGN.md "Batched admission"): for every
substrate, admitting a wave through the array-in/array-out
``start_flows`` seam is *observationally identical* to looping
``start_flow`` over the same requests — same flow ids, same captured
bytes, same completion ordering — while doing the bookkeeping (path
resolution, allocator insertion, rate recomputation, heap events) in
bulk.  The sequential reference arm is the generic
``TransportBackend.start_flows`` loop, bound over the same instance.
"""

import json
import random
import types

import pytest

from repro.capture.collector import FlowCollector
from repro.cluster.topology import build_topology
from repro.cluster.units import GBPS
from repro.net.backend import FlowRequest, TransportBackend, make_backend
from repro.net.network import FlowNetwork
from repro.simkit import Simulator

MB = 1e6

#: Every substrate crossed with the setup-delay axis (hop_latency > 0
#: routes admissions through the delayed-activation path, which groups
#: same-setup flows into one event).
SUBSTRATES = [
    ("fluid", {"engine": "scalar"}),
    ("fluid", {"engine": "vectorized"}),
    ("fluid", {"engine": "scalar", "hop_latency": 20e-6}),
    ("fluid", {"engine": "vectorized", "hop_latency": 20e-6}),
    ("analytic", {}),
    ("analytic", {"hop_latency": 20e-6}),
    ("record", {}),
]

SUBSTRATE_IDS = [
    f"{name}-{cfg.get('engine', 'na')}{'-lat' if cfg.get('hop_latency') else ''}"
    for name, cfg in SUBSTRATES
]


def _make(substrate):
    name, cfg = substrate
    sim = Simulator()
    topo = build_topology("tree", num_hosts=8, hosts_per_rack=4,
                          host_gbps=1.0, oversubscription=2.0)
    return sim, topo, make_backend(name, sim, topo, **cfg)


def _force_sequential(net):
    """Rebind the generic one-at-a-time loop over the native override."""
    net.start_flows = types.MethodType(TransportBackend.start_flows, net)


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
    sim, topo, net = _make(("fluid", {"engine": "vectorized"}))
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


@pytest.mark.parametrize("engine", ["scalar", "vectorized"])
def test_harvest_counters_match_across_engines(engine):
    sim, topo, net = _make(("fluid", {"engine": engine}))
    hosts = topo.hosts
    net.start_flows([FlowRequest(hosts[k], hosts[(k + 4) % 8], 2 * MB)
                     for k in range(4)])
    sim.run()
    assert net.completed_count == 4
    assert net.active == {}
    assert sim.telemetry.registry.value("net.flows_admitted_batched") == 4
    assert sim.telemetry.registry.value("net.bulk_harvests") >= 1


# -- lazy done signals -----------------------------------------------------------


def test_done_signal_is_lazy_and_prefires_after_completion():
    sim, topo, net = _make(("fluid", {"engine": "scalar"}))
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
    sim, topo, net = _make(("fluid", {"engine": "scalar"}))
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
    first = _make(("fluid", {"engine": "scalar"}))
    second = _make(("analytic", {}))
    for sim, topo, net in (first, second):
        flow = net.start_flow(topo.hosts[0], topo.hosts[1], 1 * MB)
        assert flow.flow_id == 1
        sim.run()


def test_flow_network_native_start_flows_is_overridden():
    # Guard against the differential silently comparing the generic
    # loop to itself: the fluid backend must define its own override.
    assert FlowNetwork.start_flows is not TransportBackend.start_flows
