"""Unit tests for the TransportBackend seam and its non-fluid backends."""

import pytest

from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.topology import build_topology
from repro.cluster.units import GBPS
from repro.net.backend import (AnalyticBackend, BACKEND_NAMES, RecordBackend,
                               TransportBackend, make_backend)
from repro.net.network import FlowNetwork
from repro.obs import Telemetry
from repro.simkit import Simulator


def make(backend_name, num_hosts=4, telemetry=None, **cfg):
    sim = Simulator(telemetry=telemetry)
    topo = build_topology("star", num_hosts=num_hosts, host_gbps=1.0)
    return sim, topo, make_backend(backend_name, sim, topo, **cfg)


# -- factory ---------------------------------------------------------------------


def test_factory_covers_every_registered_name():
    for name in BACKEND_NAMES:
        _, _, net = make(name)
        assert isinstance(net, TransportBackend)
        assert net.name == name


def test_factory_maps_names_to_types():
    assert isinstance(make("fluid")[2], FlowNetwork)
    assert isinstance(make("analytic")[2], AnalyticBackend)
    assert isinstance(make("record")[2], RecordBackend)


def test_factory_rejects_unknown_backend():
    with pytest.raises(ValueError, match="osmotic"):
        make("osmotic")


def test_cluster_spec_rejects_unknown_backend():
    with pytest.raises(ValueError, match="backend"):
        ClusterSpec(backend="osmotic")


def test_hadoop_config_rejects_unknown_placement_mode():
    with pytest.raises(ValueError, match="placement_mode"):
        HadoopConfig(placement_mode="telekinetic")


def test_backend_announces_itself_on_the_registry():
    telemetry = Telemetry.enabled_in_memory()
    make("analytic", telemetry=telemetry)
    gauge = telemetry.registry.get("net.backend", backend="analytic")
    assert gauge is not None and gauge.value == 1.0


# -- analytic semantics ----------------------------------------------------------


def test_analytic_solo_flow_is_exact():
    sim, topo, net = make("analytic")
    flow = net.start_flow(topo.hosts[0], topo.hosts[1], 1.0 * GBPS)
    sim.run()
    assert flow.finished
    assert flow.end_time == pytest.approx(1.0, rel=1e-6)


def test_analytic_wave_shares_the_bottleneck():
    sim, topo, net = make("analytic")
    a = net.start_flow(topo.hosts[0], topo.hosts[1], 1.0 * GBPS)
    b = net.start_flow(topo.hosts[0], topo.hosts[2], 1.0 * GBPS)
    sim.run()
    # Same wave, shared source uplink: each gets capacity/2 for life.
    assert a.end_time == pytest.approx(2.0, rel=1e-6)
    assert b.end_time == pytest.approx(2.0, rel=1e-6)


def test_analytic_rate_is_frozen_at_admission():
    sim, topo, net = make("analytic")
    first = net.start_flow(topo.hosts[0], topo.hosts[1], 1.0 * GBPS)
    sim.schedule(0.5, net.start_flow, topo.hosts[0], topo.hosts[2], 0.5 * GBPS)
    sim.run()
    # The defining approximation: the first flow keeps its solo rate
    # even though a competitor arrives at t=0.5 (fluid would stretch it).
    assert first.end_time == pytest.approx(1.0, rel=1e-6)


def test_analytic_max_rate_caps_the_share():
    sim, topo, net = make("analytic")
    flow = net.start_flow(topo.hosts[0], topo.hosts[1], 1.0 * GBPS,
                          max_rate=0.25 * GBPS)
    sim.run()
    assert flow.end_time == pytest.approx(4.0, rel=1e-6)


def test_analytic_local_flow_is_instant():
    sim, topo, net = make("analytic")
    flow = net.start_flow(topo.hosts[0], topo.hosts[0], 1.0 * GBPS)
    sim.run()
    assert flow.finished
    assert flow.end_time == pytest.approx(0.0, abs=1e-9)


def test_analytic_counters_and_utilisation():
    sim, topo, net = make("analytic")
    net.start_flow(topo.hosts[0], topo.hosts[1], 1.0 * GBPS)
    sim.run()
    assert net.completed_count == 1
    assert net.total_bytes == pytest.approx(1.0 * GBPS)
    assert sim.telemetry.registry.value("net.waves") >= 1
    link = next(iter(net.link_bytes))
    assert 0.0 < net.utilisation(link) <= 1.0 + 1e-9


# -- record semantics ------------------------------------------------------------


def test_record_backend_logs_intents_without_transfer_time():
    sim, topo, net = make("record")
    flow = net.start_flow(topo.hosts[0], topo.hosts[1], 123.0,
                          metadata={"component": "shuffle"})
    sim.run()
    assert flow.finished
    assert flow.end_time == pytest.approx(0.0, abs=1e-9)
    assert len(net.intents) == 1
    intent = net.intents[0]
    assert intent.src is topo.hosts[0] and intent.dst is topo.hosts[1]
    assert intent.size == 123.0
    record = intent.to_dict()
    assert record["src"] == topo.hosts[0].name
    assert record["metadata"]["component"] == "shuffle"


def test_record_backend_counts_local_flows_too():
    sim, topo, net = make("record")
    net.start_flow(topo.hosts[0], topo.hosts[0], 10.0)
    net.start_flow(topo.hosts[0], topo.hosts[1], 10.0)
    sim.run()
    assert len(net.intents) == 2
    assert net.completed_count == 2
