"""Unit tests for the fluid FlowNetwork simulator."""

import pytest

from repro.cluster.topology import build_topology
from repro.cluster.units import GBPS
from repro.net.network import FlowNetwork
from repro.obs.telemetry import Telemetry
from repro.simkit import Simulator


def make_network(num_hosts=4, host_gbps=1.0, kind="star", **kwargs):
    sim = Simulator()
    topo = build_topology(kind, num_hosts=num_hosts, host_gbps=host_gbps, **kwargs)
    return sim, topo, FlowNetwork(sim, topo)


def test_single_flow_completes_at_line_rate():
    sim, topo, net = make_network(host_gbps=1.0)
    size = 1.0 * GBPS  # exactly one second at line rate
    flow = net.start_flow(topo.hosts[0], topo.hosts[1], size)
    sim.run()
    assert flow.finished
    assert flow.end_time == pytest.approx(1.0, rel=1e-6)
    assert flow.mean_rate == pytest.approx(1.0 * GBPS, rel=1e-6)


def test_two_flows_sharing_source_nic_halve():
    sim, topo, net = make_network()
    size = 1.0 * GBPS
    a = net.start_flow(topo.hosts[0], topo.hosts[1], size)
    b = net.start_flow(topo.hosts[0], topo.hosts[2], size)
    sim.run()
    # Both share h0's uplink: each takes 2 s.
    assert a.end_time == pytest.approx(2.0, rel=1e-6)
    assert b.end_time == pytest.approx(2.0, rel=1e-6)


def test_disjoint_flows_do_not_interact():
    sim, topo, net = make_network(num_hosts=4)
    size = 1.0 * GBPS
    a = net.start_flow(topo.hosts[0], topo.hosts[1], size)
    b = net.start_flow(topo.hosts[2], topo.hosts[3], size)
    sim.run()
    assert a.end_time == pytest.approx(1.0, rel=1e-6)
    assert b.end_time == pytest.approx(1.0, rel=1e-6)


def test_departure_releases_bandwidth_to_survivor():
    sim, topo, net = make_network()
    rate = 1.0 * GBPS
    short = net.start_flow(topo.hosts[0], topo.hosts[1], 0.5 * rate)
    long = net.start_flow(topo.hosts[0], topo.hosts[2], 1.0 * rate)
    sim.run()
    # Share until short finishes at t=1 (0.5 GB at half rate); long then
    # has 0.5 GB left at full rate -> finishes t=1.5.
    assert short.end_time == pytest.approx(1.0, rel=1e-6)
    assert long.end_time == pytest.approx(1.5, rel=1e-6)


def test_late_arrival_slows_existing_flow():
    sim, topo, net = make_network()
    rate = 1.0 * GBPS
    first = net.start_flow(topo.hosts[0], topo.hosts[1], 1.0 * rate)
    flows = {}

    def start_second():
        flows["second"] = net.start_flow(topo.hosts[0], topo.hosts[2], 1.0 * rate)

    sim.schedule(0.5, start_second)
    sim.run()
    # first: 0.5 s alone + 1 s shared = 1.5 s total; second transfers
    # 0.5 GB while sharing then its last 0.5 GB at full rate -> t=2.0.
    assert first.end_time == pytest.approx(1.5, rel=1e-6)
    assert flows["second"].end_time == pytest.approx(2.0, rel=1e-6)


def test_max_rate_cap_limits_flow():
    sim, topo, net = make_network(host_gbps=1.0)
    cap = 0.25 * GBPS
    flow = net.start_flow(topo.hosts[0], topo.hosts[1], 1.0 * GBPS, max_rate=cap)
    sim.run()
    assert flow.end_time == pytest.approx(4.0, rel=1e-6)


def test_local_flow_completes_at_cap_without_links():
    sim, topo, net = make_network()
    host = topo.hosts[0]
    flow = net.start_flow(host, host, 100.0, max_rate=50.0)
    sim.run()
    assert flow.local
    assert flow.end_time == pytest.approx(2.0)
    assert flow.links == []
    assert net.link_bytes == {}


def test_zero_size_flow_completes_immediately():
    sim, topo, net = make_network()
    flow = net.start_flow(topo.hosts[0], topo.hosts[1], 0.0)
    sim.run()
    assert flow.finished
    assert flow.end_time == pytest.approx(0.0)


def test_listener_sees_every_completion():
    sim, topo, net = make_network()
    seen = []
    net.add_listener(lambda flow: seen.append(flow.flow_id))
    flows = [net.start_flow(topo.hosts[0], topo.hosts[1], 1000.0,
                            metadata={"k": i}) for i in range(3)]
    sim.run()
    assert sorted(seen) == sorted(flow.flow_id for flow in flows)
    assert net.completed_count == 3
    assert net.total_bytes == pytest.approx(3000.0)


def test_done_signal_wakes_waiting_process():
    sim, topo, net = make_network()
    results = []

    def sender(sim):
        flow = net.start_flow(topo.hosts[0], topo.hosts[1], 1.0 * GBPS)
        completed = yield flow.done
        results.append((sim.now, completed is flow))

    sim.process(sender(sim))
    sim.run()
    assert len(results) == 1
    assert results[0][0] == pytest.approx(1.0, rel=1e-6)
    assert results[0][1]


def test_link_utilisation_accounting():
    sim, topo, net = make_network(host_gbps=1.0)
    src, dst = topo.hosts[0], topo.hosts[1]
    net.start_flow(src, dst, 1.0 * GBPS)
    sim.run()
    path = topo.path(src, dst)
    first_hop = (path[0], path[1])
    assert net.link_bytes[first_hop] == pytest.approx(1.0 * GBPS, rel=1e-6)
    assert net.utilisation(first_hop) == pytest.approx(1.0, rel=1e-6)


def test_cross_rack_flow_constrained_by_oversubscribed_uplink():
    sim, topo, net = make_network(num_hosts=8, kind="tree", hosts_per_rack=4,
                                  host_gbps=1.0, oversubscription=4.0)
    # Uplink = 4 hosts * 1 Gbit / 4 = 1 Gbit shared by rack.
    rate = 1.0 * GBPS
    a = net.start_flow(topo.hosts_in_rack(0)[0], topo.hosts_in_rack(1)[0], rate)
    b = net.start_flow(topo.hosts_in_rack(0)[1], topo.hosts_in_rack(1)[1], rate)
    sim.run()
    # Different source NICs but shared 1 Gbit uplink -> 2 s each.
    assert a.end_time == pytest.approx(2.0, rel=1e-6)
    assert b.end_time == pytest.approx(2.0, rel=1e-6)


def test_metadata_is_preserved():
    sim, topo, net = make_network()
    flow = net.start_flow(topo.hosts[0], topo.hosts[1], 10.0,
                          metadata={"job": "j1", "component": "shuffle"})
    sim.run()
    assert flow.metadata == {"job": "j1", "component": "shuffle"}


def test_negative_size_rejected():
    sim, topo, net = make_network()
    with pytest.raises(ValueError):
        net.start_flow(topo.hosts[0], topo.hosts[1], -1.0)


def test_many_flows_conservation_of_bytes():
    sim, topo, net = make_network(num_hosts=6)
    total = 0.0
    for i in range(20):
        src = topo.hosts[i % 6]
        dst = topo.hosts[(i * 3 + 1) % 6]
        if src == dst:
            continue
        net.start_flow(src, dst, 1000.0 * (i + 1))
        total += 1000.0 * (i + 1)
    sim.run()
    assert net.total_bytes == pytest.approx(total)
    assert not net.active


def test_same_instant_starts_coalesce_into_one_flush():
    sim, topo, net = make_network(num_hosts=4)
    size = 1.0 * GBPS
    a = net.start_flow(topo.hosts[0], topo.hosts[1], size)
    b = net.start_flow(topo.hosts[0], topo.hosts[2], size)
    sim.run()
    # Physics unchanged by batching...
    assert a.end_time == pytest.approx(2.0, rel=1e-6)
    assert b.end_time == pytest.approx(2.0, rel=1e-6)
    # ...but the two same-instant arrivals folded into recomputes bounded
    # by the number of flushes.
    value = sim.telemetry.registry.value
    assert value("net.updates_requested") >= 2
    assert value("net.recomputes") <= value("net.flushes")
    assert value("net.flows_batched") >= 1


def test_legacy_mode_recomputes_per_update():
    sim, topo, net = make_network(num_hosts=4)
    net.batch_updates = False
    size = 1.0 * GBPS
    a = net.start_flow(topo.hosts[0], topo.hosts[1], size)
    b = net.start_flow(topo.hosts[0], topo.hosts[2], size)
    sim.run()
    assert a.end_time == pytest.approx(2.0, rel=1e-6)
    assert b.end_time == pytest.approx(2.0, rel=1e-6)
    value = sim.telemetry.registry.value
    assert value("net.flushes") == 0
    assert value("net.recomputes") >= value("net.updates_requested")


def test_allocator_membership_tracks_active_flows():
    sim, topo, net = make_network(num_hosts=4)
    size = 1.0 * GBPS
    net.start_flow(topo.hosts[0], topo.hosts[1], size)
    assert len(net.allocator) == 1
    sim.run()
    assert len(net.allocator) == 0
    assert sim.telemetry.registry.value("net.allocator_seconds") >= 0.0


@pytest.mark.parametrize("engine", ["scalar", "vectorized"])
def test_allocator_counters_sum_over_networks_on_one_registry(engine):
    """Two networks share one registry: each allocator metric is the sum
    of both allocators' work, not the last network's."""
    telemetry = Telemetry.disabled()
    allocators = []
    for flows in (1, 3):
        sim = Simulator(telemetry=telemetry)
        topo = build_topology("star", num_hosts=4)
        net = FlowNetwork(sim, topo, engine=engine)
        for index in range(flows):
            net.start_flow(topo.hosts[0], topo.hosts[index + 1],
                           (index + 1) * GBPS)
        sim.run()
        allocators.append(net.allocator)
    value = telemetry.registry.value
    assert all(allocator.recomputes > 0 for allocator in allocators)
    assert allocators[0].recomputes != allocators[1].recomputes
    assert value("net.recomputes") == sum(
        allocator.recomputes for allocator in allocators)
    assert value("net.waterfill_rounds") == sum(
        allocator.rounds for allocator in allocators)
    assert value("net.allocator_seconds") == pytest.approx(
        sum(allocator.allocator_seconds for allocator in allocators))
