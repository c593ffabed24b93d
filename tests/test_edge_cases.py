"""Edge-case coverage across modules (gaps the main suites skip)."""

import numpy as np
import pytest

from repro.capture.classifier import classification_accuracy, classify_ports
from repro.capture.collector import FlowCollector
from repro.capture.records import FlowRecord, TrafficComponent
from repro.cluster import ports
from repro.cluster.topology import build_topology
from repro.cluster.units import GB, KB, MB, TB
from repro.modeling.inspect import describe_model
from repro.modeling.model import fit_job_model
from repro.net.network import FlowNetwork
from repro.simkit import Simulator
from repro.yarn.nodemanager import NodeManager


# -- units / ports ---------------------------------------------------------------


def test_unit_constants_are_binary_multiples():
    assert KB == 1024
    assert MB == 1024 * KB
    assert GB == 1024 * MB
    assert TB == 1024 * GB


def test_ephemeral_ports_stable_and_in_range():
    a = ports.ephemeral_port("tag")
    assert a == ports.ephemeral_port("tag")
    assert ports.EPHEMERAL_BASE <= a < ports.EPHEMERAL_BASE + ports.EPHEMERAL_RANGE
    assert ports.ephemeral_port("other") != a or True  # collision allowed


def test_service_port_registry_is_consistent():
    assert ports.SERVICE_PORTS[ports.NAMENODE_RPC] == "namenode-rpc"
    assert ports.SERVICE_PORTS[ports.SHUFFLE_HANDLER] == "shuffle-handler"


# -- classifier -------------------------------------------------------------------


def test_classify_ports_priority_order():
    # DataNode port beats everything else in either direction.
    assert classify_ports(ports.DATANODE_XFER, ports.SHUFFLE_HANDLER) \
        == TrafficComponent.HDFS_READ
    assert classify_ports(ports.SHUFFLE_HANDLER, ports.DATANODE_XFER) \
        == TrafficComponent.HDFS_WRITE
    assert classify_ports(50000, 50001) == TrafficComponent.OTHER


def test_classification_accuracy_empty_is_one():
    assert classification_accuracy([]) == 1.0


# -- collector ---------------------------------------------------------------------


def test_collector_include_local_captures_loopback():
    sim = Simulator()
    topo = build_topology("star", num_hosts=2)
    net = FlowNetwork(sim, topo)
    local_collector = FlowCollector(net, include_local=True)
    host = topo.hosts[0]
    net.start_flow(host, host, 100.0, max_rate=50.0,
                   metadata={"component": "hdfs_write"})
    sim.run()
    assert len(local_collector.records) == 1
    assert local_collector.records[0].src == local_collector.records[0].dst


def test_collector_clear():
    sim = Simulator()
    topo = build_topology("star", num_hosts=2)
    net = FlowNetwork(sim, topo)
    collector = FlowCollector(net)
    net.start_flow(topo.hosts[0], topo.hosts[1], 100.0)
    sim.run()
    assert collector.records
    collector.clear()
    assert collector.records == []
    assert collector.total_bytes() == 0.0


# -- net ---------------------------------------------------------------------------


def test_utilisation_of_unused_link_is_zero():
    sim = Simulator()
    topo = build_topology("star", num_hosts=3)
    net = FlowNetwork(sim, topo)
    net.start_flow(topo.hosts[0], topo.hosts[1], 1000.0)
    sim.run()
    path = topo.path(topo.hosts[2], topo.hosts[0])
    unused = (path[0], path[1])
    assert net.utilisation(unused) == 0.0


def test_utilisation_at_time_zero_is_zero():
    sim = Simulator()
    topo = build_topology("star", num_hosts=2)
    net = FlowNetwork(sim, topo)
    path = topo.path(topo.hosts[0], topo.hosts[1])
    assert net.utilisation((path[0], path[1])) == 0.0


# -- yarn --------------------------------------------------------------------------


def test_nodemanager_rejects_bad_heartbeat_interval():
    from repro.yarn.containers import Resources
    from repro.yarn.resourcemanager import ResourceManager
    from repro.yarn.schedulers import make_scheduler

    sim = Simulator()
    topo = build_topology("star", num_hosts=2)
    net = FlowNetwork(sim, topo)
    rm = ResourceManager(sim, net, topo.hosts[0], make_scheduler("fifo"))
    with pytest.raises(ValueError):
        NodeManager(sim, net, topo.hosts[1], rm, Resources(),
                    heartbeat_interval=0.0)


def test_nodemanager_deallocate_unknown_container_raises():
    from repro.yarn.containers import Container, Resources
    from repro.yarn.resourcemanager import ResourceManager
    from repro.yarn.schedulers import make_scheduler

    sim = Simulator()
    topo = build_topology("star", num_hosts=2)
    net = FlowNetwork(sim, topo)
    rm = ResourceManager(sim, net, topo.hosts[0], make_scheduler("fifo"))
    node = NodeManager(sim, net, topo.hosts[1], rm, Resources(4, 4096))
    ghost = Container(host=topo.hosts[1], app_id="x", resources=Resources())
    with pytest.raises(KeyError):
        node.deallocate(ghost)


# -- inspect ------------------------------------------------------------------------


def test_describe_model_renders_every_component():
    from repro.capture.records import CaptureMeta, JobTrace

    meta = CaptureMeta(job_id="j", job_kind="t", input_bytes=1.0 * GB,
                       submit_time=0.0, finish_time=10.0,
                       cluster={"num_nodes": 4}, hadoop={"num_reducers": 2})
    flows = [FlowRecord(src="a", dst="b", src_rack=0, dst_rack=0,
                        src_port=13562, dst_port=49000 + i, size=100.0 * i + 1,
                        start=float(i), end=float(i) + 1, component="shuffle")
             for i in range(10)]
    model = fit_job_model([JobTrace(meta=meta, flows=flows)])
    overview, laws = describe_model(model)
    assert any("shuffle" in str(row[0]) for row in overview.rows)
    assert len(laws.rows) == len(model.components)
