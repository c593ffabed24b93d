"""Unit tests for topology construction and routing."""

from itertools import islice

import networkx as nx
import pytest

from repro.cluster.topology import Host, Switch, Topology, build_topology
from repro.cluster.units import GBPS
from repro.simkit.rng import stable_hash


def test_star_connects_all_hosts_to_one_switch():
    topo = build_topology("star", num_hosts=5)
    assert topo.kind == "star"
    assert len(topo.hosts) == 5
    switches = [n for n in topo.graph.nodes if isinstance(n, Switch)]
    assert len(switches) == 1
    assert all(host.rack == 0 for host in topo.hosts)


def test_tree_rack_assignment_and_path_length():
    topo = build_topology("tree", num_hosts=16, hosts_per_rack=4)
    assert topo.racks == [0, 1, 2, 3]
    a, b = topo.hosts_in_rack(0)[0], topo.hosts_in_rack(0)[1]
    same_rack_path = topo.path(a, b)
    assert len(same_rack_path) == 3  # host - tor - host
    c = topo.hosts_in_rack(2)[0]
    cross_rack_path = topo.path(a, c)
    assert len(cross_rack_path) == 5  # host - tor - core - tor - host


def test_path_to_self_is_trivial():
    topo = build_topology("star", num_hosts=3)
    host = topo.hosts[0]
    assert topo.path(host, host) == [host]
    assert topo.edges_on_path([host]) == []


def test_path_is_deterministic():
    topo = build_topology("leafspine", num_hosts=16, hosts_per_rack=4)
    a, b = topo.hosts[0], topo.hosts[12]
    assert topo.path(a, b) == topo.path(a, b)


def test_leafspine_spreads_pairs_over_spines():
    topo = build_topology("leafspine", num_hosts=32, hosts_per_rack=8)
    spines_used = set()
    src_rack = topo.hosts_in_rack(0)
    dst_rack = topo.hosts_in_rack(1)
    for src in src_rack:
        for dst in dst_rack:
            path = topo.path(src, dst)
            spine = [n for n in path if isinstance(n, Switch) and n.tier == "spine"]
            assert len(spine) == 1
            spines_used.add(spine[0].name)
    assert len(spines_used) > 1  # ECMP actually spreads load


def test_tree_uplink_capacity_honours_oversubscription():
    topo = build_topology("tree", num_hosts=8, hosts_per_rack=4,
                          host_gbps=1.0, oversubscription=2.0)
    tor = next(n for n in topo.graph.nodes
               if isinstance(n, Switch) and n.tier == "tor")
    core = next(n for n in topo.graph.nodes
                if isinstance(n, Switch) and n.tier == "core")
    host = topo.hosts[0]
    host_capacity = topo.capacity(host, next(iter(topo.graph.neighbors(host))))
    assert host_capacity == pytest.approx(1.0 * GBPS)
    # 4 hosts/rack at 1 Gbit over 2:1 oversubscription -> 2 Gbit uplink.
    assert topo.capacity(tor, core) == pytest.approx(2.0 * GBPS)


def test_fattree_k4_supports_16_hosts():
    topo = build_topology("fattree", num_hosts=16, fattree_k=4)
    assert len(topo.hosts) == 16
    # k=4 fat-tree: 4 core + 8 agg + 8 edge switches.
    switches = [n for n in topo.graph.nodes if isinstance(n, Switch)]
    assert len(switches) == 20
    a, b = topo.hosts[0], topo.hosts[15]
    path = topo.path(a, b)
    assert len(path) == 7  # host-edge-agg-core-agg-edge-host


def test_fattree_rejects_too_many_hosts():
    with pytest.raises(ValueError):
        build_topology("fattree", num_hosts=32, fattree_k=4)


def test_fattree_auto_k():
    topo = build_topology("fattree", num_hosts=20)
    assert len(topo.hosts) == 20  # k=6 chosen automatically (54 max)


def test_unknown_kind_raises():
    with pytest.raises(ValueError):
        build_topology("butterfly", num_hosts=4)


def test_invalid_params_raise():
    with pytest.raises(ValueError):
        build_topology("star", num_hosts=0)
    with pytest.raises(ValueError):
        build_topology("star", num_hosts=4, host_gbps=0)


def test_host_lookup_by_name():
    topo = build_topology("star", num_hosts=4)
    assert topo.host("h002") == topo.hosts[2]
    with pytest.raises(KeyError):
        topo.host("h099")


def _assert_paths_match_networkx(topo):
    """Every ordered host pair takes the stable-hash pick among the first
    16 of networkx's all shortest paths, in networkx's order.  Returns
    how many pairs had more than one candidate."""
    multipath = 0
    for src in topo.hosts:
        for dst in topo.hosts:
            if src == dst:
                continue
            candidates = list(islice(
                nx.all_shortest_paths(topo.graph, src, dst), 16))
            multipath += len(candidates) > 1
            expected = candidates[
                stable_hash(f"{src.name}->{dst.name}") % len(candidates)]
            assert topo.path(src, dst) == expected, (src.name, dst.name)
    return multipath


@pytest.mark.parametrize("kind, params", [
    ("star", dict(num_hosts=6)),
    ("tree", dict(num_hosts=16, hosts_per_rack=4)),
    ("leafspine", dict(num_hosts=16, hosts_per_rack=4)),
    ("fattree", dict(num_hosts=16, fattree_k=4)),
    ("jellyfish", dict(num_hosts=24, hosts_per_rack=3)),
])
def test_path_pins_ecmp_choice_among_all_shortest_paths(kind, params):
    multipath = _assert_paths_match_networkx(build_topology(kind, **params))
    if kind in ("leafspine", "fattree", "jellyfish"):
        assert multipath > 0  # the pin covers real ECMP choices


def test_path_pins_ecmp_choice_for_multihomed_hosts():
    """Hosts wired to two switches (and to each other) route from their
    own BFS, a leaf behind a host from that host's; the pick still
    matches networkx."""
    graph = nx.Graph()
    hosts = [Host(f"h{index}", rack=index % 2) for index in range(4)]
    left, right = Switch("sw-a", tier="tor"), Switch("sw-b", tier="tor")
    for host in hosts:
        graph.add_edge(host, left, capacity=1.0)
        graph.add_edge(host, right, capacity=1.0)
    graph.add_edge(hosts[0], hosts[1], capacity=1.0)
    extra = Host("h4", rack=0)
    graph.add_edge(extra, hosts[3], capacity=1.0)  # a leaf behind a host
    topo = Topology(graph=graph, hosts=hosts + [extra], kind="custom")
    assert _assert_paths_match_networkx(topo) > 0
    # Two hosts wired only to each other are both leaves.
    pair = nx.Graph()
    pair.add_edge(hosts[0], hosts[1], capacity=1.0)
    topo = Topology(graph=pair, hosts=hosts[:2], kind="custom")
    assert _assert_paths_match_networkx(topo) == 0
