"""Datacenter topologies for the simulated cluster.

Four topology families are supported, covering the deployments Hadoop
traffic studies typically use:

* ``star`` — every host on one non-blocking switch (the single-rack
  testbed case),
* ``tree`` — one top-of-rack switch per rack, all ToRs on a core switch,
  with configurable oversubscription,
* ``leafspine`` — ToR (leaf) switches fully meshed to a spine layer,
  ECMP across spines,
* ``fattree`` — a k-ary fat-tree built from the pod construction,
* ``jellyfish`` — ToRs wired as a random regular graph (Singla et al.,
  NSDI'12); paths use the graph's shortest routes.

A topology is a :class:`networkx.Graph` whose nodes are :class:`Host` /
:class:`Switch` objects and whose edges carry a ``capacity`` attribute
in bytes/s.  Routing (:meth:`Topology.path`) returns the hop sequence
for a flow; equal-cost choices are broken by a stable hash of the
(src, dst) pair, i.e. flow-level ECMP.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import networkx as nx
from networkx.algorithms.shortest_paths.generic import (
    _build_paths_from_predecessors,
)

from repro.simkit.rng import stable_hash


@dataclass(frozen=True)
class Host:
    """A worker machine: runs a DataNode and a NodeManager.

    Nodes key every hot dict in the fluid engine (link tuples, byte
    accounting), so the field-tuple hash is precomputed once instead of
    being re-derived on each lookup.  The cached value equals the
    dataclass-generated ``hash((name, rack))``, keeping set/dict
    iteration orders identical to the unoptimised definition.
    """

    name: str
    rack: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.name, self.rack)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Switch:
    """A network switch (ToR, spine, core or aggregation)."""

    name: str
    tier: str  # "tor" | "spine" | "core" | "agg"

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.name, self.tier)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.name


@dataclass
class Topology:
    """A wired cluster: hosts, switches and capacitated edges."""

    graph: nx.Graph
    hosts: List[Host]
    kind: str
    _predecessors: Dict[object, Dict[object, List[object]]] = field(
        default_factory=dict, repr=False)
    _selected_paths: Dict[Tuple[str, str], List[object]] = field(default_factory=dict, repr=False)
    _host_by_name: Dict[str, Host] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._host_by_name = {host.name: host for host in self.hosts}

    @property
    def racks(self) -> List[int]:
        """Sorted list of rack ids present in the topology."""
        return sorted({host.rack for host in self.hosts})

    def host(self, name: str) -> Host:
        """Look a host up by name."""
        return self._host_by_name[name]

    def hosts_in_rack(self, rack: int) -> List[Host]:
        return [host for host in self.hosts if host.rack == rack]

    def path(self, src: Host, dst: Host) -> List[object]:
        """Node sequence (hosts and switches) from ``src`` to ``dst``.

        Among equal-cost shortest paths the choice is a stable hash of
        the endpoint names, which models flow-level ECMP: the same pair
        always uses the same path, different pairs spread over paths.
        """
        if src == dst:
            return [src]
        key = (src.name, dst.name)
        # ECMP is per-pair stable, so the selected path is cached and
        # the stable_hash draw happens once per pair.
        selected = self._selected_paths.get(key)
        if selected is not None:
            return selected
        candidates = list(itertools.islice(self._shortest_paths(src, dst), 16))
        index = stable_hash(f"{src.name}->{dst.name}") % len(candidates)
        selected = candidates[index]
        self._selected_paths[key] = selected
        return selected

    def _shortest_paths(self, src: object, dst: object) -> Iterator[List[object]]:
        """``nx.all_shortest_paths(graph, src, dst)``, in networkx's order,
        from one cached BFS per switch instead of one BFS per pair.

        A leaf (a host on one switch) reaches everything through its
        one neighbour, and a BFS from that neighbour finds every other
        node in the same order as a BFS from the leaf.  So each shortest
        path is the host, a shortest path between the two hosts'
        switches, then the other host, and networkx's own walk back
        over the switch's BFS yields them in the same order.  One BFS
        serves every host behind a switch, and the cache drops leaf
        entries (about ``switches²`` entries, not ``hosts × nodes``).
        """
        first, last = self._attachment(src), self._attachment(dst)
        pred = self._predecessors.get(first)
        if pred is None:
            pred = {node: hops for node, hops
                    in nx.predecessor(self.graph, first).items()
                    if self._attachment(node) is node}
            self._predecessors[first] = pred
        head = [] if first is src else [src]
        tail = [] if last is dst else [dst]
        return (head + walk + tail for walk
                in _build_paths_from_predecessors({first}, last, pred))

    def _attachment(self, node: object) -> object:
        """A leaf's one neighbour (unless that is a leaf too); else ``node``."""
        neighbours = self.graph[node]
        if len(neighbours) == 1:
            (hub,) = neighbours
            if len(self.graph[hub]) > 1:
                return hub
        return node

    def edges_on_path(self, nodes: List[object]) -> List[Tuple[object, object]]:
        """The (u, v) directed hops of a node path."""
        return list(zip(nodes[:-1], nodes[1:]))

    def capacity(self, u: object, v: object) -> float:
        """Capacity of the edge between two adjacent nodes, bytes/s."""
        return self.graph.edges[u, v]["capacity"]


def build_topology(kind: str, num_hosts: int, hosts_per_rack: int = 8,
                   host_gbps: float = 1.0, uplink_gbps: Optional[float] = None,
                   oversubscription: float = 1.0, fattree_k: Optional[int] = None) -> Topology:
    """Build one of the supported topology families.

    Parameters
    ----------
    kind:
        ``star``, ``tree``, ``leafspine`` or ``fattree``.
    num_hosts:
        Worker count.  For ``fattree`` this must not exceed ``k^3/4``.
    hosts_per_rack:
        Hosts behind each ToR for ``tree``/``leafspine``.
    host_gbps:
        Host access link speed, Gbit/s.
    uplink_gbps:
        ToR uplink speed; defaults to the aggregate host bandwidth of a
        rack divided by ``oversubscription``.
    oversubscription:
        Rack oversubscription ratio used when ``uplink_gbps`` is None.
    """
    if num_hosts < 1:
        raise ValueError(f"need at least one host, got {num_hosts}")
    if host_gbps <= 0:
        raise ValueError(f"host_gbps must be positive, got {host_gbps}")
    builders = {
        "star": _build_star,
        "tree": _build_tree,
        "leafspine": _build_leafspine,
        "fattree": _build_fattree,
        "jellyfish": _build_jellyfish,
    }
    builder = builders.get(kind)
    if builder is None:
        raise ValueError(f"unknown topology kind {kind!r}; expected one of {sorted(builders)}")
    host_rate = host_gbps * 1e9 / 8.0
    if uplink_gbps is None:
        uplink_rate = host_rate * hosts_per_rack / max(oversubscription, 1e-9)
    else:
        uplink_rate = uplink_gbps * 1e9 / 8.0
    return builder(num_hosts, hosts_per_rack, host_rate, uplink_rate, fattree_k)


def _build_star(num_hosts: int, hosts_per_rack: int, host_rate: float,
                uplink_rate: float, fattree_k: Optional[int]) -> Topology:
    graph = nx.Graph()
    core = Switch("sw-core", tier="core")
    graph.add_node(core)
    hosts = []
    for index in range(num_hosts):
        host = Host(f"h{index:03d}", rack=0)
        hosts.append(host)
        graph.add_edge(host, core, capacity=host_rate)
    return Topology(graph=graph, hosts=hosts, kind="star")


def _build_tree(num_hosts: int, hosts_per_rack: int, host_rate: float,
                uplink_rate: float, fattree_k: Optional[int]) -> Topology:
    graph = nx.Graph()
    core = Switch("sw-core", tier="core")
    graph.add_node(core)
    hosts = []
    num_racks = (num_hosts + hosts_per_rack - 1) // hosts_per_rack
    for rack in range(num_racks):
        tor = Switch(f"sw-tor{rack:02d}", tier="tor")
        graph.add_edge(tor, core, capacity=uplink_rate)
        for slot in range(hosts_per_rack):
            index = rack * hosts_per_rack + slot
            if index >= num_hosts:
                break
            host = Host(f"h{index:03d}", rack=rack)
            hosts.append(host)
            graph.add_edge(host, tor, capacity=host_rate)
    return Topology(graph=graph, hosts=hosts, kind="tree")


def _build_leafspine(num_hosts: int, hosts_per_rack: int, host_rate: float,
                     uplink_rate: float, fattree_k: Optional[int]) -> Topology:
    graph = nx.Graph()
    num_racks = (num_hosts + hosts_per_rack - 1) // hosts_per_rack
    num_spines = max(2, min(4, num_racks))
    spines = [Switch(f"sw-spine{i}", tier="spine") for i in range(num_spines)]
    hosts = []
    per_spine_rate = uplink_rate / num_spines
    for rack in range(num_racks):
        leaf = Switch(f"sw-leaf{rack:02d}", tier="tor")
        for spine in spines:
            graph.add_edge(leaf, spine, capacity=per_spine_rate)
        for slot in range(hosts_per_rack):
            index = rack * hosts_per_rack + slot
            if index >= num_hosts:
                break
            host = Host(f"h{index:03d}", rack=rack)
            hosts.append(host)
            graph.add_edge(host, leaf, capacity=host_rate)
    return Topology(graph=graph, hosts=hosts, kind="leafspine")


def _build_fattree(num_hosts: int, hosts_per_rack: int, host_rate: float,
                   uplink_rate: float, fattree_k: Optional[int]) -> Topology:
    k = fattree_k or _smallest_even_k(num_hosts)
    if k % 2 != 0:
        raise ValueError(f"fat-tree k must be even, got {k}")
    if num_hosts > k ** 3 // 4:
        raise ValueError(f"k={k} fat-tree supports at most {k ** 3 // 4} hosts, asked {num_hosts}")
    graph = nx.Graph()
    cores = [Switch(f"sw-core{i:02d}", tier="core") for i in range((k // 2) ** 2)]
    hosts: List[Host] = []
    host_index = 0
    for pod in range(k):
        aggs = [Switch(f"sw-agg{pod:02d}-{i}", tier="agg") for i in range(k // 2)]
        edges = [Switch(f"sw-edge{pod:02d}-{i}", tier="tor") for i in range(k // 2)]
        for agg_index, agg in enumerate(aggs):
            for core_slot in range(k // 2):
                core = cores[agg_index * (k // 2) + core_slot]
                graph.add_edge(agg, core, capacity=host_rate)
            for edge in edges:
                graph.add_edge(agg, edge, capacity=host_rate)
        for edge_index, edge in enumerate(edges):
            rack = pod * (k // 2) + edge_index
            for _ in range(k // 2):
                if host_index >= num_hosts:
                    break
                host = Host(f"h{host_index:03d}", rack=rack)
                hosts.append(host)
                graph.add_edge(host, edge, capacity=host_rate)
                host_index += 1
    return Topology(graph=graph, hosts=hosts, kind="fattree")


def _build_jellyfish(num_hosts: int, hosts_per_rack: int, host_rate: float,
                     uplink_rate: float, fattree_k: Optional[int]) -> Topology:
    num_racks = (num_hosts + hosts_per_rack - 1) // hosts_per_rack
    if num_racks < 2:
        # Degenerate single-switch case.
        return _build_star(num_hosts, hosts_per_rack, host_rate,
                           uplink_rate, fattree_k)
    # Random regular inter-switch degree: as many ports as fit, >= 2.
    degree = min(max(2, num_racks // 2), num_racks - 1)
    if (degree * num_racks) % 2 != 0:
        degree = max(2, degree - 1) if degree > 2 else degree
        if (degree * num_racks) % 2 != 0:
            degree += 1
    seed = stable_hash(f"jellyfish-{num_racks}-{degree}")
    switch_graph = nx.random_regular_graph(degree, num_racks, seed=seed)
    # Regenerate until connected (regular graphs of degree >= 3 almost
    # always are; degree-2 rings always are).
    attempts = 0
    while not nx.is_connected(switch_graph) and attempts < 16:
        attempts += 1
        switch_graph = nx.random_regular_graph(degree, num_racks,
                                               seed=seed + attempts)
    if not nx.is_connected(switch_graph):
        raise RuntimeError("failed to build a connected jellyfish graph")
    graph = nx.Graph()
    switches = [Switch(f"sw-jf{rack:02d}", tier="tor") for rack in range(num_racks)]
    per_port_rate = uplink_rate / degree
    for u, v in switch_graph.edges:
        graph.add_edge(switches[u], switches[v], capacity=per_port_rate)
    hosts: List[Host] = []
    for rack in range(num_racks):
        for slot in range(hosts_per_rack):
            index = rack * hosts_per_rack + slot
            if index >= num_hosts:
                break
            host = Host(f"h{index:03d}", rack=rack)
            hosts.append(host)
            graph.add_edge(host, switches[rack], capacity=host_rate)
    return Topology(graph=graph, hosts=hosts, kind="jellyfish")


def _smallest_even_k(num_hosts: int) -> int:
    k = 2
    while k ** 3 // 4 < num_hosts:
        k += 2
    return k
