"""The scalar fluid engine against its dict-keyed reference loop.

The scalar engine banks per-link delivered bytes into a list indexed by
the allocator's dense link ids, harvests finished flows inside the
advance pass, and assigns rates and takes the completion horizon in
one pass.  :class:`DictKeyedFlowNetwork` below keeps the loops it
replaced: ``link_bytes[(u, v)] += moved`` into a ``defaultdict``, a
separate harvest scan, and a rate pass followed by a ``min()`` horizon
pass.  The arithmetic is the same, so everything must match bit for
bit: capture bytes, per-flow end times, and ``link_bytes`` values *and*
key order (``replay_trace`` sums link utilisations in that order).
"""

import random
from collections import defaultdict

import pytest

from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.topology import build_topology
from repro.cluster.units import GBPS, MB
from repro.jobs import make_job
from repro.mapreduce.cluster import HadoopCluster
from repro.net import backend as backend_module
from repro.net.backend import FlowRequest
from repro.net.network import _DONE_EPS_BYTES, FlowNetwork
from repro.simkit import Simulator


class DictKeyedFlowNetwork(FlowNetwork):
    """The scalar engine with its original dict-keyed fluid loops."""

    @property
    def link_bytes(self):
        return self._ref_link_bytes

    @link_bytes.setter
    def link_bytes(self, value):
        self._ref_link_bytes = value

    def _advance_progress(self):
        now = self.sim.now
        if now != self._last_progress:
            self._last_progress = now
            link_bytes = self.link_bytes
            for flow in self.active.values():
                elapsed = now - flow.last_update
                if elapsed > 0 and flow.rate > 0:
                    moved = min(flow.rate * elapsed, flow.remaining)
                    flow.remaining -= moved
                    for link in flow.links:
                        link_bytes[link] += moved
                flow.last_update = now
        return [flow for flow in self.active.values()
                if flow.remaining <= _DONE_EPS_BYTES]

    def _advance_and_reschedule(self):
        self._harvest_finished(self._advance_progress())
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if not self.active:
            return
        rates = self._allocator.rates()
        for flow_id, flow in self.active.items():
            flow.rate = rates[flow_id]
        horizon = min(
            flow.remaining / flow.rate if flow.rate > 0 else float("inf")
            for flow in self.active.values())
        if horizon == float("inf"):
            raise RuntimeError("active flows exist but none can make progress")
        self._completion_event = self.sim.schedule(
            horizon, self._complete_due, priority=-1)


def test_reference_keeps_its_own_dict():
    sim = Simulator()
    topo = build_topology("star", num_hosts=3)
    net = DictKeyedFlowNetwork(sim, topo)
    assert isinstance(net.link_bytes, defaultdict)
    net.start_flow(topo.hosts[0], topo.hosts[1], 1.0 * GBPS)
    sim.run()
    assert net._link_acc and not any(net._link_acc)  # banked nowhere else


# -- a seeded capture ---------------------------------------------------------------


def _capture(monkeypatch, network_cls):
    monkeypatch.setitem(backend_module.BACKENDS, "fluid", network_cls)
    cluster = HadoopCluster(
        ClusterSpec(num_nodes=12, hosts_per_rack=4),
        HadoopConfig(block_size=32 * MB, num_reducers=4), seed=19)
    results, traces = cluster.run(
        [make_job("terasort", input_gb=0.375, job_id="ref")])
    assert not results[0].failed
    assert type(cluster.net) is network_cls
    counts = cluster.sim.telemetry.registry.value
    return (traces[0], list(cluster.net.link_bytes.items()),
            [counts(name) for name in ("net.recomputes", "net.flushes",
                                       "net.waterfill_rounds",
                                       "sim.events_fired")])


def test_seeded_terasort_matches_dict_keyed_reference(monkeypatch, tmp_path):
    trace, link_bytes, counts = _capture(monkeypatch, FlowNetwork)
    ref_trace, ref_link_bytes, ref_counts = _capture(monkeypatch,
                                                     DictKeyedFlowNetwork)
    trace.to_jsonl(str(tmp_path / "fast.jsonl"))
    ref_trace.to_jsonl(str(tmp_path / "ref.jsonl"))
    assert ((tmp_path / "fast.jsonl").read_bytes()
            == (tmp_path / "ref.jsonl").read_bytes())
    assert link_bytes and link_bytes == ref_link_bytes  # values and order
    assert counts == ref_counts


# -- randomized start / complete churn -------------------------------------------------


def _churn(network_cls, seed):
    """Drive one scripted churn; return everything observable."""
    rng = random.Random(seed)
    sim = Simulator()
    topo = build_topology("tree", num_hosts=12, hosts_per_rack=4,
                          oversubscription=rng.choice([1.0, 2.0, 4.0]))
    net = network_cls(sim, topo,
                      hop_latency=rng.choice([0.0, 0.0, 2e-4]),
                      batch_updates=rng.random() < 0.8)
    hosts = topo.hosts
    flows = []
    reads = []

    def request():
        src = rng.choice(hosts)
        dst = rng.choice(hosts) if rng.random() < 0.9 else src
        size = rng.choice([0.0, 0.3, rng.uniform(1.0, 5e8)])
        cap = rng.choice([None, None, rng.uniform(2e7, 2e8)])
        return FlowRequest(src, dst, size, max_rate=cap)

    def start_one():
        r = request()
        flows.append(net.start_flow(r.src, r.dst, r.size, max_rate=r.max_rate))

    def start_wave():
        flows.extend(net.start_flows([request()
                                      for _ in range(rng.randint(2, 12))]))

    def read_link_bytes():
        reads.append((sim.now, list(net.link_bytes.items())))

    actions = [start_one, start_wave, read_link_bytes]
    at = 0.0
    for _ in range(rng.randint(40, 70)):
        # Repeated instants exercise same-timestamp coalescing.
        at += rng.choice([0.0, rng.uniform(0.0, 0.5), rng.uniform(0.0, 3.0)])
        sim.schedule(at, rng.choice(actions))
    sim.run()
    read_link_bytes()
    return ([(flow.flow_id, flow.end_time, flow.remaining, flow.rate)
             for flow in flows], reads, net.completed_count,
            net.total_bytes)


@pytest.mark.parametrize("seed", range(25))
def test_randomized_churn_matches_dict_keyed_reference(seed):
    fast = _churn(FlowNetwork, seed)
    ref = _churn(DictKeyedFlowNetwork, seed)
    assert fast == ref
    reads = fast[1]
    assert any(items for _, items in reads)
