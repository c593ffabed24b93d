"""Property-based end-to-end invariants of the whole substrate.

Hypothesis drives random (job, input, cluster, config) combinations
through a full capture and checks the invariants that must hold for
*any* configuration — the strongest regression net in the suite.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.ports import ephemeral_port
from repro.cluster.units import MB
from repro.hdfs.placement import DefaultPlacementPolicy, RandomPlacementPolicy
from repro.jobs import make_job, make_plan
from repro.mapreduce import counters as ctr
from repro.mapreduce.cluster import HadoopCluster
from repro.net.fairshare import allocation_is_feasible, bottlenecked_flows

JOB_KINDS = ["terasort", "wordcount", "grep", "teragen", "dfsio-read"]


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(JOB_KINDS),
    input_mb=st.sampled_from([64, 160, 288]),
    nodes=st.sampled_from([4, 6, 8]),
    reducers=st.integers(min_value=1, max_value=6),
    replication=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=50),
)
def test_capture_invariants(kind, input_mb, nodes, reducers, replication, seed):
    cluster = HadoopCluster(
        ClusterSpec(num_nodes=nodes, hosts_per_rack=4),
        HadoopConfig(block_size=32 * MB, num_reducers=reducers,
                     replication=replication),
        seed=seed)
    spec = make_job(kind, input_gb=input_mb / 1024.0, job_id="prop")
    results, traces = cluster.run([spec])
    result, trace = results[0], traces[0]
    round0 = result.rounds[0]
    counters = result.counters()

    # -- termination and cleanliness ------------------------------------------
    assert not result.failed
    assert result.finish_time > result.submit_time
    assert cluster.sim.pending() == 0
    assert not cluster.net.active

    # -- task accounting ---------------------------------------------------------
    expected_maps = max(1, -(-int(input_mb * MB) // (32 * MB))) \
        if kind != "teragen" else round0.num_maps
    if kind != "teragen":
        assert round0.num_maps == expected_maps
    assert counters[ctr.TOTAL_LAUNCHED_MAPS] == round0.num_maps
    assert counters[ctr.NUM_KILLED_MAPS] == 0

    # -- flow sanity ----------------------------------------------------------------
    for flow in trace.flows:
        assert flow.size >= 0
        assert flow.end >= flow.start
        assert flow.src != flow.dst  # local transfers never captured

    # -- conservation -----------------------------------------------------------------
    # Captured shuffle (network) bytes never exceed the map output, and
    # together with host-local fetches they equal it exactly.
    if round0.num_reduces > 0:
        assert trace.total_bytes("shuffle") <= round0.map_output_bytes + 1.0
        assert round0.shuffle_bytes == pytest.approx(round0.map_output_bytes)
    # HDFS write traffic is bounded by the replication pipeline:
    # logical bytes written are counted; each crosses the wire at most
    # `replication` times and at least `replication - 1` times.
    logical = counters[ctr.HDFS_BYTES_WRITTEN] + 2 * MB  # + jar staging
    network_writes = trace.total_bytes("hdfs_write")
    max_replication = max(replication, min(10, nodes))  # jar uses up to 10
    assert network_writes <= logical * max_replication
    # Reads on the wire are at most the bytes read from HDFS.
    assert trace.total_bytes("hdfs_read") <= counters[ctr.HDFS_BYTES_READ] + 1.0

    # -- capture window ---------------------------------------------------------------
    data_flows = [f for f in trace.flows
                  if f.component in ("hdfs_read", "shuffle", "hdfs_write")]
    for flow in data_flows:
        assert flow.start >= result.submit_time - 1e-9
        assert flow.end <= result.finish_time + 1e-6


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(["wordcount", "grep"]),
    seed=st.integers(min_value=0, max_value=30),
)
def test_same_seed_reproduces_exactly(kind, seed):
    def fingerprint():
        cluster = HadoopCluster(
            ClusterSpec(num_nodes=4, hosts_per_rack=4),
            HadoopConfig(block_size=32 * MB, num_reducers=2), seed=seed)
        _, traces = cluster.run([make_job(kind, input_gb=0.125, job_id="det")])
        return [(f.src, f.dst, f.size, round(f.start, 9), round(f.end, 9),
                 f.component) for f in traces[0].flows]

    assert fingerprint() == fingerprint()


# -- oracle-free physical invariants, on every substrate --------------------------------

#: (backend, fluid engine) pairs; non-fluid backends ignore the engine.
SUBSTRATES = [("fluid", "scalar"), ("fluid", "vectorized"),
              ("analytic", "scalar"), ("record", "scalar")]

capture_configs = settings(max_examples=5, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])
capture_axes = dict(
    kind=st.sampled_from(JOB_KINDS),
    input_mb=st.sampled_from([64, 160, 288]),
    nodes=st.sampled_from([4, 6, 8]),
    reducers=st.integers(min_value=1, max_value=4),
    replication=st.integers(min_value=1, max_value=3),
    random_placement=st.booleans(),
    seed=st.integers(min_value=0, max_value=50),
)


def _capture_all_flows(substrate, kind, input_mb, nodes, reducers,
                       replication, random_placement, seed):
    """Run one fault-free capture.

    Returns (cluster, spec, every flow, job result, captured trace).
    The flows come from a backend listener, so host-local transfers
    (which the capture itself never records) are included.
    """
    backend, engine = substrate
    policy = (RandomPlacementPolicy() if random_placement
              else DefaultPlacementPolicy())
    cluster = HadoopCluster(
        ClusterSpec(num_nodes=nodes, hosts_per_rack=4, backend=backend,
                    engine=engine),
        HadoopConfig(block_size=32 * MB, num_reducers=reducers,
                     replication=replication),
        seed=seed, placement_policy=policy)
    completed = []
    cluster.net.add_listener(completed.append)
    spec = make_job(kind, input_gb=input_mb / 1024.0, job_id="inv")
    results, traces = cluster.run([spec])
    assert not results[0].failed
    assert not cluster.net.active
    return cluster, spec, completed, results[0], traces[0]


@pytest.mark.parametrize("substrate", SUBSTRATES,
                         ids=lambda pair: "/".join(pair))
@capture_configs
@given(**capture_axes)
def test_link_bytes_are_the_bytes_of_the_flows_crossing(substrate, **axes):
    """Per-link delivered bytes = sizes of the flows over that link.

    A fluid flow retires once its remaining bytes drop to
    ``_DONE_EPS_BYTES`` (0.5 B), so each crossing flow may leave up to
    half a byte undelivered; float accumulation adds a 1e-9 relative
    tolerance.  Utilisation can then never exceed line rate.
    """
    cluster, _, completed, _, _ = _capture_all_flows(substrate, **axes)
    net = cluster.net
    crossing_bytes = {}
    crossing_flows = {}
    for flow in completed:
        if flow.local:
            continue
        if net.name != "record" and flow.size > 0:
            assert flow.links, f"routed flow {flow!r} crosses no link"
        for link in flow.links:
            crossing_bytes[link] = crossing_bytes.get(link, 0.0) + flow.size
            crossing_flows[link] = crossing_flows.get(link, 0) + 1
    link_bytes = dict(net.link_bytes)
    if net.name == "record":
        # No routing, no delivery: the substrate puts nothing on links.
        assert not crossing_bytes and not link_bytes
    else:
        assert crossing_bytes
    for link in set(crossing_bytes) | set(link_bytes):
        expected = crossing_bytes.get(link, 0.0)
        slack = 1e-9 * expected
        shortfall = expected - link_bytes.get(link, 0.0)
        assert -slack <= shortfall, (link, expected, link_bytes.get(link))
        assert shortfall <= 0.5 * crossing_flows.get(link, 0) + slack, \
            (link, expected, link_bytes.get(link))
        assert net.utilisation(link) <= 1.0 + 1e-6, link


@pytest.mark.parametrize("substrate", SUBSTRATES,
                         ids=lambda pair: "/".join(pair))
@capture_configs
@given(**capture_axes)
# Random placement can put the writer's replica after another one; the
# writer must still write that replica once, locally, not also receive
# it over the wire.
@example(kind="terasort", input_mb=64, nodes=4, reducers=1, replication=2,
         random_placement=True, seed=2)
def test_hdfs_replicas_equal_write_hops_plus_local_writes(substrate, **axes):
    """Every replica of every written block is written exactly once.

    Summed over the blocks the job allocated (its preloaded input
    excluded), ``len(replicas)`` equals the replication pipeline's wire
    hops plus the writers' local replica writes.
    """
    cluster, spec, completed, _, _ = _capture_all_flows(substrate, **axes)
    namenode = cluster.namenode
    replicas = sum(len(location.replicas)
                   for path in namenode.list_files()
                   if path != spec.input_path
                   for location in namenode.locate_file(path))
    services = [flow.metadata.get("service") for flow in completed]
    wire_hops = sum(1 for flow, service in zip(completed, services)
                    if service == "dfs-write-pipeline" and not flow.local)
    local_writes = services.count("dfs-write-local")
    assert services.count("dfs-write-pipeline") == wire_hops, \
        "a pipeline hop stayed on one host"
    assert replicas > 0
    assert replicas == wire_hops + local_writes


def _local_fetches_from_ports(result, shuffle):
    """Host-local shuffle fetches, inferred from the remote ones alone.

    Reducer ``r`` opens its fetch connection to host ``h`` on port
    ``ephemeral_port("shuffle-<app>-<r>-<h>")``, which names the
    reducer (and so its host) behind every captured shuffle flow.  A
    host's map count is what any reducer elsewhere fetched from it, and
    must agree between those reducers.  A reducer's local fetches are
    the map count of its own host.
    """
    round0 = result.rounds[0]
    maps, reduces = round0.num_maps, round0.num_reduces
    hosts = {flow.src for flow in shuffle}
    owner = {(host, ephemeral_port(f"shuffle-{round0.app_id}-{r}-{host}")): r
             for r in range(reduces) for host in hosts}
    fetched = Counter()
    reducer_host = {}
    for flow in shuffle:
        reducer = owner.get((flow.src, flow.dst_port))
        assert reducer is not None, f"{flow.flow_id} names no reducer"
        fetched[reducer, flow.src] += 1
        assert reducer_host.setdefault(reducer, flow.dst) == flow.dst, \
            f"reducer {reducer} fetched on two hosts"
    maps_on = {}
    for (reducer, host), count in fetched.items():
        assert maps_on.setdefault(host, count) == count, \
            f"reducers disagree on the maps at {host}"
    # A host no reducer fetched from remotely holds every map the
    # remote fetches leave unaccounted for (all reducers sit there).
    unseen = maps - sum(maps_on.values())
    assert unseen >= 0, f"{sum(maps_on.values())} maps fetched, job ran {maps}"
    local = sum(maps_on.get(host, unseen) for host in reducer_host.values())
    # A reducer that fetched nothing remotely found every map on its host.
    return local + maps * (reduces - len(reducer_host))


@pytest.mark.parametrize("substrate", SUBSTRATES,
                         ids=lambda pair: "/".join(pair))
@capture_configs
@given(**capture_axes)
# One reducer: nobody fetches its host's map outputs remotely, so that
# host's map count comes from the total.
@example(kind="terasort", input_mb=160, nodes=4, reducers=1, replication=2,
         random_placement=False, seed=0)
def test_remote_shuffle_flows_are_maps_times_reduces_minus_local_fetches(
        substrate, **axes):
    """Every reducer fetches every map output exactly once.

    The capture holds the remote fetches only, so remote shuffle flows
    = maps x reduces - local fetches.  The local fetches are inferred
    from the capture's fetch ports and must match the host-local
    shuffle flows the substrate carried.
    """
    _, _, completed, result, trace = _capture_all_flows(substrate, **axes)
    round0 = result.rounds[0]
    shuffle = trace.component("shuffle")
    local = _local_fetches_from_ports(result, shuffle)
    carried_locally = sum(1 for flow in completed if flow.local
                          and flow.metadata.get("service") == "shuffle-fetch")
    assert local == carried_locally
    assert len(shuffle) == round0.num_maps * round0.num_reduces - local


@pytest.mark.parametrize("engine", ["scalar", "vectorized"])
@pytest.mark.parametrize("kind", ["terasort", "wordcount"])
def test_every_recompute_of_a_capture_is_feasible_and_max_min(
        monkeypatch, engine, kind):
    """Each allocation a real capture uses respects capacities, and
    every flow in it is bottlenecked (a saturated link or its cap)."""
    cluster = HadoopCluster(
        ClusterSpec(num_nodes=6, hosts_per_rack=3, engine=engine,
                    oversubscription=2.0),
        HadoopConfig(block_size=32 * MB, num_reducers=3, replication=2),
        seed=3)
    net = cluster.net
    allocator = net._allocator
    checked = []

    def check(rates):
        active = net.active
        assert set(rates) == set(active)
        flow_links = {fid: flow.links for fid, flow in active.items()}
        capacities = {link: net.topology.capacity(*link)
                      for links in flow_links.values() for link in links}
        caps = {fid: flow.max_rate for fid, flow in active.items()
                if flow.max_rate is not None}
        assert allocation_is_feasible(rates, flow_links, capacities)
        verdicts = bottlenecked_flows(rates, flow_links, capacities, caps)
        assert set(verdicts) == set(rates)
        assert all(verdicts.values()), \
            [fid for fid, ok in verdicts.items() if not ok]
        checked.append(len(rates))

    # The allocator classes use __slots__, so observe on the class.
    if engine == "scalar":
        compute = type(allocator).rates

        def observed_rates(self):
            rates = compute(self)
            if self is allocator:
                check(rates)
            return rates

        monkeypatch.setattr(type(allocator), "rates", observed_rates)
    else:
        recompute = type(allocator).recompute

        def observed_recompute(self):
            recompute(self)
            if self is allocator:
                check({fid: float(self.rate_array[self.slot_of(fid)])
                       for fid in net.active})

        monkeypatch.setattr(type(allocator), "recompute", observed_recompute)
    results, _ = cluster.run([make_job(kind, input_gb=0.25)])
    assert not results[0].failed
    assert len(checked) == allocator.recomputes > 50
    assert max(checked) > 1


#: The registered plans at a small size, by name.
PLAN_PARAMS = {"tpcx-hs": {"scale": 0.0625},
               "pig-aggregation": {"input_gb": 0.125}}


@pytest.mark.parametrize("substrate", SUBSTRATES,
                         ids=lambda pair: "/".join(pair))
@pytest.mark.parametrize("plan_name", sorted(PLAN_PARAMS))
def test_plan_stage_input_is_upstream_output_times_carryover(substrate,
                                                             plan_name):
    """A dependent stage reads exactly what its upstreams wrote, scaled
    by each edge's carryover: data moves between stages through HDFS
    files, never by a side channel."""
    backend, engine = substrate
    plan = make_plan(plan_name, **PLAN_PARAMS[plan_name])
    cluster = HadoopCluster(
        ClusterSpec(num_nodes=4, hosts_per_rack=2, backend=backend,
                    engine=engine),
        HadoopConfig(block_size=32 * MB, num_reducers=2), seed=5)
    result, _ = cluster.run_plan(plan)
    dependent = [stage for stage in plan.topological_order()
                 if not stage.is_root]
    assert dependent
    for stage in dependent:
        record = result.stage(stage.name)
        assert record.status == "completed", stage.name
        upstream = sum(result.stage(edge.source).job.output_bytes
                       * edge.carryover for edge in stage.inputs)
        assert upstream > 0
        assert record.job.input_bytes == upstream, stage.name
