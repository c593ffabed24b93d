"""Substrate performance micro-benchmarks.

Unlike the E/A benches (which regenerate evaluation artefacts once),
these measure the simulator's own throughput with real repetition —
the cost a user pays per experiment: event-loop rate, max-min rate
recomputation (reference and incremental), and a full end-to-end job
simulation.  The full-job bench also prints the engine's perf counters
(rate recomputes, batched updates, allocator time) so the BENCH_*.json
trajectory tracks efficiency alongside wall time.
"""

from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.topology import build_topology
from repro.cluster.units import MB
from repro.jobs import make_job
from repro.mapreduce.cluster import HadoopCluster
from repro.net.fairshare import FairShareAllocator, max_min_rates
from repro.simkit import Simulator

from benchmarks.conftest import registry_values


def _fabric(num_links=64, num_flows=200):
    links = [f"l{i}" for i in range(num_links)]
    capacities = {link: 1e9 for link in links}
    flow_links = {f"f{i}": [links[i % num_links], links[(i * 7 + 3) % num_links]]
                  for i in range(num_flows)}
    return links, capacities, flow_links


def test_perf_event_loop(benchmark):
    """Raw event throughput: 10k timer events through the heap."""

    def drive():
        sim = Simulator()
        count = [0]
        for i in range(10_000):
            sim.schedule(i * 0.001, lambda: count.__setitem__(0, count[0] + 1))
        sim.run()
        return count[0]

    assert benchmark(drive) == 10_000


def test_perf_event_cancellation_churn(benchmark):
    """Cancel/reschedule churn: the flow network's horizon pattern.

    Every firing event cancels a long-dated placeholder and schedules a
    replacement, exactly how ``FlowNetwork`` maintains its completion
    horizon.  Exercises the lazy heap compaction path.
    """

    def churn():
        sim = Simulator()
        placeholder = [sim.schedule(1e9, lambda: None)]

        def tick(i):
            placeholder[0].cancel()
            placeholder[0] = sim.schedule(1e9, lambda: None)

        for i in range(5_000):
            sim.schedule(i * 0.001, tick, i)
        sim.run(until=10.0)
        value = sim.telemetry.registry.value
        return value("sim.events_fired"), value("sim.heap_compactions")

    fired, compactions = benchmark(churn)
    assert fired == 5_000
    assert compactions > 0


def test_perf_max_min_allocation(benchmark):
    """One reference water-filling pass over 200 flows on a 64-link fabric."""
    _, capacities, flow_links = _fabric()

    rates = benchmark(max_min_rates, flow_links, capacities)
    assert len(rates) == 200


def test_perf_incremental_allocator_churn(benchmark):
    """Arrival/departure churn through the stateful allocator.

    200 resident flows; each iteration removes and re-adds one flow and
    recomputes — the fluid network's steady-state workload, where the
    reference would rebuild every membership dict from scratch.
    """
    _, capacities, flow_links = _fabric()

    def churn():
        allocator = FairShareAllocator(capacities)
        for flow, links in flow_links.items():
            allocator.add_flow(flow, links)
        for i in range(100):
            flow = f"f{i}"
            allocator.remove_flow(flow)
            allocator.add_flow(flow, flow_links[flow])
            rates = allocator.rates()
        return rates

    rates = benchmark(churn)
    assert len(rates) == 200


def test_perf_full_job_simulation(benchmark):
    """A complete 0.5 GiB terasort capture on 8 nodes, end to end."""

    perf = {}
    wave_sizes = []

    def run_job():
        cluster = HadoopCluster(
            ClusterSpec(num_nodes=8, hosts_per_rack=4),
            HadoopConfig(block_size=32 * MB, num_reducers=4), seed=1)
        admit = cluster.net.start_flows

        def start_flows(requests):
            wave_sizes.append(len(requests))
            return admit(requests)

        cluster.net.start_flows = start_flows
        results, traces = cluster.run(
            [make_job("terasort", input_gb=0.5, job_id="perf")])
        perf.update(registry_values(cluster.sim.telemetry.registry,
                                    "sim.", "net."))
        return traces[0].flow_count()

    flows = benchmark(run_job)
    print("\nsubstrate counters (one run):")
    for key in sorted(perf):
        value = perf[key]
        print(f"  {key} = {value:.6f}" if isinstance(value, float)
              else f"  {key} = {value}")
    assert flows > 100
    # Batching must actually coalesce: at most one recompute per flush,
    # and a visible number of same-instant updates folded together.
    assert perf["net.recomputes"] <= perf["net.flushes"]
    assert perf["net.flows_batched"] > 0
    # The producers actually batch: write pipelines and shuffle
    # slow-start waves admit several flows per start_flows call.
    assert max(wave_sizes) > 1


def test_perf_topology_routing(benchmark):
    """Path resolution over a 32-host leaf-spine with cold caches."""

    def route():
        topo = build_topology("leafspine", num_hosts=32, hosts_per_rack=8)
        hops = 0
        for src in topo.hosts[:8]:
            for dst in topo.hosts[24:]:
                hops += len(topo.path(src, dst))
        return hops

    assert benchmark(route) > 0
