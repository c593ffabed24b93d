"""One entry point per evaluation artefact (DESIGN.md's E/A index).

Every function regenerates the rows/series of one reconstructed paper
table or figure and returns them as :class:`~repro.analysis.tables.
Table` objects.  Benchmarks call these and print the rendered text;
EXPERIMENTS.md records representative output.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.analysis.breakdown import component_breakdown
from repro.analysis.compare import validation_summary
from repro.analysis.tables import Table, cdf_table
from repro.capture.records import TrafficComponent
from repro.cluster.units import GB, MB
from repro.experiments.campaigns import (
    DEFAULT_JOBS,
    DEFAULT_SEED,
    DEFAULT_SIZES_GB,
    CampaignConfig,
    capture,
    capture_campaign,
)
from repro.experiments.runner import derive_seed
from repro.generation.generator import generate_trace
from repro.generation.replay import replay_trace
from repro.hdfs.placement import RandomPlacementPolicy
from repro.jobs import make_job
from repro.mapreduce.cluster import HadoopCluster
from repro.modeling.fitting import best_report
from repro.modeling.model import fit_job_model

DATA_COMPONENTS = [c.value for c in TrafficComponent.data_components()]


def _mib(value: float) -> float:
    return value / MB


# -- E1: traffic breakdown per job type -------------------------------------------


def e01_breakdown(input_gb: float = 1.0, jobs: Optional[List[str]] = None,
                  seed: int = DEFAULT_SEED) -> List[Table]:
    """Per-job traffic volume decomposition (the stacked-bar figure)."""
    table = Table(
        title=f"E1: traffic breakdown by component, input={input_gb} GiB",
        headers=["job", "hdfs_read MiB", "shuffle MiB", "hdfs_write MiB",
                 "control MiB", "total MiB", "shuffle share"])
    for job in jobs or DEFAULT_JOBS:
        _, trace = capture(job, input_gb, seed=seed)
        stats = component_breakdown(trace)
        total = trace.total_bytes()
        table.add_row(
            job,
            _mib(stats["hdfs_read"]["bytes"]),
            _mib(stats["shuffle"]["bytes"]),
            _mib(stats["hdfs_write"]["bytes"]),
            _mib(stats["control"]["bytes"]),
            _mib(total),
            stats["shuffle"]["bytes"] / total if total else 0.0)
    table.notes.append("shuffle-heavy (terasort) vs read-heavy (grep/kmeans) "
                       "vs write contributions follow job semantics")
    return [table]


# -- E2: total traffic vs input size ------------------------------------------------


def e02_input_scaling(jobs: Optional[List[str]] = None,
                      sizes_gb: Optional[List[float]] = None,
                      seed: int = DEFAULT_SEED) -> List[Table]:
    """Traffic volume against input size (the log-log scaling figure)."""
    sizes_gb = sizes_gb or DEFAULT_SIZES_GB
    table = Table(
        title="E2: total data-plane traffic vs input size",
        headers=["job", "input GiB", "read MiB", "shuffle MiB",
                 "write MiB", "total MiB", "MiB per input GiB"])
    for job in jobs or DEFAULT_JOBS:
        for index, gb in enumerate(sizes_gb):
            _, trace = capture(job, gb, seed=derive_seed(seed, index))
            read = trace.total_bytes("hdfs_read")
            shuffle = trace.total_bytes("shuffle")
            write = trace.total_bytes("hdfs_write")
            total = read + shuffle + write
            table.add_row(job, gb, _mib(read), _mib(shuffle), _mib(write),
                          _mib(total), _mib(total) / (gb * 1024.0))
    table.notes.append("shuffle+write scale linearly for terasort/wordcount/"
                       "pagerank; grep and kmeans stay near-flat (their "
                       "traffic is metadata-sized); reads are locality noise")
    return [table]


# -- E3/E4: flow size and inter-arrival CDFs with fits --------------------------------


def e03_flow_size_cdf(job: str = "terasort", input_gb: float = 1.0,
                      seed: int = DEFAULT_SEED) -> List[Table]:
    """Empirical flow-size CDFs per component with best parametric fit."""
    _, trace = capture(job, input_gb, seed=seed)
    tables = []
    for component in DATA_COMPONENTS:
        sizes = trace.flow_sizes(component)
        if not sizes:
            continue
        fitted = best_report(sizes)
        table = cdf_table(
            f"E3: {job} {component} flow sizes (bytes), "
            f"fit={fitted.distribution!r} KS={fitted.ks:.3f}",
            sizes, fitted_cdf=fitted.distribution.cdf, unit="B")
        tables.append(table)
    return tables


def e04_arrival_cdf(job: str = "terasort", input_gb: float = 1.0,
                    seed: int = DEFAULT_SEED) -> List[Table]:
    """Flow inter-arrival CDFs per component with best parametric fit."""
    _, trace = capture(job, input_gb, seed=seed)
    tables = []
    for component in DATA_COMPONENTS:
        gaps = trace.interarrivals(component)
        if len(gaps) < 3:
            continue
        fitted = best_report(gaps)
        table = cdf_table(
            f"E4: {job} {component} flow inter-arrivals (s), "
            f"fit={fitted.distribution!r} KS={fitted.ks:.3f}",
            gaps, fitted_cdf=fitted.distribution.cdf, unit="s")
        tables.append(table)
    return tables


# -- E5: the fitted-distribution table --------------------------------------------------


def e05_fit_table(jobs: Optional[List[str]] = None, input_gb: float = 1.0,
                  seed: int = DEFAULT_SEED) -> List[Table]:
    """Best-fit family + parameters + KS per (job, component, metric)."""
    table = Table(
        title=f"E5: best-fit distributions, input={input_gb} GiB",
        headers=["job", "component", "metric", "family", "params",
                 "KS", "n"])
    for job in jobs or DEFAULT_JOBS:
        _, trace = capture(job, input_gb, seed=seed)
        for component in DATA_COMPONENTS:
            metrics = {
                "size": trace.flow_sizes(component),
                "interarrival": trace.interarrivals(component),
            }
            for metric, samples in metrics.items():
                if len(samples) < 3:
                    continue
                best = best_report(samples)
                params = ", ".join(f"{p:.3g}" for p in best.distribution.params)
                table.add_row(job, component, metric, best.family, params,
                              round(best.ks, 4), len(samples))
    return [table]


# -- E6: flow count scaling ---------------------------------------------------------------


def e06_flow_counts(seed: int = DEFAULT_SEED) -> List[Table]:
    """Flow counts vs input size and vs reducer count."""
    by_size = Table(
        title="E6a: flow counts vs input size (terasort)",
        headers=["input GiB", "maps", "reduces", "read flows",
                 "shuffle flows", "maps*reduces", "write flows"])
    for index, gb in enumerate(DEFAULT_SIZES_GB):
        result, trace = capture("terasort", gb, seed=derive_seed(seed, index))
        by_size.add_row(gb, result.num_maps, result.num_reduces,
                        trace.flow_count("hdfs_read"),
                        trace.flow_count("shuffle"),
                        result.num_maps * result.num_reduces,
                        trace.flow_count("hdfs_write"))
    by_size.notes.append("captured shuffle flows <= maps*reduces "
                         "(host-local fetches never reach the wire)")

    by_reducers = Table(
        title="E6b: shuffle flow count vs reducer count (terasort, 1 GiB)",
        headers=["reducers", "maps", "shuffle flows", "maps*reduces",
                 "median shuffle flow KiB"])
    for reducers in (2, 4, 8, 16):
        campaign = CampaignConfig(num_reducers=reducers)
        result, trace = capture("terasort", 1.0, seed=seed, campaign=campaign)
        sizes = trace.flow_sizes("shuffle")
        by_reducers.add_row(reducers, result.num_maps,
                            trace.flow_count("shuffle"),
                            result.num_maps * result.num_reduces,
                            float(np.median(sizes)) / 1024.0 if sizes else 0.0)
    by_reducers.notes.append("count grows ~linearly with reducers while "
                             "per-flow size shrinks ~1/reducers")
    return [by_size, by_reducers]


# -- E7: replication factor ------------------------------------------------------------------


def e07_replication(input_gb: float = 1.0, seed: int = DEFAULT_SEED) -> List[Table]:
    """HDFS-write traffic vs replication factor (teragen isolates writes)."""
    table = Table(
        title=f"E7: HDFS write traffic vs replication, teragen {input_gb} GiB",
        headers=["replication", "write MiB", "expected (r-1)x MiB",
                 "write flows", "cross-rack write MiB", "JCT s"])
    for replication in (1, 2, 3):
        campaign = CampaignConfig(replication=replication)
        result, trace = capture("teragen", input_gb, seed=seed, campaign=campaign)
        write_flows = trace.component("hdfs_write")
        cross = sum(f.size for f in write_flows if f.cross_rack)
        table.add_row(replication,
                      _mib(trace.total_bytes("hdfs_write")),
                      (replication - 1) * input_gb * 1024.0,
                      len(write_flows),
                      _mib(cross),
                      round(result.completion_time, 2))
    table.notes.append("write volume tracks (replication-1) x generated bytes; "
                       "rack-aware placement sends ~one copy off-rack")
    return [table]


# -- E8: block size --------------------------------------------------------------------------


def e08_blocksize(input_gb: float = 1.0, seed: int = DEFAULT_SEED) -> List[Table]:
    """Flow-size population vs dfs.blocksize."""
    table = Table(
        title=f"E8: flow population vs block size, terasort {input_gb} GiB",
        headers=["block MiB", "maps", "read flows", "median read MiB",
                 "shuffle flows", "median shuffle MiB", "JCT s"])
    for block_mb in (16, 32, 64):
        campaign = CampaignConfig(block_mb=block_mb)
        result, trace = capture("terasort", input_gb, seed=seed, campaign=campaign)
        reads = trace.flow_sizes("hdfs_read")
        shuffles = trace.flow_sizes("shuffle")
        table.add_row(block_mb, result.num_maps, len(reads),
                      _mib(float(np.median(reads))) if reads else 0.0,
                      len(shuffles),
                      _mib(float(np.median(shuffles))) if shuffles else 0.0,
                      round(result.completion_time, 2))
    table.notes.append("read flow sizes are the block size; shuffle flow "
                       "count scales with maps = input/block")
    return [table]


# -- E9: scheduler comparison ------------------------------------------------------------------


def e09_schedulers(input_gb: float = 0.5, seed: int = DEFAULT_SEED) -> List[Table]:
    """Concurrent-job completion times under each scheduler."""
    table = Table(
        title=f"E9: 3 concurrent jobs x {input_gb} GiB under each scheduler",
        headers=["scheduler", "job", "queue", "JCT s", "mean JCT s",
                 "makespan s"])
    for scheduler in ("fifo", "fair", "capacity", "drf"):
        campaign = CampaignConfig(scheduler=scheduler)
        cluster = HadoopCluster(
            campaign.cluster_spec(), campaign.hadoop_config(), seed=seed,
            queue_capacities={"prod": 0.7, "research": 0.3})
        specs = [
            make_job("wordcount", input_gb=input_gb, queue="prod"),
            make_job("wordcount", input_gb=input_gb, queue="prod"),
            make_job("terasort", input_gb=input_gb, queue="research"),
        ]
        results, _ = cluster.run(specs, arrival_times=[0.0, 1.0, 2.0])
        jcts = [result.completion_time for result in results]
        makespan = (max(r.finish_time for r in results)
                    - min(r.submit_time for r in results))
        for spec, result in zip(specs, results):
            table.add_row(scheduler, result.kind, spec.queue,
                          round(result.completion_time, 2),
                          round(sum(jcts) / len(jcts), 2),
                          round(makespan, 2))
    table.notes.append("FIFO serialises (later jobs wait); fair/drf "
                       "interleave; capacity respects queue shares")
    return [table]


# -- E10: model validation ------------------------------------------------------------------------


def e10_validation(jobs: Optional[List[str]] = None,
                   fit_sizes_gb: Optional[List[float]] = None,
                   target_gb: float = 1.0,
                   seed: int = DEFAULT_SEED) -> List[Table]:
    """Synthetic vs captured traffic: the reproduction-fidelity table."""
    fit_sizes_gb = fit_sizes_gb or [0.25, 0.5, 1.0]
    table = Table(
        title=f"E10: model validation at {target_gb} GiB "
              f"(fit on {fit_sizes_gb})",
        headers=["job", "component", "captured flows", "synthetic flows",
                 "count err", "captured MiB", "synthetic MiB",
                 "volume err", "size KS"])
    for job in jobs or DEFAULT_JOBS:
        traces = capture_campaign(job, sizes_gb=fit_sizes_gb, seed=seed)
        model = fit_job_model(traces)
        _, captured = capture(job, target_gb,
                              seed=derive_seed(seed, fit_sizes_gb.index(target_gb))
                              if target_gb in fit_sizes_gb else seed)
        synthetic = generate_trace(model, input_gb=target_gb, seed=seed + 999)
        summary = validation_summary(captured, synthetic)
        for component, comparison in sorted(summary.components.items()):
            if comparison.captured_flows == 0 and comparison.synthetic_flows == 0:
                continue
            table.add_row(
                job, component,
                comparison.captured_flows, comparison.synthetic_flows,
                round(comparison.count_error, 3),
                _mib(comparison.captured_bytes),
                _mib(comparison.synthetic_bytes),
                round(comparison.volume_error, 3),
                round(comparison.size_ks.statistic, 3)
                if comparison.size_ks else "-")
    table.notes.append("low count/volume errors and small KS distances = "
                       "the generated traffic is statistically faithful")
    return [table]


# -- E11: replay validation -----------------------------------------------------------------------


def e11_replay(job: str = "terasort", input_gb: float = 1.0,
               seed: int = DEFAULT_SEED) -> List[Table]:
    """Replay captured vs model-generated traffic through the network."""
    traces = capture_campaign(job, sizes_gb=[0.25, 0.5, 1.0], seed=seed)
    model = fit_job_model(traces)
    # 1 GiB is index 2 of the [0.25, 0.5, 1.0] fit sweep above, so this
    # reuses the campaign's capture instead of simulating a new seed.
    _, captured = capture(job, input_gb, seed=derive_seed(seed, 2))
    gaps_trace = generate_trace(model, input_gb=input_gb, seed=seed + 999,
                                arrivals="gaps")
    curve_trace = generate_trace(model, input_gb=input_gb, seed=seed + 999,
                                 arrivals="curve")
    reports = [
        ("captured", replay_trace(captured)),
        ("generated (renewal gaps)", replay_trace(gaps_trace)),
        ("generated (arrival curve)", replay_trace(curve_trace)),
    ]
    table = Table(
        title=f"E11: replay of captured vs generated traffic ({job}, "
              f"{input_gb} GiB)",
        headers=["trace", "flows", "MiB", "makespan s",
                 "mean flow duration s", "peak link util"])
    for label, report in reports:
        table.add_row(label, report.flow_count, _mib(report.total_bytes),
                      round(report.makespan, 2),
                      round(report.mean_flow_duration, 3),
                      round(report.peak_link_utilisation, 3))
    cap_makespan = reports[0][1].makespan or float("nan")
    ratios = {label: report.makespan / cap_makespan
              for label, report in reports[1:]}
    table.notes.append("makespan ratios vs captured: "
                       + ", ".join(f"{label} {ratio:.2f}"
                                   for label, ratio in ratios.items())
                       + " (1.0 = perfect temporal fidelity)")
    return [table]


# -- E12: cluster size scaling ----------------------------------------------------------------------


#: The cluster sizes E12 sweeps (paper's scaling axis).
E12_NODE_SWEEP = (4, 8, 16, 32)


def e12_cluster_scaling(job: str = "terasort", input_gb: float = 1.0,
                        seed: int = DEFAULT_SEED,
                        repeats: int = 3,
                        nodes: tuple = E12_NODE_SWEEP) -> List[Table]:
    """Traffic and completion time vs cluster size.

    JCT noise from placement/straggler draws is of the same order as
    the 4-node -> 8-node parallelism gain, so every point averages
    ``repeats`` seeds (traffic volumes are structural and barely vary).
    """
    table = Table(
        title=f"E12: {job} {input_gb} GiB vs cluster size "
              f"(mean of {repeats} seeds)",
        headers=["nodes", "racks", "total MiB", "read MiB", "shuffle MiB",
                 "write MiB", "cross-rack share", "JCT s"])
    for node_index, cluster_nodes in enumerate(nodes):
        campaign = CampaignConfig(nodes=cluster_nodes)
        outcomes = [capture(job, input_gb,
                            seed=derive_seed(seed, node_index, repeat),
                            campaign=campaign)
                    for repeat in range(repeats)]
        totals = [trace.total_bytes() for _, trace in outcomes]
        mean_total = sum(totals) / len(totals)
        cross = sum(trace.cross_rack_bytes()
                    for _, trace in outcomes) / len(outcomes)

        def mean_component(component: str) -> float:
            return sum(trace.total_bytes(component)
                       for _, trace in outcomes) / len(outcomes)

        table.add_row(cluster_nodes,
                      (cluster_nodes + campaign.hosts_per_rack - 1)
                      // campaign.hosts_per_rack,
                      _mib(mean_total), _mib(mean_component("hdfs_read")),
                      _mib(mean_component("shuffle")),
                      _mib(mean_component("hdfs_write")),
                      round(cross / mean_total, 3) if mean_total else 0.0,
                      round(sum(result.completion_time
                                for result, _ in outcomes) / len(outcomes), 2))
    table.notes.append("more nodes -> locality dilutes (read traffic and "
                       "cross-rack share grow); JCT improves with early "
                       "parallelism then regresses as remote reads dominate")
    return [table]


# -- E13: failure recovery traffic ----------------------------------------------------------------


def e13_failures(job: str = "terasort", input_gb: float = 0.5,
                 seed: int = DEFAULT_SEED) -> List[Table]:
    """Traffic and completion time with a mid-job DataNode/node failure."""
    from repro.faults import DATANODE, NODE, FaultEvent, FaultInjector

    campaign = CampaignConfig()
    table = Table(
        title=f"E13: node-failure recovery ({job}, {input_gb} GiB, fail at t=4s)",
        headers=["scenario", "JCT s", "hdfs_write MiB", "re-replication MiB",
                 "re-replicated blocks", "containers lost", "failed"])

    fault_time = 4.0
    scenarios = [("healthy", None), ("datanode crash", DATANODE),
                 ("whole node crash", NODE)]
    victim = None
    for label, fault_kind in scenarios:
        cluster = HadoopCluster(campaign.cluster_spec(),
                                campaign.hadoop_config(), seed=seed)
        injector = None
        running: Dict[str, int] = {}
        if fault_kind is None:
            # The healthy run is the faulty runs' prefix up to the
            # fault: record what each worker runs at the fault instant.
            cluster.sim.schedule_at(fault_time, lambda: running.update(
                (node.host.name, node.running_count)
                for node in cluster.nodemanagers))
        else:
            injector = FaultInjector(
                cluster, [FaultEvent(fault_time, fault_kind, victim)])
        results, traces = cluster.run([make_job(job, input_gb=input_gb)])
        result, trace = results[0], traces[0]
        if fault_kind is None:
            # Kill the busiest worker that is not the AM host (AM
            # restart is not modelled); ties go to the first worker.
            am_hosts = {round_.am_host for round_ in result.rounds}
            victim = max((host.name for host in cluster.workers
                          if host.name not in am_hosts),
                         key=lambda name: running.get(name, 0))
        rerep = sum(r.size for r in cluster.collector.records
                    if r.service == "re-replication")
        table.add_row(label, round(result.completion_time, 2),
                      _mib(trace.total_bytes("hdfs_write")),
                      _mib(rerep),
                      injector.report.blocks_rereplicated if injector else 0,
                      injector.report.containers_lost if injector else 0,
                      result.failed)
    table.notes.append("re-replication restores replication factor with "
                       "block-sized hdfs_write flows; task re-execution "
                       "extends the JCT without failing the job")
    return [table]


# -- E14: multi-tenant interference -----------------------------------------------------------------


def e14_multitenant(seed: int = DEFAULT_SEED) -> List[Table]:
    """Concurrent workload suite vs isolated runs (interference factors)."""
    from repro.workloads import MICRO_MIX, UniformArrivals, WorkloadSuite

    campaign = CampaignConfig()
    suite = WorkloadSuite(MICRO_MIX, arrivals=UniformArrivals(span=10.0),
                          name="e14")
    outcome = suite.run(count=6, cluster_spec=campaign.cluster_spec(),
                        config=campaign.hadoop_config(), seed=seed)

    table = Table(
        title="E14: multi-tenant suite (6 jobs, uniform arrivals over 10 s)",
        headers=["job", "kind", "arrival s", "JCT s", "isolated JCT s",
                 "slowdown"])
    for result, arrival in zip(outcome.results, outcome.arrival_times):
        isolated, _ = capture(result.kind, result.input_bytes / GB, seed=seed)
        slowdown = (result.completion_time / isolated.completion_time
                    if isolated.completion_time else float("nan"))
        table.add_row(result.job_id, result.kind, round(arrival, 1),
                      round(result.completion_time, 2),
                      round(isolated.completion_time, 2),
                      round(slowdown, 2))
    table.notes.append(f"suite makespan {outcome.makespan:.1f}s, "
                       f"mean JCT {outcome.mean_jct():.1f}s; slowdown > 1 "
                       "quantifies contention for containers and links")
    return [table]


# -- E15: traffic over time (phase profile) -----------------------------------------------------------


def e15_phase_profile(job: str = "sort", input_gb: float = 1.0,
                      seed: int = DEFAULT_SEED) -> List[Table]:
    """Per-second throughput of each component: the phase-wave figure.

    Defaults to ``sort`` (replication-3 output) so the write wave is
    the job's actual output, not just jar staging — TeraSort's
    unreplicated output writes locally and leaves no write wave.
    """
    from repro.analysis.timeseries import component_activity_spans, phase_profile

    _, trace = capture(job, input_gb, seed=seed)
    table = phase_profile(trace, bin_seconds=1.0)
    table.title = f"E15: {table.title}"
    spans = component_activity_spans(trace)
    for component, (first, last) in sorted(spans.items()):
        table.notes.append(f"{component}: active {first:.1f}s - {last:.1f}s")
    table.notes.append("phases overlap but peak in order: reads early, "
                       "shuffle after the first map wave, writes at the end")
    return [table]


# -- Ablations -----------------------------------------------------------------------------------------


def a1_locality(input_gb: float = 1.0, seed: int = DEFAULT_SEED) -> List[Table]:
    """Locality-aware map binding (and placement) vs oblivious baselines.

    Three configurations: the default (rack-aware placement + locality
    binding), locality binding disabled (maps bound in queue order),
    and additionally random block placement.
    """
    table = Table(
        title=f"A1: map locality ablation (terasort, {input_gb} GiB)",
        headers=["configuration", "node-local", "rack-local", "remote",
                 "read MiB", "JCT s"])
    campaign = CampaignConfig()
    variants = [
        ("default (aware)", True, None),
        ("binding off", False, None),
        ("binding off + random placement", False, RandomPlacementPolicy()),
    ]
    for label, aware, policy in variants:
        config = campaign.hadoop_config().replace(locality_aware=aware)
        cluster = HadoopCluster(campaign.cluster_spec(), config, seed=seed,
                                placement_policy=policy)
        results, traces = cluster.run([make_job("terasort", input_gb=input_gb)])
        round0 = results[0].rounds[0]
        table.add_row(label, round0.node_local_reads, round0.rack_local_reads,
                      round0.remote_reads,
                      _mib(traces[0].total_bytes("hdfs_read")),
                      round(results[0].completion_time, 2))
    table.notes.append("locality-aware binding converts read flows into "
                       "silent local disk I/O; without it most splits "
                       "cross the network")
    return [table]


def a2_slowstart(input_gb: float = 1.0, seed: int = DEFAULT_SEED) -> List[Table]:
    """Reducer slow-start fraction vs the shuffle arrival process."""
    table = Table(
        title=f"A2: reducer slow-start ablation (terasort, {input_gb} GiB)",
        headers=["slowstart", "first shuffle s", "last shuffle s",
                 "shuffle span s", "JCT s"])
    for slowstart in (0.05, 0.5, 1.0):
        campaign = CampaignConfig(slowstart=slowstart)
        result, trace = capture("terasort", input_gb, seed=seed,
                                campaign=campaign)
        starts = trace.flow_starts("shuffle")
        first = starts[0] if starts else 0.0
        last = starts[-1] if starts else 0.0
        table.add_row(slowstart, round(first, 2), round(last, 2),
                      round(last - first, 2),
                      round(result.completion_time, 2))
    table.notes.append("higher slow-start delays the first fetch; at 1.0 the "
                       "shuffle decouples from the map phase entirely and "
                       "the job pays for the lost overlap in JCT")
    return [table]


def a3_fairshare(job: str = "terasort", input_gb: float = 1.0,
                 seed: int = DEFAULT_SEED) -> List[Table]:
    """Shared (max-min) replay vs an uncontended-link lower bound."""
    _, captured = capture(job, input_gb, seed=seed)
    report = replay_trace(captured)
    line_rate = 1e9 / 8.0
    origin = min((flow.start for flow in captured.flows), default=0.0)
    uncontended = max(
        ((flow.start - origin) + flow.size / line_rate
         for flow in captured.flows), default=0.0)
    table = Table(
        title=f"A3: contention ablation ({job}, {input_gb} GiB replay)",
        headers=["model", "makespan s", "mean flow duration s"])
    table.add_row("max-min shared links", round(report.makespan, 2),
                  round(report.mean_flow_duration, 3))
    mean_uncontended = (sum(flow.size / line_rate for flow in captured.flows)
                        / len(captured.flows)) if captured.flows else 0.0
    table.add_row("uncontended bound", round(uncontended, 2),
                  round(mean_uncontended, 3))
    table.notes.append("the gap quantifies how much contention (which "
                       "max-min models and the bound ignores) shapes timing")
    return [table]


def e16_crossval(jobs: Optional[List[str]] = None,
                 sizes_gb: Optional[List[float]] = None,
                 seed: int = DEFAULT_SEED) -> List[Table]:
    """Leave-one-out cross-validation of the scaling laws (E16).

    The generalisation claim behind the whole toolchain: a model fitted
    on some input sizes predicts the flow counts and volumes of sizes
    it never saw.
    """
    from repro.modeling.crossval import leave_one_out

    sizes_gb = sizes_gb or DEFAULT_SIZES_GB
    table = Table(
        title=f"E16: leave-one-out scaling-law validation (sizes {sizes_gb})",
        headers=["job", "held-out GiB", "component", "actual flows",
                 "predicted flows", "actual MiB", "predicted MiB",
                 "volume err"])
    for job in jobs or ["terasort", "wordcount", "grep"]:
        traces = capture_campaign(job, sizes_gb=sizes_gb, seed=seed)
        report = leave_one_out(traces)
        for score in report.scores:
            if score.actual_count == 0 and score.predicted_count == 0:
                continue
            table.add_row(job, score.input_gb, score.component,
                          score.actual_count, score.predicted_count,
                          _mib(score.actual_volume),
                          _mib(score.predicted_volume),
                          round(score.volume_error, 3)
                          if score.volume_error != float("inf") else "inf")
    table.notes.append("held-out sizes were never seen by the fitted model; "
                       "low errors = the linear laws extrapolate")
    return [table]


def e17_interference(job: str = "terasort", input_gb: float = 0.5,
                     seed: int = DEFAULT_SEED) -> List[Table]:
    """Hadoop traffic replayed under increasing background load (E17).

    The abstract's "more realistic scenarios": generated/captured Hadoop
    traffic composed with other tenants' cross traffic.  Reports mean
    flow-completion-time inflation per load level.
    """
    from repro.generation.crosstraffic import CrossTrafficSpec, replay_with_cross_traffic

    _, trace = capture(job, input_gb, seed=seed)
    table = Table(
        title=f"E17: {job} {input_gb} GiB replay under background load",
        headers=["background load", "pairs", "cross MiB",
                 "hadoop mean FCT s", "FCT inflation", "makespan s"])
    baseline = None
    for load, pairs in ((0.0, 0), (0.2, 4), (0.5, 6), (0.8, 8)):
        if load == 0.0:
            from repro.generation.replay import replay_trace

            clean = replay_trace(trace)
            durations = [r.duration for r in clean.records]
            baseline = sum(durations) / len(durations) if durations else 0.0
            table.add_row("none", 0, 0.0, round(baseline, 4), 1.0,
                          round(clean.makespan, 2))
            continue
        spec = CrossTrafficSpec(load_fraction=load, pairs=pairs)
        report = replay_with_cross_traffic(trace, spec, seed=seed)
        table.add_row(f"{load:.0%}/pair", pairs,
                      _mib(report.cross_traffic_bytes),
                      round(report.hadoop_mean_fct_contended, 4),
                      round(report.fct_inflation, 3),
                      round(report.contended.makespan, 2))
    table.notes.append("flow completion times inflate monotonically with "
                       "background load; volumes are unchanged (fluid "
                       "sharing slows flows, never drops them)")
    return [table]


#: E18's default training-size sweep (prefixes of the canonical sweep,
#: never including the held-out target).
E18_TRAINING_SIZES = (0.25, 0.5, 1.0)


def e18_training_sensitivity(job: str = "terasort", target_gb: float = 2.0,
                             seed: int = DEFAULT_SEED,
                             sizes: tuple = E18_TRAINING_SIZES,
                             ) -> List[Table]:
    """Model fidelity vs number of training input sizes (E18).

    How many capture campaigns does a usable model need?  Models are
    fitted on growing prefixes of the size sweep (never including the
    target) and validated against the held-out target capture.
    """
    all_sizes = list(sizes)
    # The held-out target sits just past the training sweep — index 3
    # of the canonical [0.25, 0.5, 1.0, 2.0] sweep by default; derive
    # its seed the same way.
    _, target = capture(job, target_gb,
                        seed=derive_seed(seed, len(all_sizes)))
    table = Table(
        title=f"E18: fidelity at {target_gb} GiB vs training sizes ({job})",
        headers=["training sizes", "shuffle count err", "shuffle volume err",
                 "shuffle size KS", "mean volume err"])
    for k in range(1, len(all_sizes) + 1):
        training_sizes = all_sizes[:k]
        traces = [capture(job, size, seed=derive_seed(seed, index))[1]
                  for index, size in enumerate(training_sizes)]
        model = fit_job_model(traces)
        synthetic = generate_trace(model, input_gb=target_gb, seed=seed + 999)
        summary = validation_summary(target, synthetic)
        shuffle = summary.components.get("shuffle")
        table.add_row(
            str(training_sizes),
            round(shuffle.count_error, 3) if shuffle else "-",
            round(shuffle.volume_error, 3) if shuffle else "-",
            round(shuffle.size_ks.statistic, 3)
            if shuffle and shuffle.size_ks else "-",
            round(summary.mean_volume_error, 3))
    table.notes.append("one size forces proportional extrapolation; two or "
                       "more pin the affine law and collapse the error")
    return [table]


def e19_summary_stats(jobs: Optional[List[str]] = None, input_gb: float = 1.0,
                      seed: int = DEFAULT_SEED) -> List[Table]:
    """Per-(job, component) flow summary statistics (the 'Table 1')."""
    from repro.modeling.empirical import summarize

    table = Table(
        title=f"E19: flow summary statistics, input={input_gb} GiB",
        headers=["job", "component", "flows", "mean KiB", "p50 KiB",
                 "p99 KiB", "max KiB", "total MiB"])
    kib = 1024.0
    for job in jobs or DEFAULT_JOBS:
        _, trace = capture(job, input_gb, seed=seed)
        for component in DATA_COMPONENTS:
            sizes = trace.flow_sizes(component)
            if not sizes:
                continue
            stats = summarize(sizes)
            table.add_row(job, component, stats["n"],
                          round(stats["mean"] / kib, 1),
                          round(stats["p50"] / kib, 1),
                          round(stats["p99"] / kib, 1),
                          round(stats["max"] / kib, 1),
                          _mib(stats["sum"]))
    table.notes.append("read flows are block-quantised; shuffle p99/p50 "
                       "reflects partition skew; write mixes jar blocks "
                       "with output blocks")
    return [table]


def e20_sampled_capture(job: str = "terasort", input_gb: float = 0.5,
                        seed: int = DEFAULT_SEED) -> List[Table]:
    """Model fidelity from sampled captures (sFlow-style 1-in-N).

    Explodes a capture into packets, samples at several rates,
    reassembles + rescales, and compares the recovered per-component
    statistics against the full capture — the cost of cheap capture.
    """
    from repro.capture.pcap import synthesize_packets
    from repro.capture.sampling import assemble_sampled, sampling_loss
    from repro.capture.records import JobTrace

    _, trace = capture(job, input_gb, seed=seed)
    data_flows = [f for f in trace.flows
                  if f.component in DATA_COMPONENTS]
    packets = [p for f in data_flows for p in synthesize_packets(f)]
    table = Table(
        title=f"E20: capture sampling vs model inputs ({job}, {input_gb} GiB)",
        headers=["sampling", "flows seen", "flow survival",
                 "est. volume MiB", "volume err", "shuffle flows seen"])
    full_volume = sum(f.size for f in data_flows)
    table.add_row("full (1:1)", len(data_flows), 1.0,
                  _mib(full_volume), 0.0,
                  len([f for f in data_flows if f.component == "shuffle"]))
    for rate in (8, 64, 512):
        sampled = assemble_sampled(packets, rate=rate, seed=seed)
        loss = sampling_loss(data_flows, sampled)
        shuffle_seen = len([f for f in sampled if f.component == "shuffle"])
        table.add_row(f"1:{rate}", loss["sampled_flows"],
                      round(loss["flow_survival"], 3),
                      _mib(loss["estimated_volume"]),
                      round(loss["volume_error"], 3),
                      shuffle_seen)
    table.notes.append("volume estimates stay unbiased while flow counts "
                       "collapse — sampled captures can feed volume laws "
                       "but not flow-population marginals")
    return [table]


def a4_delay_scheduling(input_gb: float = 0.25,
                        seed: int = DEFAULT_SEED) -> List[Table]:
    """Delay scheduling ablation: locality wait vs immediate fallback.

    Uses unreplicated input (replication 1) so each split lives on one
    node — the regime where waiting for the right node pays the most.
    """
    table = Table(
        title=f"A4: delay scheduling (terasort, {input_gb} GiB, replication 1)",
        headers=["locality wait s", "node-local", "rack-local", "remote",
                 "read MiB", "JCT s"])
    campaign = CampaignConfig(replication=1)
    for wait in (0.0, 2.0, 6.0):
        config = campaign.hadoop_config().replace(delay_scheduling_s=wait)
        cluster = HadoopCluster(campaign.cluster_spec(), config, seed=seed)
        results, traces = cluster.run([make_job("terasort", input_gb=input_gb)])
        round0 = results[0].rounds[0]
        table.add_row(wait, round0.node_local_reads, round0.rack_local_reads,
                      round0.remote_reads,
                      _mib(traces[0].total_bytes("hdfs_read")),
                      round(results[0].completion_time, 2))
    table.notes.append("longer waits trade container-grant latency for "
                       "node-local reads, shrinking the HDFS-read component")
    return [table]


def a5_speculation(input_gb: float = 1.0, seed: int = DEFAULT_SEED) -> List[Table]:
    """Speculative execution under stragglers: JCT vs duplicate traffic.

    Straggler-prone map-heavy workload (wordcount, 25% of attempts
    slowed 20x): speculation trades extra read traffic for a shorter
    straggler tail.
    """
    table = Table(
        title=f"A5: speculative execution (wordcount {input_gb} GiB, "
              "25% stragglers at 20x)",
        headers=["speculative", "JCT s", "max map s", "speculative attempts",
                 "launched maps", "read MiB"])
    for speculative in (False, True):
        campaign = CampaignConfig(block_mb=64, num_reducers=2,
                                  speculative=speculative)
        config = campaign.hadoop_config().replace(
            straggler_prob=0.25, straggler_slowdown=20.0)
        cluster = HadoopCluster(campaign.cluster_spec(), config, seed=seed)
        results, traces = cluster.run([make_job("wordcount", input_gb=input_gb)])
        round0 = results[0].rounds[0]
        counters = results[0].counters()
        table.add_row("on" if speculative else "off",
                      round(results[0].completion_time, 2),
                      round(max(round0.map_durations), 2),
                      round0.speculative_attempts,
                      int(counters["TOTAL_LAUNCHED_MAPS"]),
                      _mib(traces[0].total_bytes("hdfs_read")))
    table.notes.append("speculation launches duplicate attempts (extra "
                       "launches and reads) and cuts the straggler tail")
    return [table]


ALL_EXPERIMENTS = {
    "e01": e01_breakdown,
    "e02": e02_input_scaling,
    "e03": e03_flow_size_cdf,
    "e04": e04_arrival_cdf,
    "e05": e05_fit_table,
    "e06": e06_flow_counts,
    "e07": e07_replication,
    "e08": e08_blocksize,
    "e09": e09_schedulers,
    "e10": e10_validation,
    "e11": e11_replay,
    "e12": e12_cluster_scaling,
    "e13": e13_failures,
    "e14": e14_multitenant,
    "e15": e15_phase_profile,
    "e16": e16_crossval,
    "e17": e17_interference,
    "e18": e18_training_sensitivity,
    "e19": e19_summary_stats,
    "e20": e20_sampled_capture,
    "a1": a1_locality,
    "a2": a2_slowstart,
    "a3": a3_fairshare,
    "a4": a4_delay_scheduling,
    "a5": a5_speculation,
}
