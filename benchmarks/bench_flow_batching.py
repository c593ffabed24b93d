"""Batched-admission benchmark: the start_flows seam vs the PR6 path.

Drives :class:`FlowNetwork` with synchronized uniform waves — every
wave admits thousands of equal-size flows in constant-offset placement,
so they drain in a handful of completion batches and the measurement
isolates exactly the per-flow lifecycle overhead batching removes.
Two arms:

* **pr6** — the pre-batching lifecycle, emulated: one heap event per
  flow calling ``start_flow`` (a one-request wave, so one path
  resolution, allocator insertion and update request per flow), the
  done-signal allocated eagerly at admission, and a per-flow
  completion harvest (each finished flow pays its own allocator
  removal and finish).
* **batched** — the new seam end to end: one event per wave calling
  ``start_flows`` (wave-level path resolution, one grouped allocator
  insertion, one flush), bulk harvest, lazy done-signals.

Both arms run the identical flow population on the identical
pre-warmed fat-tree, and a collected differential run asserts the
captured (src, dst, size, start, end, flow_id) tuples match
float-exact — the batching is a mechanical rearrangement, not a model
change (DESIGN.md "Batched admission").

Records, per rung: wall clock for both arms, per-flow overhead in
microseconds, speedup, and the byte-identity flag; then a batched-only
scale run on a >= 4096-host fat-tree (k=26, 4394 hosts).  One timing
of each arm is dominated by run-to-run noise on a small VM, so the
gated 16k rung times each arm ``REPEATS`` times, alternating which arm
runs first, and its speedup is the ratio of the medians; every per-run
time is recorded.  Writes ``BENCH_flow_batching.json`` at the repo
root and asserts the headline numbers: >= 2x end-to-end at the
16k-flows-per-wave rung and a completed >= 4096-host run.

Run via ``scripts/run_benchmarks.sh`` or::

    pytest benchmarks/bench_flow_batching.py -m benchmark_suite -q -s
"""

import json
import statistics
import time
import types
from pathlib import Path

from repro.capture.collector import FlowCollector
from repro.cluster.topology import build_topology
from repro.net.backend import FlowRequest, make_backend
from repro.simkit.core import Simulator

from benchmarks.conftest import registry_values

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_flow_batching.json"

MIN_SPEEDUP_16K = 2.0
MIN_SCALE_HOSTS = 4096

#: Timings per arm at the gated rung (other rungs are timed once).
REPEATS = 5
GATED_WAVE = 16384

HOST_GBPS = 10.0
HOST_RATE = HOST_GBPS * 1e9 / 8.0

#: Wave-size rungs: (hosts, fattree_k, flows_per_wave, waves).  The
#: fabric stays fixed while the wave width sweeps, so the rungs show
#: how the removed per-flow overhead scales with wave size.
RUNGS = [
    (256, 12, 4096, 4),
    (256, 12, 16384, 4),
    (256, 12, 32768, 2),
]

#: Batched-only scale run: k=26 fat-tree (4394 hosts >= 4096).  Two
#: waves keep the wall clock in benchmark-suite territory — the ECMP
#: rate classes on a k=26 core make each standing recompute heavy, and
#: that cost is not this file's subject.
SCALE_RUNG = (4394, 26, 16384, 2)

WAVE_PERIOD = 4.0


def _wave_flows(hosts, flows_per_wave):
    """Uniform-size constant-offset wave population.

    Equal sizes mean a wave's flows share fair rates and complete in
    few batches (ECMP rate classes apart), so end-to-end time is
    dominated by the admission/teardown machinery under test rather
    than by rate recomputation over a fragmenting population."""
    n = len(hosts)
    fair_rate = HOST_RATE / (flows_per_wave / n)
    return [(hosts[k % n], hosts[(k + n // 2) % n], fair_rate)
            for k in range(flows_per_wave)]


def _topology(hosts_n, fattree_k, cache={}):
    """One pre-warmed topology per fabric, shared by both arms."""
    key = (hosts_n, fattree_k)
    if key not in cache:
        topology = build_topology("fattree", num_hosts=hosts_n,
                                  host_gbps=HOST_GBPS, fattree_k=fattree_k)
        hosts = topology.hosts[:hosts_n]
        for index, src in enumerate(hosts):
            topology.path(src, hosts[(index + hosts_n // 2) % hosts_n])
        cache[key] = topology
    return cache[key]


def _emulate_pr6(net):
    """Rebind the PR6 per-flow lifecycle onto ``net``.

    Admission stays one ``start_flow`` call (a one-request wave) per
    flow; on top of it, two reversions: an eagerly-allocated done
    signal per flow, and a completion harvest that retires each flow
    individually — per-flow allocator removal (membership and cap-class
    updates) and per-flow finish.
    """
    inner_start = net.start_flow

    def eager_start_flow(src, dst, size, max_rate=None, metadata=None,
                         parent_span=None):
        flow = inner_start(src, dst, size, max_rate=max_rate,
                           metadata=metadata, parent_span=parent_span)
        flow.done  # PR6 allocated the signal in Flow.__init__
        return flow

    net.start_flow = eager_start_flow

    def per_flow_harvest(self, finished):
        for flow in finished:
            del self.active[flow.flow_id]
            self._allocator.remove_flow(flow.flow_id)
            self._complete(flow)

    net._harvest_finished = types.MethodType(per_flow_harvest, net)


def _run(arm, hosts_n, fattree_k, flows_per_wave, waves, collect=False):
    """Run the wave workload under one lifecycle arm; return evidence."""
    topology = _topology(hosts_n, fattree_k)
    sim = Simulator()
    net = make_backend("fluid", sim, topology)
    if arm == "pr6":
        _emulate_pr6(net)
    collector = FlowCollector(net) if collect else None
    population = _wave_flows(topology.hosts[:hosts_n], flows_per_wave)
    started = time.perf_counter()
    if arm == "batched":
        for wave in range(waves):
            requests = [FlowRequest(src, dst, size)
                        for src, dst, size in population]
            sim.schedule(wave * WAVE_PERIOD, net.start_flows, requests)
    else:
        for wave in range(waves):
            at = wave * WAVE_PERIOD
            for src, dst, size in population:
                sim.schedule(at, net.start_flow, src, dst, size)
    sim.run()
    elapsed = time.perf_counter() - started
    completed = int(
        sim.telemetry.registry.counter("net.flows_completed").value)
    assert completed == flows_per_wave * waves, \
        f"{arm}: {completed} of {flows_per_wave * waves} flows completed"
    tuples = None
    if collector is not None:
        tuples = sorted((r.src, r.dst, r.size, r.start, r.end, r.flow_id)
                        for r in collector.records)
    return {
        "elapsed_s": elapsed,
        "flows": completed,
        "perf": registry_values(sim.telemetry.registry, "net."),
        "tuples": tuples,
    }


def test_batched_admission_speedup_and_scale():
    # Byte-identity differential first, collected, at the middle rung:
    # the PR6 lifecycle and the batched seam must capture the exact
    # same flows (timing rungs below run uncollected so the listener
    # cost does not blur the arms' difference).
    hosts_n, fattree_k, flows_per_wave, waves = RUNGS[1]
    pr6_ref = _run("pr6", hosts_n, fattree_k, flows_per_wave, 1,
                   collect=True)
    batched_ref = _run("batched", hosts_n, fattree_k, flows_per_wave, 1,
                       collect=True)
    byte_identical = pr6_ref["tuples"] == batched_ref["tuples"]
    assert byte_identical, "pr6 and batched arms captured different flows"

    rows = []
    for hosts_n, fattree_k, flows_per_wave, waves in RUNGS:
        runs = {"pr6": [], "batched": []}
        repeats = REPEATS if flows_per_wave == GATED_WAVE else 1
        for repeat in range(repeats):
            arms = ("pr6", "batched") if repeat % 2 == 0 \
                else ("batched", "pr6")
            for arm in arms:
                run = _run(arm, hosts_n, fattree_k, flows_per_wave, waves)
                runs[arm].append(run)
            pr6, batched = runs["pr6"][-1], runs["batched"][-1]
            # Every admission call requests one rate update: the batched
            # arm admits a wave per call, the pr6 arm one flow per call.
            assert batched["perf"]["net.updates_requested"] == waves
            assert pr6["perf"]["net.updates_requested"] == \
                flows_per_wave * waves
            assert pr6["perf"]["net.done_signals_skipped"] == 0
        pr6_runs = [run["elapsed_s"] for run in runs["pr6"]]
        batched_runs = [run["elapsed_s"] for run in runs["batched"]]
        pr6_s = statistics.median(pr6_runs)
        batched_s = statistics.median(batched_runs)
        speedup = pr6_s / batched_s
        flows = batched["flows"]
        rows.append({
            "hosts": hosts_n, "fattree_k": fattree_k,
            "flows_per_wave": flows_per_wave, "waves": waves,
            "flows": flows,
            "repeats": repeats,
            "pr6_s": round(pr6_s, 4),
            "batched_s": round(batched_s, 4),
            "pr6_runs_s": [round(run, 4) for run in pr6_runs],
            "batched_runs_s": [round(run, 4) for run in batched_runs],
            "pr6_us_per_flow": round(pr6_s / flows * 1e6, 2),
            "batched_us_per_flow": round(batched_s / flows * 1e6, 2),
            "speedup": round(speedup, 2),
            "bulk_harvests": batched["perf"]["net.bulk_harvests"],
            "done_signals_skipped":
                batched["perf"]["net.done_signals_skipped"],
        })
        print(f"wave={flows_per_wave:6d} flows={flows:7d} "
              f"pr6={pr6_s:7.2f}s batched={batched_s:6.2f}s "
              f"speedup={speedup:5.2f}x (median of {repeats})")

    hosts_n, fattree_k, flows_per_wave, waves = SCALE_RUNG
    scale = _run("batched", hosts_n, fattree_k, flows_per_wave, waves)
    print(f"scale run: hosts={hosts_n} flows={scale['flows']} "
          f"elapsed={scale['elapsed_s']:.1f}s "
          f"bulk_harvests={scale['perf']['net.bulk_harvests']}")

    speedup_16k = next(row["speedup"] for row in rows
                       if row["flows_per_wave"] == GATED_WAVE)
    report = {
        "workload": {
            "shape": "synchronized uniform waves, constant-offset "
                     "placement; one arm "
                     "emulates per-flow admission/harvest/eager-signals",
            "host_gbps": HOST_GBPS,
            "wave_period_s": WAVE_PERIOD,
        },
        "rungs": rows,
        "speedup_16k": speedup_16k,
        "byte_identical": byte_identical,
        "scale_run": {
            "hosts": hosts_n, "fattree_k": fattree_k,
            "flows_per_wave": flows_per_wave, "waves": waves,
            "flows": scale["flows"],
            "completed": True,
            "batched_s": round(scale["elapsed_s"], 2),
            "us_per_flow":
                round(scale["elapsed_s"] / scale["flows"] * 1e6, 2),
            "updates_requested": scale["perf"]["net.updates_requested"],
            "bulk_harvests": scale["perf"]["net.bulk_harvests"],
            "done_signals_skipped":
                scale["perf"]["net.done_signals_skipped"],
        },
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\nbatching bench: 16k-wave speedup {speedup_16k:.2f}x, "
          f"scale run {scale['flows']} flows on {hosts_n} hosts "
          f"-> {OUTPUT.name}")

    assert speedup_16k >= MIN_SPEEDUP_16K, \
        f"batched admission should be >={MIN_SPEEDUP_16K}x faster at the " \
        f"16k rung (ratio of medians), got {speedup_16k:.2f}x"
    assert hosts_n >= MIN_SCALE_HOSTS and scale["flows"] == \
        flows_per_wave * waves
