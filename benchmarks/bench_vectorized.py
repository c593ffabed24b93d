"""Fluid-engine benchmark: vectorized vs scalar water-filling at scale.

Drives :class:`FlowNetwork` directly (no Hadoop layer on top) with
synchronized wave workloads on fat-tree fabrics at three scale rungs
(64 / 256 / 1024 hosts).  A wave launches thousands of concurrent
flows in balanced constant-offset placement; sizes step per *lap*
(one flow per host per lap), so completions arrive in many distinct
batches and every batch forces a full advance + harvest + recompute
over the standing population — exactly the regime where the scalar
allocator's per-flow Python loops dominate and the vectorized
engine's O(rounds) numpy water-fill pays off.  ECMP pair hashing on
the canonical fat-tree (every link at host speed) adds real core
contention, so rates fragment into classes and recomputes resolve in
several bottleneck rounds, not an idealised single one.

Records, per rung: wall-clock for both engines, speedup, allocator
round/recompute counters, and the byte-identity flag — both engines
must produce the *identical* sorted list of (src, dst, size, start,
end) tuples, float-exact, because the vectorized engine is
bit-compatible by construction (DESIGN.md "Vectorized fluid engine").
A final vectorized-only scale run completes a 1024-host fat-tree
campaign with >= 1e6 flows.

Writes ``BENCH_vectorized.json`` at the repo root and asserts the two
headline acceptance numbers: >= 10x on the 64-host rung and a
completed >= 1e6-flow 1024-host run.

Run via ``scripts/run_benchmarks.sh`` or::

    pytest benchmarks/bench_vectorized.py -m benchmark_suite -q -s
"""

import json
import time
from pathlib import Path

from repro.capture.collector import FlowCollector
from repro.cluster.topology import build_topology
from repro.net.backend import make_backend
from repro.simkit.core import Simulator

from benchmarks.conftest import registry_values

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_vectorized.json"

MIN_SPEEDUP_64 = 10.0
MIN_SCALE_FLOWS = 1_000_000

HOST_GBPS = 10.0
HOST_RATE = HOST_GBPS * 1e9 / 8.0  # bytes/s on the access link

#: Scale rungs: (hosts, fattree_k, flows_per_wave, waves).  Placement
#: is a constant half-ring offset, so only ``hosts`` distinct
#: (src, dst) pairs exist (ECMP path lookups amortise) and each host
#: sources and sinks exactly flows_per_wave/hosts flows.
RUNGS = [
    (64, 8, 24576, 1),
    (256, 12, 32768, 1),
    (1024, 16, 32768, 1),
]

#: The vectorized-only scale run: 64 waves x 16384 flows = 1,048,576
#: flows through a 1024-host fat-tree.
SCALE_RUNG = (1024, 16, 16384, 64)

#: Wave spacing, seconds.  Generous enough that every wave drains
#: before the next starts (lap sizes are sized to ~0.5..1.5 s at the
#: initial fair share), keeping waves independent and the slot
#: free-list exercised between them.
WAVE_PERIOD = 4.0


def _wave_flows(hosts, flows_per_wave):
    """Balanced (src, dst, size) population for one wave.

    The size steps per lap (``k // n``) rather than per flow: a lap
    holds one flow per host, so when a lap's flows complete they drain
    every access link together and the next recompute runs against a
    still-uniform population.  ECMP collisions on core links split
    each lap into a handful of completion batches on top of that.
    """
    n = len(hosts)
    laps = flows_per_wave // n
    fair_rate = HOST_RATE / (flows_per_wave / n)
    flows = []
    for k in range(flows_per_wave):
        src = hosts[k % n]
        dst = hosts[(k + n // 2) % n]
        size = fair_rate * (0.5 + (k // n + 1) / laps)
        flows.append((src, dst, size))
    return flows


def _topology(hosts_n, fattree_k, cache={}):
    """One pre-warmed topology per rung, shared by both engine runs.

    ECMP path discovery is topology infrastructure, identical for both
    engines and cached per (src, dst) pair, so it must not be charged
    to whichever engine happens to run first.
    """
    key = (hosts_n, fattree_k)
    if key not in cache:
        topology = build_topology("fattree", num_hosts=hosts_n,
                                  host_gbps=HOST_GBPS, fattree_k=fattree_k)
        hosts = topology.hosts[:hosts_n]
        for index, src in enumerate(hosts):
            topology.path(src, hosts[(index + hosts_n // 2) % hosts_n])
        cache[key] = topology
    return cache[key]


def _run_waves(engine, hosts_n, fattree_k, flows_per_wave, waves,
               collect=True):
    """Run the wave workload on one engine; return timing + evidence."""
    topology = _topology(hosts_n, fattree_k)
    sim = Simulator()
    net = make_backend("fluid", sim, topology, engine=engine)
    collector = FlowCollector(net) if collect else None
    population = _wave_flows(topology.hosts[:hosts_n], flows_per_wave)
    started = time.perf_counter()
    for wave in range(waves):
        at = wave * WAVE_PERIOD
        for src, dst, size in population:
            sim.schedule(at, net.start_flow, src, dst, size)
    sim.run()
    elapsed = time.perf_counter() - started
    completed = int(
        sim.telemetry.registry.counter("net.flows_completed").value)
    assert completed == flows_per_wave * waves, \
        f"{engine}: {completed} of {flows_per_wave * waves} flows completed"
    tuples = None
    if collector is not None:
        tuples = sorted((r.src, r.dst, r.size, r.start, r.end)
                        for r in collector.records)
    return {
        "elapsed_s": elapsed,
        "flows": completed,
        "perf": registry_values(sim.telemetry.registry, "net."),
        "tuples": tuples,
    }


def test_vectorized_engine_speedup_and_scale():
    rows = []
    for hosts_n, fattree_k, flows_per_wave, waves in RUNGS:
        scalar = _run_waves("scalar", hosts_n, fattree_k,
                            flows_per_wave, waves)
        vectorized = _run_waves("vectorized", hosts_n, fattree_k,
                                flows_per_wave, waves)
        identical = scalar["tuples"] == vectorized["tuples"]
        assert identical, \
            f"engines diverged at hosts={hosts_n}: flow tuples differ"
        assert scalar["perf"]["net.recomputes"] == \
            vectorized["perf"]["net.recomputes"]
        assert scalar["perf"]["net.waterfill_rounds"] == \
            vectorized["perf"]["net.waterfill_rounds"]
        speedup = scalar["elapsed_s"] / vectorized["elapsed_s"]
        rows.append({
            "hosts": hosts_n, "fattree_k": fattree_k,
            "flows_per_wave": flows_per_wave, "waves": waves,
            "flows": vectorized["flows"],
            "scalar_s": round(scalar["elapsed_s"], 4),
            "vectorized_s": round(vectorized["elapsed_s"], 4),
            "speedup": round(speedup, 2),
            "byte_identical": identical,
            "recomputes": vectorized["perf"]["net.recomputes"],
            "waterfill_rounds": vectorized["perf"]["net.waterfill_rounds"],
        })
        print(f"hosts={hosts_n:5d} flows={vectorized['flows']:7d} "
              f"scalar={scalar['elapsed_s']:7.2f}s "
              f"vectorized={vectorized['elapsed_s']:6.2f}s "
              f"speedup={speedup:5.1f}x identical={identical}")

    hosts_n, fattree_k, flows_per_wave, waves = SCALE_RUNG
    scale = _run_waves("vectorized", hosts_n, fattree_k, flows_per_wave,
                       waves, collect=False)
    print(f"scale run: hosts={hosts_n} flows={scale['flows']} "
          f"elapsed={scale['elapsed_s']:.1f}s "
          f"rounds={scale['perf']['net.waterfill_rounds']}")

    report = {
        "workload": {
            "shape": "synchronized waves, constant-offset placement, "
                     "per-lap size classes",
            "host_gbps": HOST_GBPS,
            "wave_period_s": WAVE_PERIOD,
        },
        "rungs": rows,
        "speedup_64": next(row["speedup"] for row in rows
                           if row["hosts"] == 64),
        "byte_identical_all_rungs": all(row["byte_identical"]
                                        for row in rows),
        "scale_run": {
            "hosts": hosts_n, "fattree_k": fattree_k,
            "flows_per_wave": flows_per_wave, "waves": waves,
            "flows": scale["flows"],
            "completed": True,
            "vectorized_s": round(scale["elapsed_s"], 2),
            "recomputes": scale["perf"]["net.recomputes"],
            "waterfill_rounds": scale["perf"]["net.waterfill_rounds"],
            "allocator_seconds":
                round(scale["perf"]["net.allocator_seconds"], 4),
        },
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\nvectorized bench: 64-host speedup "
          f"{report['speedup_64']:.1f}x, scale run {scale['flows']} "
          f"flows -> {OUTPUT.name}")

    assert report["speedup_64"] >= MIN_SPEEDUP_64, \
        f"vectorized engine should be >={MIN_SPEEDUP_64}x faster on the " \
        f"64-host rung, got {report['speedup_64']:.2f}x"
    assert scale["flows"] >= MIN_SCALE_FLOWS, \
        f"scale run should complete >={MIN_SCALE_FLOWS} flows, " \
        f"got {scale['flows']}"
