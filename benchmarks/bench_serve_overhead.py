"""Serve-daemon overhead benchmark: observing a campaign must stay cheap.

``keddah campaign --serve-port N`` attaches an HTTP daemon and an
event broker to a running campaign.  Serving is read-only, so captures
stay byte-identical, and the wall-clock cost of being watched must stay
under 3% even with a client polling ``/metrics`` + ``/snapshot`` in a
tight loop for the whole run.

Method: min-of-k over the same 4-point terasort campaign, (a) bare
runner, (b) runner + serve daemon + a poller scraping ``/metrics`` and
``/snapshot`` every 100 ms (an order of magnitude denser than a real
Prometheus scrape interval).  Traces from both arms are serialised and
byte-compared.  Writes ``BENCH_serve.json`` at the repo root.

Run via ``scripts/run_benchmarks.sh`` or::

    pytest benchmarks/bench_serve_overhead.py -m benchmark_suite -q -s
"""

import json
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.units import MB
from repro.experiments.runner import CampaignRunner, CapturePoint
from repro.obs import EventBroker, Telemetry
from repro.obs.server import serve_telemetry

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_serve.json"
RUNS = 3
OVERHEAD_BUDGET = 0.03  # served wall time vs bare wall time
SCRAPE_INTERVAL_S = 0.1

_SPEC = ClusterSpec(num_nodes=8, hosts_per_rack=4)
_CONFIG = HadoopConfig(block_size=32 * MB, num_reducers=4)


def _points():
    return [CapturePoint.from_configs("terasort", 4.0 + index,
                                      100 + index, _SPEC, _CONFIG)
            for index in range(4)]


def _trace_bytes(outcomes):
    lines = []
    for _, trace in outcomes:
        lines.append(json.dumps({"meta": trace.meta.to_dict()}))
        lines.extend(json.dumps(flow.to_dict()) for flow in trace.flows)
    return "\n".join(lines).encode()


def _run_bare():
    runner = CampaignRunner(telemetry=Telemetry.disabled())
    started = time.perf_counter()
    outcomes = runner.run(_points())
    return time.perf_counter() - started, outcomes


def _run_served():
    telemetry = Telemetry.disabled()
    broker = EventBroker()
    runner = CampaignRunner(telemetry=telemetry, events=broker)
    polls = 0
    stop = threading.Event()
    with serve_telemetry(telemetry, broker=broker) as server:
        def scrape():
            nonlocal polls
            while not stop.wait(SCRAPE_INTERVAL_S):
                for endpoint in ("/metrics", "/snapshot"):
                    try:
                        with urllib.request.urlopen(
                                server.url + endpoint, timeout=2) as response:
                            response.read()
                        polls += 1
                    except OSError:
                        return

        poller = threading.Thread(target=scrape, daemon=True)
        poller.start()
        started = time.perf_counter()
        outcomes = runner.run(_points())
        elapsed = time.perf_counter() - started
        stop.set()
        poller.join(timeout=5)
    return elapsed, outcomes, polls, broker.published


def _min_of_k(fn, k=RUNS):
    best = None
    for _ in range(k):
        result = fn()
        if best is None or result[0] < best[0]:
            best = result
    return best


@pytest.mark.benchmark_suite
def test_serve_overhead_budget():
    bare_s, bare_outcomes = _min_of_k(_run_bare)
    served_s, served_outcomes, polls, published = _min_of_k(_run_served)

    # Observation is read-only: flow-for-flow identical captures.
    bare_bytes = _trace_bytes(bare_outcomes)
    served_bytes = _trace_bytes(served_outcomes)
    assert bare_bytes == served_bytes, "serving changed the captured bytes"

    overhead = served_s / bare_s - 1.0
    report = {
        "bare_s": round(bare_s, 4),
        "served_s": round(served_s, 4),
        "overhead_fraction": round(overhead, 4),
        "polls_during_fastest_run": polls,
        "events_published": published,
        "captures_byte_identical": bare_bytes == served_bytes,
        "points": len(bare_outcomes),
    }
    OUTPUT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print("\nserve overhead:")
    for key in sorted(report):
        print(f"  {key} = {report[key]}")

    assert published > 0, "the broker never carried campaign progress"
    assert overhead < OVERHEAD_BUDGET, report
