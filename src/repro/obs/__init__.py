"""Unified telemetry: metrics registry, lifecycle tracing, probes.

The single facade the engine is instrumented through::

    from repro.obs import Telemetry

    telemetry = Telemetry.enabled_in_memory()
    cluster = HadoopCluster(spec, config, seed=1, telemetry=telemetry)
    cluster.run([make_job("terasort", input_gb=0.5)])
    telemetry.registry.value("net.flows_completed")
    telemetry.spans               # the job/stage/task/flow span tree
    telemetry.probes.series       # sampled utilisation/backlog series

Everything is disabled by default: an un-configured run keeps its
counters (they replaced the old ad-hoc perf dicts) but emits no spans,
schedules no probes and allocates no sinks.

A run is observed after the fact: :mod:`repro.obs.export` writes the
registry, probes and spans to a telemetry directory, and ``keddah
report --telemetry``, ``keddah top`` and ``keddah trace`` read it back.
A spawn worker's registry reaches its parent as a snapshot: the
worker returns ``registry.snapshot()`` and the parent folds it in with
``MetricsRegistry.merge(snapshot, worker=source)`` — counters and
histograms sum, gauges keep one series per worker.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.probes import ClusterProbes, ProbeLog, ProbeSeries
from repro.obs.telemetry import (
    DEFAULT_PROBE_INTERVAL,
    Telemetry,
    TelemetryConfig,
)
from repro.obs.trace import (
    NULL_SINK,
    NULL_SPAN,
    SPAN_KINDS,
    MemorySink,
    NullSink,
    Span,
    TraceSink,
    Tracer,
    load_spans,
    span_children,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_PROBE_INTERVAL",
    "ClusterProbes",
    "Counter",
    "Gauge",
    "Histogram",
    "MemorySink",
    "MetricsRegistry",
    "NULL_SINK",
    "NULL_SPAN",
    "NullSink",
    "ProbeLog",
    "ProbeSeries",
    "SPAN_KINDS",
    "Span",
    "Telemetry",
    "TelemetryConfig",
    "TraceSink",
    "Tracer",
    "load_spans",
    "span_children",
]
