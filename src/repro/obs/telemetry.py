"""The telemetry facade: one object bundling registry, tracer and probes.

Every instrumented component reaches its telemetry the same way — via
the simulator (``sim.telemetry``) or an explicit constructor argument —
so there is exactly one switch that decides whether a run is observed:

* **Disabled** (the default): the registry still works — it *is* the
  home of the engine's perf counters, replacing the old ad-hoc dicts —
  but the tracer is a no-op returning a shared null span, no sink
  exists, and no probe events are ever scheduled.  The overhead over
  the pre-telemetry engine is a handful of attribute reads, bounded in
  ``benchmarks/bench_telemetry_overhead.py``.
* **Enabled**: spans flow into the configured sink, and clusters start
  a :class:`~repro.obs.probes.ClusterProbes` sampler at
  ``probe_interval`` simulated seconds.

Enabling telemetry never changes simulation results: spans and probes
only *read* engine state, so capture traces are byte-identical either
way (pinned by the determinism tests).

:class:`TelemetryConfig` is the picklable recipe used to re-create an
equivalent telemetry in executor worker processes.  A worker's spans
go to the null sink; its registry snapshot returns to the parent,
which folds it in with
:meth:`~repro.obs.metrics.MetricsRegistry.merge` under the worker's
label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.probes import ProbeLog
from repro.obs.trace import NULL_SINK, MemorySink, TraceSink, Tracer

#: Default probe cadence in simulated seconds.
DEFAULT_PROBE_INTERVAL = 1.0


@dataclass(frozen=True)
class TelemetryConfig:
    """Picklable telemetry recipe (what executor workers receive).

    The telemetry it builds traces into the null sink: spans stay in
    the worker, and only the registry travels back.
    """

    enabled: bool = False
    probe_interval: float = DEFAULT_PROBE_INTERVAL

    def build(self) -> "Telemetry":
        return Telemetry(enabled=self.enabled, sink=NULL_SINK,
                         probe_interval=self.probe_interval)


class Telemetry:
    """Registry + tracer + probe log behind one enable switch."""

    def __init__(self, enabled: bool = False,
                 sink: Optional[TraceSink] = None,
                 probe_interval: float = DEFAULT_PROBE_INTERVAL,
                 registry: Optional[MetricsRegistry] = None):
        self.enabled = enabled
        self.registry = registry if registry is not None else MetricsRegistry()
        if sink is None:
            sink = MemorySink() if enabled else NULL_SINK
        self.sink = sink
        self.tracer = Tracer(sink=sink, enabled=enabled)
        self.probe_interval = probe_interval if enabled else 0.0
        self.probes = ProbeLog()

    # -- constructors ------------------------------------------------------------

    @classmethod
    def disabled(cls) -> "Telemetry":
        """A fresh null-path telemetry (what components get by default)."""
        return cls(enabled=False)

    @classmethod
    def enabled_in_memory(cls,
                          probe_interval: float = DEFAULT_PROBE_INTERVAL,
                          ) -> "Telemetry":
        """Telemetry capturing spans in memory (tests, reports)."""
        return cls(enabled=True, sink=MemorySink(),
                   probe_interval=probe_interval)

    # -- worker recipe -------------------------------------------------------------

    def config(self) -> TelemetryConfig:
        """The picklable recipe reproducing this telemetry's settings."""
        return TelemetryConfig(enabled=self.enabled,
                               probe_interval=self.probe_interval or
                               DEFAULT_PROBE_INTERVAL)

    # -- convenience ---------------------------------------------------------------

    @property
    def spans(self):
        """Closed spans when the sink keeps them in memory, else []."""
        return getattr(self.sink, "spans", [])
