"""Periodic probes: time series sampled from a live cluster simulation.

Counters say *how much* happened; probes say *when*.  A
:class:`ClusterProbes` instance schedules a repeating sim event (every
``interval`` simulated seconds) that samples read-only signals from the
running cluster into :class:`ProbeSeries`:

* ``net.active_flows``      — flows currently in the fluid network,
* ``net.throughput_gbps``   — aggregate instantaneous rate of those flows,
* ``net.link_utilisation_mean`` / ``_max`` — mean/max utilisation since
  t=0 over every link that has carried traffic,
* ``sim.backlog``           — pending (non-cancelled) events in the heap,
* ``yarn.queue_depth``      — containers wanted but not yet granted,
  summed over registered applications.

Sampling is strictly read-only, so enabling probes cannot perturb flow
behaviour: capture traces stay byte-identical with probes on or off
(the determinism tests pin this).  The probe loop is started by
``HadoopCluster.start`` when telemetry is enabled and stopped by
``HadoopCluster.stop`` so the event queue can drain.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapreduce.cluster import HadoopCluster


class ProbeSeries:
    """One sampled time series: parallel (time, value) lists.

    ``mean``, ``peak`` and ``peak_time`` are maintained incrementally
    as samples arrive, so reading them never rescans the series.
    """

    __slots__ = ("name", "times", "values", "_sum", "_peak", "_peak_time")

    def __init__(self, name: str):
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []
        self._sum = 0.0
        self._peak: Optional[float] = None
        self._peak_time = 0.0

    def append(self, t: float, value: float) -> None:
        value = float(value)
        self._sum += value
        if self._peak is None or value > self._peak:
            self._peak = value
            self._peak_time = t
        self.times.append(t)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def mean(self) -> float:
        return self._sum / len(self.values) if self.values else 0.0

    @property
    def peak(self) -> float:
        return self._peak if self._peak is not None else 0.0

    @property
    def peak_time(self) -> float:
        return self._peak_time if self._peak is not None else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "t": list(self.times),
                "v": list(self.values)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ProbeSeries":
        series = cls(data["name"])
        series.times = [float(t) for t in data["t"]]
        series.values = [float(v) for v in data["v"]]
        series._sum = sum(series.values)
        if series.values:
            series._peak = max(series.values)
            series._peak_time = series.times[
                series.values.index(series._peak)]
        return series


class ProbeLog:
    """Named collection of probe series (what ``Telemetry`` carries)."""

    def __init__(self):
        self.series: Dict[str, ProbeSeries] = {}

    def get(self, name: str) -> ProbeSeries:
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = ProbeSeries(name)
        return series

    def sample(self, name: str, t: float, value: float) -> None:
        self.get(name).append(t, value)

    def __len__(self) -> int:
        return len(self.series)

    def total_samples(self) -> int:
        return sum(len(series) for series in self.series.values())

    def to_dict(self) -> Dict[str, Any]:
        return {name: series.to_dict()
                for name, series in sorted(self.series.items())}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ProbeLog":
        log = cls()
        for name, series in data.items():
            log.series[name] = ProbeSeries.from_dict(series)
        return log


class ClusterProbes:
    """The repeating sampler bound to one :class:`HadoopCluster`."""

    def __init__(self, cluster: "HadoopCluster", interval: float,
                 log: Optional[ProbeLog] = None):
        if interval <= 0:
            raise ValueError(f"probe interval must be positive, got {interval}")
        self.cluster = cluster
        self.interval = interval
        self.log = log if log is not None else ProbeLog()
        self.samples_taken = 0
        self._event = None
        self._running = False

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._sample()  # t=0 baseline, then every ``interval``

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    # -- sampling ----------------------------------------------------------------

    def _sample(self) -> None:
        if not self._running:
            return
        cluster = self.cluster
        sim, net, rm = cluster.sim, cluster.net, cluster.rm
        now = sim.now
        log = self.log
        log.sample("net.active_flows", now, len(net.active))
        log.sample("net.throughput_gbps", now, net.throughput_gbps())
        utilisations = [net.utilisation(link) for link in net._capacities]
        if utilisations:
            log.sample("net.link_utilisation_mean", now,
                       sum(utilisations) / len(utilisations))
            log.sample("net.link_utilisation_max", now, max(utilisations))
        else:
            log.sample("net.link_utilisation_mean", now, 0.0)
            log.sample("net.link_utilisation_max", now, 0.0)
        log.sample("sim.backlog", now, sim.pending())
        log.sample("yarn.queue_depth", now,
                   sum(app.pending_count() for app in rm.apps.values()))
        self.samples_taken += 1
        self._event = sim.schedule(self.interval, self._sample)
