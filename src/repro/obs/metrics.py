"""Process-local metrics: counters, gauges and fixed-bucket histograms.

The registry is the one home of every engine counter (``sim.*``,
``net.*``, ``store.*``, ``campaign.*``); components keep no counter
attributes of their own.  Components create their metrics once at
construction time and mutate plain ``value`` attributes on the hot
path, so instrumentation costs one attribute add while everything
becomes enumerable, exportable and mergeable across processes.

Design points:

* A metric's identity is ``(name, sorted labels)``.  ``counter()`` /
  ``gauge()`` / ``histogram()`` are get-or-create, so two components
  naming the same metric share one instrument.
* Gauges may be *callback* gauges (``gauge(name, fn=...)``): the value
  is read lazily from the component (heap size, active-flow count), so
  the hot path pays nothing at all.
* ``snapshot()`` produces a plain picklable list of dicts; ``merge()``
  folds such a snapshot back in (counters and histograms add, gauges
  take the incoming value).  The supervised executor uses this pair to
  fold each spawn worker's registry into the parent, with
  ``merge(snapshot, worker=source)`` keeping every worker's gauges on
  their own ``worker=<source>`` series.
* ``timeit(name)`` observes wall-clock seconds into a histogram — for
  host-side costs (store I/O, fit time), never simulated time.
"""

from __future__ import annotations

import time as _time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

LabelsKey = Tuple[Tuple[str, str], ...]

#: Default histogram buckets: wall-clock seconds from 100 microseconds to
#: ~2 minutes, roughly half-decade spaced.
DEFAULT_BUCKETS = (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5,
                   1.0, 5.0, 15.0, 60.0, 120.0)


def _labels_key(labels: Dict[str, Any]) -> LabelsKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing float counter."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelsKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Gauge:
    """A point-in-time value, set directly or read from a callback."""

    __slots__ = ("name", "labels", "_value", "fn")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelsKey = (),
                 fn: Optional[Callable[[], float]] = None):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self.fn = fn

    @property
    def value(self) -> float:
        if self.fn is not None:
            return float(self.fn())
        return self._value

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "gauge", "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Histogram:
    """Fixed-bucket histogram (cumulative counts, Prometheus-style)."""

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")

    kind = "histogram"

    def __init__(self, name: str, labels: LabelsKey = (),
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        # counts[i] = observations <= buckets[i]; one overflow slot at the end.
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # Smallest bound >= value; past the last bound -> overflow slot.
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def cumulative_counts(self) -> List[int]:
        """Cumulative per-bound counts (``le`` semantics), plus +Inf."""
        total, out = 0, []
        for bucket_count in self.counts:
            total += bucket_count
            out.append(total)
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "histogram", "name": self.name,
                "labels": dict(self.labels), "buckets": list(self.buckets),
                "counts": list(self.counts), "sum": self.sum,
                "count": self.count}


class MetricsRegistry:
    """Get-or-create home for a process's (or one cluster's) metrics."""

    def __init__(self):
        self._metrics: Dict[Tuple[str, str, LabelsKey], Any] = {}

    # -- creation ---------------------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create("counter", Counter, name, labels)

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None,
              **labels: Any) -> Gauge:
        gauge = self._get_or_create("gauge", Gauge, name, labels)
        if fn is not None:
            gauge.fn = fn
        return gauge

    def histogram(self, name: str,
                  buckets: Iterable[float] = DEFAULT_BUCKETS,
                  **labels: Any) -> Histogram:
        key = ("histogram", name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(name, key[2], buckets=buckets)
            self._metrics[key] = metric
        return metric

    def _get_or_create(self, kind: str, cls, name: str,
                       labels: Dict[str, Any]):
        key = (kind, name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[2])
            self._metrics[key] = metric
        return metric

    # -- observation ------------------------------------------------------------

    @contextmanager
    def timeit(self, name: str, **labels: Any):
        """Observe a wall-clock duration into ``histogram(name)``."""
        histogram = self.histogram(name, **labels)
        started = _time.perf_counter()
        try:
            yield histogram
        finally:
            histogram.observe(_time.perf_counter() - started)

    def metrics(self) -> List[Any]:
        """Every registered instrument, sorted by (name, labels)."""
        return [self._metrics[key]
                for key in sorted(self._metrics,
                                  key=lambda k: (k[1], k[0], k[2]))]

    def get(self, name: str, **labels: Any) -> Optional[Any]:
        """Look up an instrument of any kind by name + labels."""
        wanted = _labels_key(labels)
        for (_, metric_name, labels_key), metric in self._metrics.items():
            if metric_name == name and labels_key == wanted:
                return metric
        return None

    def value(self, name: str, **labels: Any) -> float:
        """Convenience: an instrument's value (0.0 when absent)."""
        metric = self.get(name, **labels)
        if metric is None:
            return 0.0
        if isinstance(metric, Histogram):
            return float(metric.count)
        return float(metric.value)

    def __len__(self) -> int:
        return len(self._metrics)

    # -- snapshot / merge ---------------------------------------------------------

    def snapshot(self) -> List[Dict[str, Any]]:
        """Plain-data (picklable) dump; callback gauges are evaluated."""
        return [metric.to_dict() for metric in self.metrics()]

    def merge(self, snapshot: Iterable[Dict[str, Any]],
              worker: Optional[str] = None) -> None:
        """Fold a snapshot in: counters/histograms add, gauges overwrite.

        With ``worker`` set, the snapshot's gauges land on their own
        ``worker=<worker>`` series, so two workers' gauges never
        clobber each other; counters and histograms still sum onto the
        unlabelled series.  Callback gauges are left alone — their
        value belongs to a live component of *this* process, not to
        the snapshot's.
        """
        for entry in snapshot:
            labels = entry.get("labels", {})
            kind = entry["type"]
            if kind == "counter":
                self.counter(entry["name"], **labels).inc(entry["value"])
            elif kind == "gauge":
                if worker is not None:
                    labels = dict(labels, worker=worker)
                gauge = self.gauge(entry["name"], **labels)
                if gauge.fn is None:
                    gauge.set(entry["value"])
            elif kind == "histogram":
                histogram = self.histogram(entry["name"],
                                           buckets=entry["buckets"], **labels)
                if tuple(histogram.buckets) != tuple(entry["buckets"]):
                    raise ValueError(
                        f"histogram {entry['name']!r} bucket mismatch on merge")
                for index, bucket_count in enumerate(entry["counts"]):
                    histogram.counts[index] += bucket_count
                histogram.sum += entry["sum"]
                histogram.count += entry["count"]
            else:
                raise ValueError(f"unknown metric type {kind!r}")
