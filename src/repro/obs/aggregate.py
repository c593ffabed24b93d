"""Mergeable registries: how worker telemetry reaches the parent.

Executor workers ship their registries back to the parent, and the
merge has to be idempotent (a re-delivered registry must not
double-count) and gauges from two workers must not overwrite each
other blindly:

* :func:`delta_envelope` — one worker registry wrapped as an
  identified delta;
* :class:`AggregateRegistry` — the parent-side merge target.  Counters
  and histogram buckets **add**, gauges are **last-write-wins under a
  ``worker`` label** (each source keeps its own gauge series), and every
  delta carries a ``(source, delta_id)`` identity so re-delivery — a
  retried future — is idempotent.

Merges hold the aggregate's lock, so a delta is applied whole even
when an embedding host reads or merges from more than one thread.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry

#: Label attached to worker gauges by :class:`AggregateRegistry`.
WORKER_LABEL = "worker"


# -- delta envelopes (worker side) ---------------------------------------------------


def delta_envelope(registry: MetricsRegistry, source: str,
                   delta_id: str) -> Dict[str, Any]:
    """One-shot envelope: a whole registry as a single identified delta.

    This is what executor workers ship — their telemetry is fresh per
    task, so the full snapshot *is* the increment; ``delta_id`` (the
    task key) makes re-delivery of the same completed task a no-op on
    the aggregate side.
    """
    return {"source": source, "delta_id": delta_id,
            "metrics": registry.snapshot()}


# -- the merge target (parent side) --------------------------------------------------


class AggregateRegistry:
    """Thread-safe, idempotent merge target for delta envelopes.

    Merge semantics, per metric kind:

    ============  ==================================================
    counter       values **sum** across sources (cluster-wide total)
    gauge         **last write wins within a source**; each source's
                  value lands on its own ``worker=<source>`` series,
                  so sources never clobber each other
    histogram     per-bucket counts, sum and count **add**
    ============  ==================================================

    An envelope is ``{"source": str, "delta_id": str, "metrics": [...]}``
    (:func:`delta_envelope` builds them).  The
    ``(source, delta_id)`` pair identifies the delta: applying the same
    pair twice counts once — the runner may re-deliver a completion
    after a pool collapse.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.lock = threading.RLock()
        self._applied: Dict[str, set] = {}
        self.deltas_applied = 0
        self.duplicates_dropped = 0

    def apply(self, envelope: Optional[Dict[str, Any]]) -> bool:
        """Fold one envelope in; False when it was a duplicate (or None)."""
        if not envelope:
            return False
        source = str(envelope.get("source", "local"))
        delta_id = envelope.get("delta_id")
        with self.lock:
            if delta_id is not None:
                seen = self._applied.setdefault(source, set())
                if delta_id in seen:
                    self.duplicates_dropped += 1
                    return False
                seen.add(delta_id)
            for entry in envelope.get("metrics", ()):
                self._merge_entry(source, entry)
            self.deltas_applied += 1
        return True

    def _merge_entry(self, source: str, entry: Dict[str, Any]) -> None:
        labels = dict(entry.get("labels") or {})
        kind = entry["type"]
        registry = self.registry
        if kind == "counter":
            registry.counter(entry["name"], **labels).inc(entry["value"])
        elif kind == "gauge":
            labels[WORKER_LABEL] = source
            gauge = registry.gauge(entry["name"], **labels)
            if gauge.fn is None:
                gauge.set(entry["value"])
        elif kind == "histogram":
            histogram = registry.histogram(entry["name"],
                                           buckets=entry["buckets"], **labels)
            if tuple(histogram.buckets) != tuple(entry["buckets"]):
                raise ValueError(f"histogram {entry['name']!r} bucket "
                                 f"mismatch on aggregate merge")
            for index, count in enumerate(entry["counts"]):
                histogram.counts[index] += count
            histogram.sum += entry["sum"]
            histogram.count += entry["count"]
        else:
            raise ValueError(f"unknown metric type {kind!r}")

    def sources(self) -> List[str]:
        with self.lock:
            return sorted(self._applied)

    def stats(self) -> Dict[str, int]:
        with self.lock:
            return {"sources": len(self._applied),
                    "deltas_applied": self.deltas_applied,
                    "duplicates_dropped": self.duplicates_dropped}

