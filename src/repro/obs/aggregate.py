"""Mergeable registries and live event fan-out for ``keddah serve``.

Executor workers ship their registries back to the parent; a live view
needs the merge to be idempotent (a re-delivered registry must not
double-count) and gauges from two workers must not overwrite each
other blindly.  This module is the aggregation layer the serve daemon
stands on:

* :func:`delta_envelope` — one worker registry wrapped as an
  identified delta;
* :class:`AggregateRegistry` — the parent-side merge target.  Counters
  and histogram buckets **add**, gauges are **last-write-wins under a
  ``worker`` label** (each source keeps its own gauge series), and every
  delta carries a ``(source, delta_id)`` identity so re-delivery — a
  retried future — is idempotent;
* :class:`EventBroker` — a tiny in-process pub/sub hub with a bounded
  replay buffer.  The campaign runner publishes per-point progress and
  the server's ``/events`` endpoint streams it to any number of
  subscribers.

Everything here is thread-safe by construction: the serve daemon's
handler threads read while the campaign thread writes.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time as _time
from collections import deque
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


# -- event fan-out -------------------------------------------------------------------


class Subscription:
    """One subscriber's bounded event queue (close to stop receiving)."""

    def __init__(self, broker: "EventBroker", capacity: int):
        self._broker = broker
        self._queue: "queue.Queue[Dict[str, Any]]" = queue.Queue(capacity)
        self.dropped = 0
        self.closed = False

    def _offer(self, event: Dict[str, Any]) -> None:
        try:
            self._queue.put_nowait(event)
        except queue.Full:
            self.dropped += 1  # slow consumer: shed, never block the publisher

    def get(self, timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """Next event, or None on timeout / after close drained."""
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def close(self) -> None:
        self.closed = True
        self._broker._drop(self)


class EventBroker:
    """In-process pub/sub with a bounded replay history.

    Publishers (:class:`~repro.experiments.runner.CampaignRunner`
    progress) call :meth:`publish`; the serve daemon's ``/events`` handler calls
    :meth:`subscribe` per connection.  History lets a late subscriber
    see recent events (``replay``) without the broker ever growing
    unboundedly.
    """

    def __init__(self, history: int = 256, subscriber_capacity: int = 1024):
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._subscribers: List[Subscription] = []
        self._capacity = subscriber_capacity
        self.history: "deque[Dict[str, Any]]" = deque(maxlen=history)
        self.published = 0

    def publish(self, kind: str, **payload: Any) -> Dict[str, Any]:
        event = {"seq": next(self._ids), "kind": kind,
                 "wall": _time.time()}
        event.update(payload)
        with self._lock:
            self.history.append(event)
            self.published += 1
            subscribers = list(self._subscribers)
        for subscription in subscribers:
            subscription._offer(event)
        return event

    def subscribe(self, replay: int = 0) -> Subscription:
        """A new subscription, pre-loaded with the last ``replay`` events."""
        subscription = Subscription(self, self._capacity)
        with self._lock:
            backlog = list(self.history)[-replay:] if replay else []
            self._subscribers.append(subscription)
        for event in backlog:
            subscription._offer(event)
        return subscription

    def _drop(self, subscription: Subscription) -> None:
        with self._lock:
            try:
                self._subscribers.remove(subscription)
            except ValueError:
                pass

    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)
