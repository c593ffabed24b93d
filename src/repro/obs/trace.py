"""Lifecycle event tracing: sim-time spans over the job pipeline.

A *span* is one interval of simulated time with a name, a kind, a
parent and free-form attributes.  The instrumented engine emits a span
tree covering the whole traffic-producing pipeline::

    job                      one JobDriver (all rounds)
    └─ round                 one MR round (AM lifetime)
       └─ stage              map / reduce phase of the round
          └─ task            one task attempt (map[i], reduce[i])
             ├─ fetch        one reducer's shuffle-fetch of one map output
             ├─ hdfs_write   one file's replication-pipeline write
             └─ flow         one network transfer (from FlowNetwork)

plus zero-duration *events* (kind ``event``) for point occurrences:
speculation, container loss, fetch recovery.

Spans carry **simulated** start/end times — the tracer never reads a
wall clock; every emit site passes ``sim.now`` explicitly, which keeps
the tracer trivially usable from any component holding the simulator.

Sinks are pluggable: :class:`NullSink` (drop everything — the default,
so the disabled path allocates nothing) and :class:`MemorySink`
(tests, in-process reports).  :mod:`repro.obs.export` writes a
memory sink's closed spans as JSONL, one span per line, and
:func:`load_spans` reads them back.  A span line is a plain dict::

    {"span": 7, "parent": 3, "kind": "task", "name": "map[4]",
     "start": 12.25, "end": 13.875, "attrs": {"host": "h003"}}
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Dict, Iterable, List, Optional, Union

SPAN_KINDS = ("job", "round", "stage", "task", "fetch", "hdfs_write",
              "flow", "event")


class Span:
    """One open or closed interval of simulated time."""

    __slots__ = ("span_id", "parent_id", "kind", "name", "start", "end",
                 "attrs")

    def __init__(self, span_id: int, kind: str, name: str, start: float,
                 parent_id: Optional[int] = None,
                 attrs: Optional[Dict[str, Any]] = None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, Any] = attrs or {}

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {"span": self.span_id, "parent": self.parent_id,
                "kind": self.kind, "name": self.name,
                "start": self.start, "end": self.end, "attrs": self.attrs}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        span = cls(data["span"], data["kind"], data["name"], data["start"],
                   parent_id=data.get("parent"), attrs=data.get("attrs") or {})
        span.end = data.get("end")
        return span

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Span({self.kind}:{self.name}, {self.start:.3f}"
                f"->{self.end if self.end is None else round(self.end, 3)})")


#: Shared sentinel returned by a disabled tracer; accepts nothing, costs
#: nothing, and is safe to pass around as a parent.
NULL_SPAN = Span(-1, "null", "null", 0.0)


class TraceSink:
    """Destination for closed spans."""

    def emit(self, span: Span) -> None:
        raise NotImplementedError


class NullSink(TraceSink):
    """Discards everything; the disabled-path sink."""

    def emit(self, span: Span) -> None:
        pass


NULL_SINK = NullSink()


class MemorySink(TraceSink):
    """Keeps closed spans in a list (tests, in-process reporting)."""

    def __init__(self):
        self.spans: List[Span] = []

    def emit(self, span: Span) -> None:
        self.spans.append(span)


class Tracer:
    """Creates and closes spans against an explicit (simulated) clock.

    When ``enabled`` is False every call is a cheap no-op returning
    :data:`NULL_SPAN`, so instrumentation sites may call unconditionally
    (though hot paths still guard with ``tracer.enabled`` to skip
    argument construction).
    """

    def __init__(self, sink: TraceSink = NULL_SINK, enabled: bool = False):
        self.sink = sink
        self.enabled = enabled
        self._ids = itertools.count(1)
        self.spans_started = 0
        self.spans_emitted = 0

    # -- span lifecycle -----------------------------------------------------------

    def start(self, kind: str, name: str, t: float,
              parent: Optional[Span] = None, **attrs: Any) -> Span:
        """Open a span at simulated time ``t``."""
        if not self.enabled:
            return NULL_SPAN
        self.spans_started += 1
        parent_id = parent.span_id if parent is not None and parent is not NULL_SPAN else None
        return Span(next(self._ids), kind, name, t, parent_id=parent_id,
                    attrs=attrs)

    def end(self, span: Span, t: float, **attrs: Any) -> None:
        """Close ``span`` at simulated time ``t`` and emit it."""
        if not self.enabled or span is NULL_SPAN:
            return
        span.end = t
        if attrs:
            span.attrs.update(attrs)
        self.spans_emitted += 1
        self.sink.emit(span)

    def emit(self, kind: str, name: str, start: float, end: float,
             parent: Optional[Span] = None, **attrs: Any) -> Span:
        """Record an already-finished interval (e.g. a completed flow)."""
        span = self.start(kind, name, start, parent=parent, **attrs)
        self.end(span, end)
        return span

    def event(self, name: str, t: float, parent: Optional[Span] = None,
              **attrs: Any) -> Span:
        """Record a zero-duration point event."""
        return self.emit("event", name, t, t, parent=parent, **attrs)


# -- reading span files -------------------------------------------------------------


def load_spans(source: Union[str, Iterable[str]]) -> List[Span]:
    """Read spans back from a JSONL path (or iterable of lines)."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    else:
        lines = list(source)
    return [Span.from_dict(json.loads(line)) for line in lines if line.strip()]


def span_children(spans: Iterable[Span]) -> Dict[Optional[int], List[Span]]:
    """Group spans by parent id (children sorted by start time)."""
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    for group in children.values():
        group.sort(key=lambda span: (span.start, span.span_id))
    return children
