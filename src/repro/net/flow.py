"""The Flow object exchanged between the network and its users."""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cluster.topology import Host
from repro.simkit.core import Signal, Simulator


def flow_id_stream() -> Iterator[int]:
    """A fresh flow-id stream (1, 2, ...) for one backend instance.

    Every transport backend owns its own stream, so the ids — which
    appear verbatim in capture bytes — depend only on the simulation,
    never on how many flows earlier clusters in the same process
    created.  Tests that construct Flows directly should draw ids from
    their own stream too; there is deliberately no module-level
    fallback counter.
    """
    return itertools.count(1)


class Flow:
    """A single data transfer between two hosts.

    Users obtain flows from :meth:`repro.net.backend.TransportBackend.
    start_flows` (``start_flow`` is a one-request wave) and wait on
    :attr:`done` (a :class:`~repro.simkit.core.Signal` fired with the
    flow itself).  The ``metadata`` dict carries
    application labels (job id, traffic component, task ids) used by the
    capture stage; the network itself never interprets it.

    ``done`` is allocated lazily: fire-and-forget producers (heartbeats,
    control-plane RPCs, re-replication) never read the attribute, so
    they pay no Signal cost at all.  Reading ``done`` after the flow
    completed yields an already-fired signal (late waiters resume
    immediately, exactly as with an eager signal).
    """

    __slots__ = ("flow_id", "src", "dst", "size", "metadata", "max_rate", "sim",
                 "_done", "path", "links", "link_ids", "has_moved",
                 "start_time", "end_time", "rate", "remaining", "last_update",
                 "local", "span_parent")

    def __init__(self, src: Host, dst: Host, size: float, sim: Simulator,
                 max_rate: Optional[float] = None,
                 metadata: Optional[Dict[str, Any]] = None, *,
                 flow_id: int):
        if size < 0:
            raise ValueError(f"flow size must be >= 0, got {size}")
        if max_rate is not None and max_rate <= 0:
            raise ValueError(f"max_rate must be positive, got {max_rate}")
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size = float(size)
        self.metadata: Dict[str, Any] = metadata or {}
        self.max_rate = max_rate
        self.sim = sim
        self._done: Optional[Signal] = None
        self.path: List[object] = []
        self.links: List[Tuple[object, object]] = []
        # Fluid backend only: the allocator's dense ids of ``links``
        # (same order), and whether the flow has banked any progress
        # yet (its first move fixes where its links enter
        # ``link_bytes``).
        self.link_ids: Sequence[int] = ()
        self.has_moved = False
        self.start_time: float = 0.0
        self.end_time: Optional[float] = None
        self.rate: float = 0.0
        self.remaining: float = float(size)
        self.last_update: float = 0.0
        self.local: bool = src == dst
        # Telemetry: the lifecycle span this flow nests under (if any).
        self.span_parent = None

    @property
    def done(self) -> Signal:
        """The completion signal, materialised on first access.

        Firing a signal with no waiters schedules nothing, so lazy
        allocation is observationally invisible: the event sequence of
        a run is identical whether or not anybody ever waits.
        """
        signal = self._done
        if signal is None:
            signal = Signal(self.sim, name="flow.done")
            self._done = signal
            self.sim.telemetry.registry.counter("net.done_signals").value += 1
            if self.end_time is not None:
                # Completed before anyone waited: pre-fire so late
                # waiters resume immediately, matching eager semantics.
                signal.fire(self)
        return signal

    @property
    def finished(self) -> bool:
        return self.end_time is not None

    @property
    def duration(self) -> Optional[float]:
        """Flow completion time in seconds (``None`` while active)."""
        if self.end_time is None:
            return None
        return self.end_time - self.start_time

    @property
    def mean_rate(self) -> Optional[float]:
        """Average throughput in bytes/s over the flow's lifetime."""
        duration = self.duration
        if duration is None:
            return None
        if duration <= 0:
            return float("inf") if self.size > 0 else 0.0
        return self.size / duration

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"done@{self.end_time:.3f}" if self.finished else f"rate={self.rate:.0f}B/s"
        return (f"Flow(#{self.flow_id} {self.src}->{self.dst} "
                f"{self.size:.0f}B {state})")
