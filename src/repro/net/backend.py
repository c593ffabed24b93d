"""The transport seam: pluggable backends behind one flow interface.

Every layer that produces traffic (HDFS pipelines, shuffle fetchers,
heartbeats, replay, fault recovery) emits *flow intents* — "move
``size`` bytes from ``src`` to ``dst``, tell me when done" — against
the :class:`TransportBackend` interface instead of constructing the
fluid engine directly.  Which substrate turns intents into timings is
a per-run configuration choice (``ClusterSpec.backend``, CLI
``--backend``):

``fluid``
    The original max-min fair-share engine
    (:class:`~repro.net.network.FlowNetwork`), unchanged semantics:
    every arrival/departure re-waterfills rates, completions are exact
    under the fluid approximation.  The reference substrate.

``analytic``
    A closed-form per-wave approximation
    (:class:`AnalyticBackend`): a flow's rate is fixed once, at
    admission, to its bottleneck share — ``min over links of
    capacity / concurrent flows`` — and its completion is scheduled
    immediately.  No global recomputation ever happens, so cost is
    O(path length) per flow instead of O(active flows × links) per
    event.  Flow populations (who sends what where) are preserved;
    *timings* are approximate.  Built for huge what-if campaigns where
    JCT trends matter and per-flow exactness does not.

``record``
    A zero-cost intent recorder (:class:`RecordBackend`): flows
    complete instantly and every intent is logged verbatim.  Feeding a
    replayed trace through it yields the exact flow schedule needed by
    the ns-3/OMNeT exporters without paying for a fluid run.

Every backend admits flows through one path, the batched
:meth:`TransportBackend.start_flows`; ``start_flow`` is a one-request
wave.  Flow creation and the completion tail (counters and ``flow``
spans) are shared in the base class, and the fluid and analytic
backends share the wave split of :class:`RoutedBackend`.

Backends register in :data:`BACKENDS` and are constructed through
:func:`make_backend`, the single factory used by
``HadoopCluster``, ``replay_trace`` and the CLI.  Future substrates
(packet-level, external-simulator bridges) plug in the same way,
implementing ``start_flows`` only.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.cluster.topology import Host, Topology
from repro.net.flow import Flow, flow_id_stream
from repro.simkit.core import Simulator

#: Completion horizons fire at -1 and process resumes at 0; backend
#: flushes run after both so a whole same-instant wave shares one rate
#: decision (mirrors ``repro.net.network._FLUSH_PRIORITY``).
_WAVE_PRIORITY = 1


class FlowRequest:
    """One flow intent of a batched admission wave.

    A plain value object: what :meth:`TransportBackend.start_flow`
    takes as arguments, reified so producers can hand a whole wave to
    :meth:`TransportBackend.start_flows` in one call.
    """

    __slots__ = ("src", "dst", "size", "max_rate", "metadata", "parent_span")

    def __init__(self, src: Host, dst: Host, size: float,
                 max_rate: Optional[float] = None,
                 metadata: Optional[Dict[str, Any]] = None,
                 parent_span=None):
        self.src = src
        self.dst = dst
        self.size = size
        self.max_rate = max_rate
        self.metadata = metadata
        self.parent_span = parent_span

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"FlowRequest({self.src}->{self.dst} {self.size:.0f}B "
                f"max_rate={self.max_rate})")


class TransportBackend(ABC):
    """What the behaviour layers may assume about a transport substrate.

    The contract, shared by every implementation:

    * :meth:`start_flows` admits a synchronous wave of intents in one
      call (array-in, array-out) and returns one
      :class:`~repro.net.flow.Flow` per request, ids drawn in request
      order.  Each flow's ``done`` signal fires (with the flow as
      payload) when the backend decides the transfer has completed.
      Host-local transfers (``src == dst``) never touch links and
      complete at the flow's rate cap.  It is the only admission path
      a backend implements.
    * :meth:`start_flow` is a one-request wave, for producers that
      admit one flow at a time (fetcher loops, control RPCs, replay).
    * Completion listeners (:meth:`add_listener`) observe every
      finished flow — the capture stage's tap.
    * :meth:`utilisation` reports per-link mean utilisation since t=0;
      cumulative engine counters live on the simulator's telemetry
      registry (``net.*``).

    Flow creation (:meth:`_open_flows`) and the completion tail
    (:meth:`_note_completed`, :meth:`_finish`) live here, so every
    backend counts ``net.flows_started``/``net.flows_completed`` and
    traces one ``flow`` span per flow the same way.  Subclasses must
    also keep the observable state probes sample: ``active``
    (flow_id → Flow), ``link_bytes`` and ``_capacities``.
    """

    #: Registry name; subclasses override ("fluid", "analytic", ...).
    name: str = "abstract"

    def __init__(self, sim: Simulator, topology: Topology):
        self.sim = sim
        self.topology = topology
        self.active: Dict[int, Flow] = {}
        self.completed_count = 0
        self.total_bytes = 0.0
        self.link_bytes: Dict[Tuple[object, object], float] = defaultdict(float)
        self._capacities: Dict[Tuple[object, object], float] = {}
        self._listeners: List[Callable[[Flow], None]] = []
        # Per-backend flow ids: simulations are reproducible no matter
        # how many flows earlier clusters in this process created.
        self._flow_ids = flow_id_stream()
        # Every backend announces itself on the run's registry so
        # telemetry artefacts (report --telemetry, campaign snapshots)
        # can distinguish fluid from analytic runs.
        registry = sim.telemetry.registry
        registry.gauge("net.backend", backend=self.name).set(1.0)
        self._tracer = sim.telemetry.tracer
        self._c_flows_started = registry.counter("net.flows_started")
        self._c_flows_completed = registry.counter("net.flows_completed")
        self._c_bytes_completed = registry.counter("net.bytes_completed")
        #: Completed flows whose ``done`` signal was never materialised
        #: (fire-and-forget producers; the lazy-signal saving).
        self._c_done_skipped = registry.counter("net.done_signals_skipped")
        registry.gauge("net.active_flows", fn=lambda: len(self.active))

    # -- the flow interface ----------------------------------------------------

    def start_flow(self, src: Host, dst: Host, size: float,
                   max_rate: Optional[float] = None,
                   metadata: Optional[Dict[str, Any]] = None,
                   parent_span=None) -> Flow:
        """Begin transferring ``size`` bytes from ``src`` to ``dst``.

        A one-request :meth:`start_flows` wave.  ``parent_span``
        attaches the flow's telemetry span (emitted on completion when
        tracing is enabled) under a lifecycle span.
        """
        return self.start_flows([FlowRequest(src, dst, size, max_rate,
                                             metadata, parent_span)])[0]

    @abstractmethod
    def start_flows(self, requests: Sequence[FlowRequest]) -> List[Flow]:
        """Admit a synchronous wave of flow intents; flows in request order.

        A wave and the same requests admitted as one-request waves, in
        order, are observationally identical — same flow ids, same
        rates, same completion/listener ordering, byte-identical
        captures (the contract ``tests/test_flow_batching.py`` pins) —
        but the wave pays its bookkeeping once.
        """

    def _open_flows(self, requests: Sequence[FlowRequest]) -> List[Flow]:
        """Create a wave's flows in request (hence id) order, started now."""
        sim = self.sim
        now = sim.now
        flow_ids = self._flow_ids
        flows: List[Flow] = []
        for request in requests:
            flow = Flow(request.src, request.dst, request.size, sim,
                        max_rate=request.max_rate, metadata=request.metadata,
                        flow_id=next(flow_ids))
            flow.span_parent = request.parent_span
            flow.start_time = now
            flow.last_update = now
            flows.append(flow)
        self._c_flows_started.value += len(flows)
        return flows

    # -- completion ------------------------------------------------------------

    def add_listener(self, callback: Callable[[Flow], None]) -> None:
        """Register a callback invoked with every completed flow."""
        self._listeners.append(callback)

    def _note_completed(self, flow: Flow) -> None:
        """End ``flow`` now: zero its rate and backlog, count and trace it."""
        flow.remaining = 0.0
        flow.rate = 0.0
        flow.end_time = self.sim.now
        self.completed_count += 1
        self.total_bytes += flow.size
        self._c_flows_completed.value += 1
        self._c_bytes_completed.value += flow.size
        if self._tracer.enabled:
            self._tracer.emit(
                "flow", f"flow[{flow.flow_id}]",
                flow.start_time, flow.end_time,
                parent=flow.span_parent,
                src=flow.src.name, dst=flow.dst.name, size=flow.size,
                component=flow.metadata.get("component", ""),
                local=flow.local)

    def _finish(self, flow: Flow) -> None:
        """Announce a noted completion: the done signal, then listeners."""
        done = flow._done
        if done is not None:
            done.fire(flow)
        else:
            # Nobody ever waited: firing would schedule nothing anyway,
            # so skipping the (never-allocated) signal is invisible.
            self._c_done_skipped.value += 1
        for listener in self._listeners:
            listener(flow)

    def _complete(self, flow: Flow) -> None:
        """The whole completion tail of one flow."""
        self._note_completed(flow)
        self._finish(flow)

    # -- observation -----------------------------------------------------------

    def throughput_gbps(self) -> float:
        """Aggregate instantaneous rate over active flows, in Gbit/s."""
        return sum(flow.rate for flow in self.active.values()) * 8 / 1e9

    def utilisation(self, link: Tuple[object, object]) -> float:
        """Mean utilisation of a directed link since t=0 (fraction)."""
        if self.sim.now <= 0:
            return 0.0
        capacity = self._capacities.get(link)
        if capacity is None:
            capacity = self.topology.capacity(*link)
        return self.link_bytes.get(link, 0.0) / (capacity * self.sim.now)


class RoutedBackend(TransportBackend):
    """A backend whose flows cross topology links: fluid and analytic.

    :meth:`start_flows` splits a wave once for both: flows are created
    in id order; host-local and zero-size flows complete after their
    delay (zero, or ``size / max_rate``), one heap event per distinct
    delay; every other flow takes its (src, dst) pair's path, resolved
    once per backend, and, with ``hop_latency``, waits out a connection
    setup of 1.5 RTTs (``1.5 × 2 × hops × hop_latency``), one heap
    event per distinct setup time.  A subclass supplies only how it
    interns a link the backend meets for the first time
    (:meth:`_intern_link`) and how it activates a group of flows ready
    to move bytes (:meth:`_activate_wave`).

    Grouping by identical delay keeps a wave's event order equal to
    one-request waves': within a group, request order is kept;
    distinct delays mean distinct fire times, so heap order never falls
    back to sequence numbers.
    """

    def __init__(self, sim: Simulator, topology: Topology,
                 hop_latency: float = 0.0):
        if hop_latency < 0:
            raise ValueError(f"hop_latency must be >= 0, got {hop_latency}")
        super().__init__(sim, topology)
        self.hop_latency = hop_latency
        # (src name, dst name) -> (path, links).  Topology routes are
        # static, so each pair is resolved (and its new links interned)
        # once per backend; same-pair flows share the read-only lists.
        self._routes: Dict[Tuple[str, str], Tuple[List[object], List[Any]]] = {}

    def start_flows(self, requests: Sequence[FlowRequest]) -> List[Flow]:
        flows = self._open_flows(requests)
        sim = self.sim
        routes = self._routes
        hop_latency = self.hop_latency
        local_groups: Dict[float, List[Flow]] = {}
        setup_groups: Dict[float, List[Flow]] = {}
        ready: List[Flow] = []
        for flow in flows:
            if flow.local or flow.size == 0:
                delay = (0.0 if flow.size == 0 or flow.max_rate is None
                         else flow.size / flow.max_rate)
                local_groups.setdefault(delay, []).append(flow)
                continue
            route = routes.get((flow.src.name, flow.dst.name))
            if route is None:
                route = self._route(flow.src, flow.dst)
            flow.path, flow.links = route
            if hop_latency > 0:
                setup = 1.5 * (2.0 * len(flow.links) * hop_latency)
                setup_groups.setdefault(setup, []).append(flow)
            else:
                ready.append(flow)
        for delay, group in local_groups.items():
            sim.schedule(delay, self._complete_local_wave, group)
        for setup, group in setup_groups.items():
            sim.schedule(setup, self._activate_wave, group)
        if ready:
            self._activate_wave(ready)
        return flows

    def _route(self, src: Host, dst: Host) -> Tuple[List[object], List[Any]]:
        """Resolve and remember a pair's path and links, interning each
        link this backend has not seen yet."""
        path = self.topology.path(src, dst)
        links = self.topology.edges_on_path(path)
        for link in links:
            if link not in self._capacities:
                self._intern_link(link)
        route = self._routes[(src.name, dst.name)] = (path, links)
        return route

    @abstractmethod
    def _intern_link(self, link: Tuple[object, object]) -> None:
        """Register a link's capacity in ``_capacities`` (and any state)."""

    @abstractmethod
    def _activate_wave(self, flows: Sequence[Flow]) -> None:
        """Start moving bytes for a same-instant group of routed flows."""

    def _complete_local_wave(self, flows: Sequence[Flow]) -> None:
        """Complete a same-delay local group from one heap event.

        Completing the group back to back inside one event preserves
        every observable ordering: one event per flow would have been
        seq-adjacent at this (time, priority) anyway, and the resume
        events their done-signals schedule land after the group in both
        shapes.
        """
        for flow in flows:
            self._complete(flow)


class AnalyticBackend(RoutedBackend):
    """Closed-form bottleneck-share approximation of the fluid engine.

    A flow admitted at time *t* gets the rate ``min over its links of
    capacity(link) / active(link)`` — its max-min share *if* every link
    were its bottleneck and the competitor set frozen — capped by
    ``max_rate``, and completes exactly ``size / rate`` later.  Flows
    starting at the same instant form one *wave*: rates are fixed at a
    zero-delay flush so the whole wave sees the same concurrency
    counts (including each other), mirroring the fluid engine's
    same-timestamp batching.

    What this drops, deliberately: rates are never revised when
    competitors arrive or leave, so a flow that outlives its wave keeps
    its admission-time share (pessimistic) and one that gains company
    keeps its solo rate (optimistic).  Flow populations are identical
    to fluid — the behaviour layers emit the same intents — while
    completion times carry the approximation error.  In exchange the
    cost per flow is O(path length), with no global state to
    re-waterfill: the engine that makes thousand-point what-if sweeps
    affordable.

    ``hop_latency`` keeps the fluid engine's connection-setup semantics
    (1.5 RTTs before bytes move) so analytic JCTs stay comparable.
    """

    name = "analytic"

    def __init__(self, sim: Simulator, topology: Topology,
                 hop_latency: float = 0.0, **_ignored: Any):
        super().__init__(sim, topology, hop_latency)
        self._link_active: Dict[Tuple[object, object], int] = defaultdict(int)
        self._wave: List[Flow] = []
        self._wave_event = None
        self._c_waves = sim.telemetry.registry.counter("net.waves")

    # -- flow lifecycle --------------------------------------------------------

    def _intern_link(self, link: Tuple[object, object]) -> None:
        self._capacities[link] = self.topology.capacity(*link)

    def _activate_wave(self, flows: Sequence[Flow]) -> None:
        """Count a ready group on its links; the wave flush fixes rates.

        The flush runs at :data:`_WAVE_PRIORITY`, after every priority-0
        event of the instant, so every flow activated at this instant
        shares it.
        """
        now = self.sim.now
        active = self.active
        link_active = self._link_active
        for flow in flows:
            flow.last_update = now
            active[flow.flow_id] = flow
            for link in flow.links:
                link_active[link] += 1
        self._wave.extend(flows)
        if self._wave_event is None:
            self._wave_event = self.sim.schedule(
                0.0, self._fix_wave_rates, priority=_WAVE_PRIORITY)

    def _fix_wave_rates(self) -> None:
        """Fix the whole wave's rates from current concurrency, once."""
        self._wave_event = None
        self._c_waves.value += 1
        wave, self._wave = self._wave, []
        link_active = self._link_active
        capacities = self._capacities
        for flow in wave:
            rate = min(capacities[link] / link_active[link]
                       for link in flow.links)
            if flow.max_rate is not None:
                rate = min(rate, flow.max_rate)
            flow.rate = rate
            self.sim.schedule(flow.size / rate, self._complete_routed, flow,
                              priority=-1)

    def _complete_routed(self, flow: Flow) -> None:
        del self.active[flow.flow_id]
        for link in flow.links:
            self._link_active[link] -= 1
            self.link_bytes[link] += flow.size
        self._complete(flow)


class FlowIntent:
    """One recorded flow intent: what was asked of the transport."""

    __slots__ = ("flow_id", "start", "src", "dst", "size", "max_rate",
                 "metadata")

    def __init__(self, flow_id: int, start: float, src: Host, dst: Host,
                 size: float, max_rate: Optional[float],
                 metadata: Dict[str, Any]):
        self.flow_id = flow_id
        self.start = start
        self.src = src
        self.dst = dst
        self.size = size
        self.max_rate = max_rate
        self.metadata = metadata

    def to_dict(self) -> Dict[str, Any]:
        return {"flow_id": self.flow_id, "start": self.start,
                "src": self.src.name, "dst": self.dst.name,
                "size": self.size, "max_rate": self.max_rate,
                "metadata": dict(self.metadata)}


class RecordBackend(TransportBackend):
    """Zero-cost substrate: log every intent, complete flows instantly.

    No rates, no links, no contention — a flow's ``done`` fires one
    zero-delay event after its start, so the behaviour layers run at
    compute-bound speed and the backend's :attr:`intents` stream holds
    the exact flow schedule they emitted.  Replaying a trace through
    this backend reproduces the trace's own schedule verbatim (replay
    schedules each flow at its recorded start time), which is all the
    ns-3/OMNeT/CSV exporters need.  Durations in a record-backend
    capture are degenerate (end == start) by construction.
    """

    name = "record"

    def __init__(self, sim: Simulator, topology: Topology,
                 **_ignored: Any):
        super().__init__(sim, topology)
        self.intents: List[FlowIntent] = []

    def start_flows(self, requests: Sequence[FlowRequest]) -> List[Flow]:
        """Record the wave's intents; complete it from one zero-delay event.

        Completing the whole wave from a single event preserves every
        observable ordering of one event per flow (see
        ``RoutedBackend._complete_local_wave``).
        """
        flows = self._open_flows(requests)
        now = self.sim.now
        intents = self.intents
        active = self.active
        for flow in flows:
            intents.append(FlowIntent(flow.flow_id, now, flow.src, flow.dst,
                                      flow.size, flow.max_rate, flow.metadata))
            active[flow.flow_id] = flow
        if flows:
            self.sim.schedule(0.0, self._complete_wave, flows)
        return flows

    def _complete_wave(self, flows: Sequence[Flow]) -> None:
        active = self.active
        for flow in flows:
            del active[flow.flow_id]
            self._complete(flow)


# -- factory -------------------------------------------------------------------------

#: name → backend class.  ``fluid`` is registered lazily by
#: :func:`make_backend` to keep this module import-light.
BACKENDS: Dict[str, Type[TransportBackend]] = {
    AnalyticBackend.name: AnalyticBackend,
    RecordBackend.name: RecordBackend,
}

#: The names :func:`make_backend` accepts (CLI choices, config checks).
BACKEND_NAMES = ("fluid", "analytic", "record")


def make_backend(name: str, sim: Simulator, topology: Topology,
                 **cfg: Any) -> TransportBackend:
    """Construct the transport backend ``name`` over ``topology``.

    ``cfg`` passes substrate-specific knobs through (``hop_latency``);
    backends ignore knobs they do not have.  Unknown names raise
    ``ValueError`` listing the registry.
    """
    if "fluid" not in BACKENDS:
        from repro.net.network import FlowNetwork

        BACKENDS["fluid"] = FlowNetwork
    backend_cls = BACKENDS.get(name)
    if backend_cls is None:
        known = ", ".join(sorted(set(BACKENDS) | set(BACKEND_NAMES)))
        raise ValueError(f"unknown transport backend {name!r}; known: {known}")
    return backend_cls(sim, topology, **cfg)
