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

Backends register in :data:`BACKENDS` and are constructed through
:func:`make_backend`, the single factory used by
``HadoopCluster``, ``replay_trace`` and the CLI.  Future substrates
(packet-level, external-simulator bridges) plug in the same way.

Orthogonal to the backend choice, the fluid backend has an *engine*
axis (``ClusterSpec.engine``, CLI ``--engine``): ``scalar`` is the
original dict/heap implementation, ``vectorized`` the numpy
re-expression of the same water-filling (see
:mod:`repro.net.vectorized`).  The two are bit-compatible by
construction — same flows, same rates, byte-identical captures — so the
engine only changes how fast a run finishes, never what it records.
Backends without a fluid core accept and ignore the knob.
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

    * :meth:`start_flow` returns a :class:`~repro.net.flow.Flow` whose
      ``done`` signal fires (with the flow as payload) when the backend
      decides the transfer has completed.  Host-local transfers
      (``src == dst``) never touch links and complete at the flow's
      rate cap.
    * :meth:`start_flows` admits a whole synchronous wave of intents in
      one call (array-in, array-out), observationally identical to a
      per-request :meth:`start_flow` loop — same ids, same timings,
      byte-identical captures — but paid for once per wave instead of
      once per flow.  Hot producers (shuffle waves, pipeline hops)
      emit through it.
    * Completion listeners (:meth:`add_listener`) observe every
      finished flow — the capture stage's tap.
    * :meth:`utilisation` reports per-link mean utilisation since t=0;
      cumulative engine counters live on the simulator's telemetry
      registry (``net.*``).

    Subclasses must also keep the observable state probes sample:
    ``active`` (flow_id → Flow), ``link_bytes``, ``_capacities``,
    ``completed_count`` and ``total_bytes``.
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
        # Every backend announces itself on the run's registry so
        # telemetry artefacts (report --telemetry, campaign snapshots)
        # can distinguish fluid from analytic runs.
        registry = sim.telemetry.registry
        registry.gauge("net.backend", backend=self.name).set(1.0)
        #: Flows admitted through a native ``start_flows`` wave.
        self._c_batch_admitted = registry.counter("net.flows_admitted_batched")
        #: Completed flows whose ``done`` signal was never materialised
        #: (fire-and-forget producers; the lazy-signal saving).
        self._c_done_skipped = registry.counter("net.done_signals_skipped")

    # -- the flow interface ----------------------------------------------------

    @abstractmethod
    def start_flow(self, src: Host, dst: Host, size: float,
                   max_rate: Optional[float] = None,
                   metadata: Optional[Dict[str, Any]] = None,
                   parent_span=None) -> Flow:
        """Begin transferring ``size`` bytes from ``src`` to ``dst``."""

    def start_flows(self, requests: Sequence[FlowRequest]) -> List[Flow]:
        """Admit a synchronous wave of flow intents; flows in request order.

        Array-in, array-out: semantically identical to calling
        :meth:`start_flow` once per request, in order — same flow ids,
        same rates, same completion/listener ordering, byte-identical
        captures (the contract ``tests/test_flow_batching.py`` pins).
        Backends override this loop with native bulk paths that admit
        the whole wave in one pass; this default exists so any future
        substrate is batch-correct before it is batch-fast.
        """
        return [self.start_flow(request.src, request.dst, request.size,
                                max_rate=request.max_rate,
                                metadata=request.metadata,
                                parent_span=request.parent_span)
                for request in requests]

    # -- listeners -------------------------------------------------------------

    def add_listener(self, callback: Callable[[Flow], None]) -> None:
        """Register a callback invoked with every completed flow."""
        self._listeners.append(callback)

    def _finish(self, flow: Flow) -> None:
        """Shared completion tail: the done signal, then listeners."""
        done = flow._done
        if done is not None:
            done.fire(flow)
        else:
            # Nobody ever waited: firing would schedule nothing anyway,
            # so skipping the (never-allocated) signal is invisible.
            self._c_done_skipped.value += 1
        for listener in self._listeners:
            listener(flow)

    # -- observation -----------------------------------------------------------

    def throughput_gbps(self) -> float:
        """Aggregate instantaneous rate over active flows, in Gbit/s.

        The probe-facing view; engines with array-resident rates
        override it so sampling never walks the flow set.
        """
        return sum(flow.rate for flow in self.active.values()) * 8 / 1e9

    def utilisation(self, link: Tuple[object, object]) -> float:
        """Mean utilisation of a directed link since t=0 (fraction)."""
        if self.sim.now <= 0:
            return 0.0
        capacity = self._capacities.get(link)
        if capacity is None:
            capacity = self.topology.capacity(*link)
        return self.link_bytes.get(link, 0.0) / (capacity * self.sim.now)


class AnalyticBackend(TransportBackend):
    """Closed-form bottleneck-share approximation of the fluid engine.

    A flow admitted at time *t* gets the rate ``min over its links of
    capacity(link) / active(link)`` — its max-min share *if* every link
    were its bottleneck and the competitor set frozen — capped by
    ``max_rate``, and completes exactly ``size / rate`` later.  Flows
    starting at the same instant form one *wave*: admission is deferred
    to a zero-delay flush so the whole wave sees the same concurrency
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
        if hop_latency < 0:
            raise ValueError(f"hop_latency must be >= 0, got {hop_latency}")
        super().__init__(sim, topology)
        self.hop_latency = hop_latency
        self._flow_ids = flow_id_stream()
        self._link_active: Dict[Tuple[object, object], int] = defaultdict(int)
        self._wave: List[Flow] = []
        self._wave_event = None
        registry = sim.telemetry.registry
        self._tracer = sim.telemetry.tracer
        self._c_flows_started = registry.counter("net.flows_started")
        self._c_flows_completed = registry.counter("net.flows_completed")
        self._c_bytes_completed = registry.counter("net.bytes_completed")
        self._c_waves = registry.counter("net.waves")
        registry.gauge("net.active_flows", fn=lambda: len(self.active))

    # -- flow lifecycle --------------------------------------------------------

    def start_flow(self, src: Host, dst: Host, size: float,
                   max_rate: Optional[float] = None,
                   metadata: Optional[Dict[str, Any]] = None,
                   parent_span=None) -> Flow:
        flow = Flow(src, dst, size, self.sim, max_rate=max_rate,
                    metadata=metadata, flow_id=next(self._flow_ids))
        flow.span_parent = parent_span
        self._c_flows_started.value += 1
        flow.start_time = self.sim.now
        flow.last_update = self.sim.now
        if flow.local or size == 0:
            delay = 0.0 if size == 0 or max_rate is None else size / max_rate
            self.sim.schedule(delay, self._complete, flow)
            return flow
        flow.path = self.topology.path(src, dst)
        flow.links = self.topology.edges_on_path(flow.path)
        for link in flow.links:
            if link not in self._capacities:
                self._capacities[link] = self.topology.capacity(*link)
        if self.hop_latency > 0:
            setup = 1.5 * (2.0 * len(flow.links) * self.hop_latency)
            self.sim.schedule(setup, self._admit, flow)
        else:
            self._admit(flow)
        return flow

    def start_flows(self, requests: Sequence[FlowRequest]) -> List[Flow]:
        """Native wave admission: one pass, one wave flush, one loop.

        Event-order equivalence with the per-flow path: local/zero-size
        completions are grouped by identical delay into one heap event
        (within a group, request order is preserved; across groups the
        times differ, so heap order is by time, not seq), delayed
        admissions group by identical setup latency the same way, and
        the wave-flush event always runs at :data:`_WAVE_PRIORITY`
        after every priority-0 event of the instant — so scheduling it
        mid-loop (per-flow) or once (here) cannot reorder anything.
        """
        sim = self.sim
        now = sim.now
        topology = self.topology
        capacities = self._capacities
        flow_ids = self._flow_ids
        flows: List[Flow] = []
        local_groups: Dict[float, List[Flow]] = {}
        setup_groups: Dict[float, List[Flow]] = {}
        self._c_flows_started.value += len(requests)
        self._c_batch_admitted.value += len(requests)
        for request in requests:
            flow = Flow(request.src, request.dst, request.size, sim,
                        max_rate=request.max_rate, metadata=request.metadata,
                        flow_id=next(flow_ids))
            flow.span_parent = request.parent_span
            flow.start_time = now
            flow.last_update = now
            flows.append(flow)
            if flow.local or flow.size == 0:
                delay = (0.0 if flow.size == 0 or flow.max_rate is None
                         else flow.size / flow.max_rate)
                local_groups.setdefault(delay, []).append(flow)
                continue
            flow.path = topology.path(request.src, request.dst)
            flow.links = topology.edges_on_path(flow.path)
            for link in flow.links:
                if link not in capacities:
                    capacities[link] = topology.capacity(*link)
            if self.hop_latency > 0:
                setup = 1.5 * (2.0 * len(flow.links) * self.hop_latency)
                setup_groups.setdefault(setup, []).append(flow)
            else:
                self._admit(flow)
        for delay, group in local_groups.items():
            if len(group) == 1:
                sim.schedule(delay, self._complete, group[0])
            else:
                sim.schedule(delay, self._complete_wave, group)
        for setup, group in setup_groups.items():
            if len(group) == 1:
                sim.schedule(setup, self._admit, group[0])
            else:
                sim.schedule(setup, self._admit_group, group)
        return flows

    def _admit(self, flow: Flow) -> None:
        flow.last_update = self.sim.now
        self.active[flow.flow_id] = flow
        for link in flow.links:
            self._link_active[link] += 1
        self._wave.append(flow)
        if self._wave_event is None:
            self._wave_event = self.sim.schedule(
                0.0, self._admit_wave, priority=_WAVE_PRIORITY)

    def _admit_group(self, flows: Sequence[Flow]) -> None:
        """Admit a same-setup-latency group from one heap event."""
        for flow in flows:
            self._admit(flow)

    def _complete_wave(self, flows: Sequence[Flow]) -> None:
        """Complete a same-delay local group from one heap event.

        Sequentially completing the group inside one event is
        order-identical to one event per flow: between consecutive
        per-flow completion events of a synchronous burst no other
        event can sit (burst events occupy a contiguous seq range), and
        the resume events their signals schedule land after the burst
        in both shapes.
        """
        for flow in flows:
            self._complete(flow)

    def _admit_wave(self) -> None:
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
            self.sim.schedule(flow.size / rate, self._complete, flow,
                              priority=-1)

    def _complete(self, flow: Flow) -> None:
        if not flow.local and flow.size > 0:
            del self.active[flow.flow_id]
            for link in flow.links:
                self._link_active[link] -= 1
                self.link_bytes[link] += flow.size
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
                flow.start_time, self.sim.now,
                parent=flow.span_parent,
                src=flow.src.name, dst=flow.dst.name, size=flow.size,
                component=flow.metadata.get("component", ""),
                local=flow.local)
        self._finish(flow)


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
        self._flow_ids = flow_id_stream()
        self.intents: List[FlowIntent] = []
        registry = sim.telemetry.registry
        self._c_intents = registry.counter("net.intents_recorded")
        registry.gauge("net.active_flows", fn=lambda: len(self.active))

    def start_flow(self, src: Host, dst: Host, size: float,
                   max_rate: Optional[float] = None,
                   metadata: Optional[Dict[str, Any]] = None,
                   parent_span=None) -> Flow:
        flow = Flow(src, dst, size, self.sim, max_rate=max_rate,
                    metadata=metadata, flow_id=next(self._flow_ids))
        flow.span_parent = parent_span
        flow.start_time = self.sim.now
        flow.last_update = self.sim.now
        self.intents.append(FlowIntent(flow.flow_id, self.sim.now, src, dst,
                                       float(size), max_rate, flow.metadata))
        self._c_intents.value += 1
        self.active[flow.flow_id] = flow
        self.sim.schedule(0.0, self._complete, flow)
        return flow

    def start_flows(self, requests: Sequence[FlowRequest]) -> List[Flow]:
        """Native wave recording: one intent loop, one completion event.

        The per-flow path schedules one zero-delay completion per flow
        at consecutive seqs; completing the whole wave from a single
        event preserves every observable ordering (see
        ``AnalyticBackend._complete_wave``) while the burst costs one
        heap operation instead of N.
        """
        sim = self.sim
        now = sim.now
        flow_ids = self._flow_ids
        intents = self.intents
        active = self.active
        flows: List[Flow] = []
        for request in requests:
            flow = Flow(request.src, request.dst, request.size, sim,
                        max_rate=request.max_rate, metadata=request.metadata,
                        flow_id=next(flow_ids))
            flow.span_parent = request.parent_span
            flow.start_time = now
            flow.last_update = now
            intents.append(FlowIntent(flow.flow_id, now, request.src,
                                      request.dst, float(request.size),
                                      request.max_rate, flow.metadata))
            active[flow.flow_id] = flow
            flows.append(flow)
        self._c_intents.value += len(requests)
        self._c_batch_admitted.value += len(requests)
        if flows:
            sim.schedule(0.0, self._complete_wave, flows)
        return flows

    def _complete_wave(self, flows: Sequence[Flow]) -> None:
        for flow in flows:
            self._complete(flow)

    def _complete(self, flow: Flow) -> None:
        del self.active[flow.flow_id]
        flow.remaining = 0.0
        flow.end_time = self.sim.now
        self.completed_count += 1
        self.total_bytes += flow.size
        self._finish(flow)


# -- factory -------------------------------------------------------------------------

#: name → backend class.  ``fluid`` is registered lazily by
#: :func:`make_backend` to keep this module import-light.
BACKENDS: Dict[str, Type[TransportBackend]] = {
    AnalyticBackend.name: AnalyticBackend,
    RecordBackend.name: RecordBackend,
}

#: The names :func:`make_backend` accepts (CLI choices, config checks).
BACKEND_NAMES = ("fluid", "analytic", "record")

#: The fluid-engine implementations (``ClusterSpec.engine``, CLI
#: ``--engine``): same water-filling, scalar dict/heap vs numpy arrays.
ENGINE_NAMES = ("scalar", "vectorized")


def make_backend(name: str, sim: Simulator, topology: Topology,
                 **cfg: Any) -> TransportBackend:
    """Construct the transport backend ``name`` over ``topology``.

    ``cfg`` passes substrate-specific knobs through (``hop_latency``,
    ``batch_updates`` and ``engine`` for fluid); backends ignore knobs
    they do not have.  Unknown names raise ``ValueError`` listing the
    registry.
    """
    if "fluid" not in BACKENDS:
        from repro.net.network import FlowNetwork

        BACKENDS["fluid"] = FlowNetwork
    backend_cls = BACKENDS.get(name)
    if backend_cls is None:
        known = ", ".join(sorted(set(BACKENDS) | set(BACKEND_NAMES)))
        raise ValueError(f"unknown transport backend {name!r}; known: {known}")
    return backend_cls(sim, topology, **cfg)
