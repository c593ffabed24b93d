"""The fluid network simulator: flows over a topology, max-min shared.

Mechanics
---------
The network keeps the set of active flows.  Whenever the set changes
(a flow starts or completes) it:

1. advances every active flow's ``remaining`` by ``rate × elapsed``
   and, in the same pass, collects the flows that finished,
2. recomputes all rates with the stateful
   :class:`~repro.net.fairshare.FairShareAllocator`, assigning them
   and taking the earliest projected finish in one pass,
3. schedules one completion event at that finish.

Same-timestamp batching
-----------------------
Hadoop emits flows in synchronized waves — a reducer's shuffle
slow-start, the hops of a replication pipeline, every fetcher waking on
the same map completion.  Rather than recomputing rates once per flow,
an update *request* schedules a single zero-delay **flush** event at a
late intra-timestep priority; every further start/completion at the
same instant coalesces into it, so a 100-fetch wave costs one rate
recomputation.  This is semantics-preserving: no simulated time passes
between the requests and the flush, so intermediate rates would never
have been applied over a non-zero interval anyway.  Constructing the
network with ``batch_updates=False`` restores the legacy
recompute-per-change behaviour (the trace-equivalence tests compare the
two modes flow-by-flow).

Host-local transfers (``src == dst``) never touch links; they complete
at the flow's rate cap (typically the disk rate) and are flagged
``local`` so the capture stage can exclude them, exactly as a NIC-level
``tcpdump`` would never see loopback DataNode traffic.

Per-link delivered bytes are banked on every advance into an
accumulator indexed by the allocator's dense link ids (each flow
carries its id list, so the hot loop never hashes ``(u, v)`` tuples),
and become the ``{(u, v): bytes}`` dict :attr:`FlowNetwork.link_bytes`
only when it is read — the utilisation figures of replay reports and
experiment E11.  Performance counters for the whole fluid engine live
on the simulator's telemetry registry (``net.*``).

Engines
-------
The fluid dynamics have two interchangeable implementations selected by
``engine``: ``scalar`` (per-flow Python loops over the active dict,
with a heap water-fill) and ``vectorized``
(:mod:`repro.net.vectorized`), which holds rates, remaining bytes and
link incidence in dense numpy arrays so progress advancement,
completion harvesting and water-filling are array expressions.  Both
perform the identical IEEE-754 round arithmetic, so a capture is
byte-identical across engines.  Per-link delivered-byte totals
(:attr:`FlowNetwork.link_bytes`) are summed in a different order and
may differ in the last bits.  The differential suite in
``tests/test_fairshare_incremental.py`` enforces both;
``tests/test_scalar_progress_reference.py`` holds the scalar loops to
their dict-keyed reference bit for bit, ``link_bytes`` key order
included.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.topology import Host, Topology
from repro.net.backend import ENGINE_NAMES, FlowRequest, TransportBackend
from repro.net.fairshare import FairShareAllocator
from repro.net.flow import Flow, flow_id_stream
from repro.simkit.core import Event, Simulator

_DONE_EPS_BYTES = 0.5

# Flushes run after every other event of the same timestamp (processes
# resume at priority 0, completion horizons fire at -1), so an entire
# same-instant wave — including starts triggered by completions earlier
# in the timestep — lands in one rate recomputation.
_FLUSH_PRIORITY = 1


class FlowNetwork(TransportBackend):
    """Flow-level network over a :class:`~repro.cluster.topology.Topology`.

    The reference (and default) :class:`~repro.net.backend.
    TransportBackend`, registered as ``fluid``.

    ``hop_latency`` (seconds per hop, default 0) adds a connection-setup
    delay of 1.5 RTTs before a flow starts moving bytes — the TCP
    handshake cost that dominates the duration of small control flows
    while being invisible on bulk transfers.  The flow's recorded
    duration includes it, as a packet capture's would.

    ``batch_updates`` (default True) enables same-timestamp coalescing
    of rate recomputations; see the module docstring.

    ``engine`` selects the fluid-dynamics implementation: ``scalar``
    (default) or ``vectorized`` (numpy; see the module docstring).
    """

    name = "fluid"

    def __init__(self, sim: Simulator, topology: Topology,
                 hop_latency: float = 0.0, batch_updates: bool = True,
                 engine: str = "scalar"):
        if hop_latency < 0:
            raise ValueError(f"hop_latency must be >= 0, got {hop_latency}")
        if engine not in ENGINE_NAMES:
            known = ", ".join(ENGINE_NAMES)
            raise ValueError(f"unknown fluid engine {engine!r}; known: {known}")
        self.engine = engine
        # Set before super().__init__: the base class assigns
        # ``link_bytes``, which is a property below and whose getter
        # consults ``_vec`` and the scalar accumulator.
        self._vec = None
        self._link_bytes: Dict[Any, float] = {}
        # Scalar engine: delivered bytes per allocator link id, and the
        # ids in the order their first bytes arrived (a dict used as an
        # ordered set) — the key order ``link_bytes`` exposes.
        self._link_acc: List[float] = []
        self._link_order: Dict[int, None] = {}
        self._links_dirty = False
        super().__init__(sim, topology)
        self.hop_latency = hop_latency
        self.batch_updates = batch_updates
        # Per-network flow ids: simulations are reproducible no matter
        # how many flows earlier clusters in this process created.
        self._flow_ids = flow_id_stream()
        if engine == "vectorized":
            from repro.net.vectorized import (
                VectorizedFairShareAllocator,
                VectorizedFlowState,
            )

            self._allocator = VectorizedFairShareAllocator()
            self._vec = VectorizedFlowState(self._allocator)
        else:
            self._allocator = FairShareAllocator()
        self._completion_event: Optional[Event] = None
        self._flush_event: Optional[Event] = None
        self._last_progress = -1.0
        # Perf counters live on the simulator's telemetry registry.  The
        # allocator keeps plain running totals; each recompute adds its
        # share to the counters, so networks sharing a registry sum.
        self.telemetry = sim.telemetry
        registry = self.telemetry.registry
        self._tracer = self.telemetry.tracer
        self._c_updates = registry.counter("net.updates_requested")
        self._c_flushes = registry.counter("net.flushes")
        self._c_batched = registry.counter("net.flows_batched")
        self._c_bulk_harvests = registry.counter("net.bulk_harvests")
        self._c_flows_started = registry.counter("net.flows_started")
        self._c_flows_completed = registry.counter("net.flows_completed")
        self._c_bytes_completed = registry.counter("net.bytes_completed")
        registry.gauge("net.active_flows", fn=lambda: len(self.active))
        self._c_recomputes = registry.counter("net.recomputes")
        self._c_rounds = registry.counter("net.waterfill_rounds")
        self._c_allocator_s = registry.counter("net.allocator_seconds")
        # The allocator totals already added to those three counters.
        self._folded: Tuple[int, int, float] = (0, 0, 0.0)
        registry.gauge("net.engine", engine=self.engine).set(1.0)

    # -- observation ---------------------------------------------------------

    @property
    def allocator(self):
        """The stateful rate allocator mirroring the active flow set.

        A :class:`~repro.net.fairshare.FairShareAllocator` or its
        vectorized twin, depending on ``engine``.
        """
        return self._allocator

    @property
    def link_bytes(self) -> Dict[Any, float]:
        """Per-link delivered bytes, materialised lazily on read.

        Both engines bank progress into link-id-indexed accumulators and
        write them into this ``{(u, v): bytes}`` dict only when it is
        read.  The scalar engine keeps keys in the order each link first
        carried bytes; the vectorized engine in link-id order.
        """
        vec = self._vec
        if vec is not None:
            if vec.links_dirty:
                vec.export_link_bytes(self._link_bytes)
        elif self._links_dirty:
            out = self._link_bytes
            keys = self._allocator.link_keys
            acc = self._link_acc
            for link_id in self._link_order:
                out[keys[link_id]] = acc[link_id]
            self._links_dirty = False
        return self._link_bytes

    @link_bytes.setter
    def link_bytes(self, value: Dict[Any, float]) -> None:
        self._link_bytes = value

    # -- flow lifecycle -------------------------------------------------------

    def start_flow(self, src: Host, dst: Host, size: float,
                   max_rate: Optional[float] = None,
                   metadata: Optional[Dict[str, Any]] = None,
                   parent_span=None) -> Flow:
        """Begin transferring ``size`` bytes from ``src`` to ``dst``.

        Returns the :class:`Flow`; its ``done`` signal fires (with the
        flow as payload) at the fluid completion time.  ``parent_span``
        attaches the flow's telemetry span (emitted on completion when
        tracing is enabled) under a lifecycle span.
        """
        flow = Flow(src, dst, size, self.sim, max_rate=max_rate,
                    metadata=metadata, flow_id=next(self._flow_ids))
        flow.span_parent = parent_span
        self._c_flows_started.value += 1
        flow.start_time = self.sim.now
        flow.last_update = self.sim.now
        if flow.local or size == 0:
            delay = 0.0 if size == 0 or max_rate is None else size / max_rate
            self.sim.schedule(delay, self._complete_local, flow)
            return flow
        flow.path = self.topology.path(src, dst)
        flow.links = self.topology.edges_on_path(flow.path)
        for link in flow.links:
            if link not in self._capacities:
                self._intern_link(link)
        if self.hop_latency > 0:
            setup = 1.5 * (2.0 * len(flow.links) * self.hop_latency)
            self.sim.schedule(setup, self._activate, flow)
        else:
            self._activate(flow)
        return flow

    def start_flows(self, requests: Sequence[FlowRequest]) -> List[Flow]:
        """Native wave admission: one pass, one allocator batch, one flush.

        Paths and links are resolved (and capacities interned) for the
        whole wave in a single loop; every zero-setup non-local flow is
        activated through one bulk allocator insertion and exactly one
        coalesced rate-update request.  Event-order equivalence with a
        per-request :meth:`start_flow` loop:

        * flow ids are drawn in request order from the same stream;
        * local/zero-size completions group by *identical* delay into
          one heap event each (group-internal order is request order;
          distinct delays mean distinct fire times, so heap order never
          falls back to sequence numbers);
        * the flush runs at ``_FLUSH_PRIORITY`` after every priority-0
          event of the instant, so whether it was scheduled at the
          first activation (per-flow path) or after the loop (here) is
          unobservable;
        * with ``hop_latency`` the delayed activations group by
          identical setup time, again preserving request order.

        Captures are therefore byte-identical across the two admission
        paths (``tests/test_flow_batching.py`` pins this per backend ×
        engine).
        """
        sim = self.sim
        now = sim.now
        topology = self.topology
        capacities = self._capacities
        flow_ids = self._flow_ids
        hop_latency = self.hop_latency
        flows: List[Flow] = []
        local_groups: Dict[float, List[Flow]] = {}
        setup_groups: Dict[float, List[Flow]] = {}
        ready: List[Flow] = []
        # Wave-level (src, dst) memo: a shuffle or bench wave admits
        # many flows over few distinct host pairs, so each pair pays
        # for path lookup, edge listing and capacity interning once per
        # wave instead of once per flow.  The links list is shared
        # between same-pair flows — it is read-only downstream (both
        # allocators derive their own id lists from it).
        resolved_pairs: Dict[Any, Any] = {}
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
            pair = (request.src, request.dst)
            resolved = resolved_pairs.get(pair)
            if resolved is None:
                path = topology.path(request.src, request.dst)
                links = topology.edges_on_path(path)
                for link in links:
                    if link not in capacities:
                        self._intern_link(link)
                resolved = (path, links)
                resolved_pairs[pair] = resolved
            flow.path, flow.links = resolved
            if hop_latency > 0:
                setup = 1.5 * (2.0 * len(flow.links) * hop_latency)
                setup_groups.setdefault(setup, []).append(flow)
            else:
                ready.append(flow)
        for delay, group in local_groups.items():
            if len(group) == 1:
                sim.schedule(delay, self._complete_local, group[0])
            else:
                sim.schedule(delay, self._complete_local_wave, group)
        for setup, group in setup_groups.items():
            if len(group) == 1:
                sim.schedule(setup, self._activate, group[0])
            else:
                sim.schedule(setup, self._activate_wave, group)
        if ready:
            self._activate_wave(ready)
        return flows

    def _intern_link(self, link: Any) -> None:
        """Register a link's capacity and give it a byte accumulator."""
        capacity = self.topology.capacity(*link)
        self._capacities[link] = capacity
        self._allocator.set_capacity(link, capacity)
        self._link_acc.append(0.0)

    def _activate(self, flow: Flow) -> None:
        flow.last_update = self.sim.now
        self.active[flow.flow_id] = flow
        if self._vec is not None:
            self._vec.add(flow)
        else:
            flow.link_ids = self._allocator.add_flow(
                flow.flow_id, flow.links, flow.max_rate)
        self._request_update()

    def _activate_wave(self, flows: Sequence[Flow]) -> None:
        """Activate a same-instant group: one allocator batch, one update.

        The single :meth:`_request_update` is exact: no simulated time
        passes inside the wave, so the per-flow path's intermediate
        update requests all coalesce into the same flush anyway.
        """
        now = self.sim.now
        active = self.active
        if self._vec is not None:
            for flow in flows:
                flow.last_update = now
                active[flow.flow_id] = flow
            self._vec.add_batch(flows)
        else:
            entries = []
            for flow in flows:
                flow.last_update = now
                active[flow.flow_id] = flow
                entries.append((flow.flow_id, flow.links, flow.max_rate))
            for flow, link_ids in zip(flows,
                                      self._allocator.add_flows(entries)):
                flow.link_ids = link_ids
        self._request_update()

    def _complete_local_wave(self, flows: Sequence[Flow]) -> None:
        """Complete a same-delay local group from one heap event.

        One event for the group instead of one per flow; completing
        them back to back inside the event preserves every observable
        ordering because the per-flow events would have been seq-
        adjacent at this (time, priority) anyway, and the resume events
        their done-signals schedule land after the group in both
        shapes.
        """
        for flow in flows:
            self._complete_local(flow)

    def _complete_local(self, flow: Flow) -> None:
        flow.remaining = 0.0
        flow.end_time = self.sim.now
        flow.rate = 0.0
        self.completed_count += 1
        self.total_bytes += flow.size
        self._note_completed(flow)
        self._finish(flow)

    def _note_completed(self, flow: Flow) -> None:
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

    # -- fluid dynamics -------------------------------------------------------

    def _request_update(self) -> None:
        """The active flow set changed: recompute now, or batch it."""
        self._c_updates.value += 1
        if not self.batch_updates:
            self._update_rates()
            return
        self._schedule_flush()

    def _schedule_flush(self) -> None:
        if self._flush_event is not None:
            self._c_batched.value += 1
            return
        self._flush_event = self.sim.schedule(
            0.0, self._flush, priority=_FLUSH_PRIORITY)

    def _flush(self) -> None:
        self._flush_event = None
        self._c_flushes.value += 1
        self._update_rates()

    def _complete_due(self) -> None:
        """The scheduled completion horizon was reached."""
        self._completion_event = None
        if not self.batch_updates:
            self._update_rates()
            return
        # Harvest *before* the flush so completion signals fire first
        # and any same-instant reactions (a dependent transfer, the next
        # shuffle fetch) join this timestep's single recomputation.
        self._harvest_finished(self._advance_progress())
        self._schedule_flush()

    def _advance_progress(self) -> List[Flow]:
        """Bank ``rate × elapsed`` for every active flow, up to now.

        Returns the active flows whose remaining bytes are within
        ``_DONE_EPS_BYTES`` of zero, oldest first — the completion
        harvest, taken in the same pass when time moved.
        """
        now = self.sim.now
        vec = self._vec
        if vec is not None:
            if now != self._last_progress:
                # A uniform elapsed is exact here: every activation
                # triggers a same-instant flush, so at this point every
                # flow either advanced at ``_last_progress`` or joined
                # later with rate 0 (rates are only assigned by the
                # post-advance recompute) — for the latecomers
                # ``rate × elapsed`` is 0 regardless.
                vec.advance(now - self._last_progress)
                self._last_progress = now
            return vec.finished(_DONE_EPS_BYTES)
        if now == self._last_progress:
            # Already advanced at this instant; every flow activated
            # since then had its ``last_update`` pinned to ``now``, so
            # only the harvest scan is left to do.
            return [flow for flow in self.active.values()
                    if flow.remaining <= _DONE_EPS_BYTES]
        self._last_progress = now
        # Bank by dense link id: no per-link tuple hashing here.  The
        # sums run per link in active-flow order, exactly as the
        # ``{(u, v): bytes}`` dict would, so ``link_bytes`` is
        # bit-identical to accumulating into it directly.
        acc = self._link_acc
        finished: List[Flow] = []
        for flow in self.active.values():
            rate = flow.rate
            if rate > 0:
                elapsed = now - flow.last_update
                if elapsed > 0:
                    # min(rate × elapsed, remaining), spelled inline.
                    moved = rate * elapsed
                    remaining = flow.remaining
                    if remaining < moved:
                        moved = remaining
                    flow.remaining = remaining - moved
                    for link_id in flow.link_ids:
                        acc[link_id] += moved
                    if not flow.has_moved:
                        self._note_first_move(flow)
            flow.last_update = now
            if flow.remaining <= _DONE_EPS_BYTES:
                finished.append(flow)
        self._links_dirty = True
        return finished

    def _note_first_move(self, flow: Flow) -> None:
        """Fix where a flow's not-yet-seen links enter ``link_bytes``."""
        flow.has_moved = True
        order = self._link_order
        for link_id in flow.link_ids:
            order.setdefault(link_id)

    def _update_rates(self) -> None:
        """:meth:`_advance_and_reschedule`, then add the allocator's new
        work to the registry counters, so every network on a registry
        (and every worker registry merged into it) adds up."""
        self._advance_and_reschedule()
        allocator = self._allocator
        recomputes, rounds, seconds = self._folded
        self._folded = (allocator.recomputes, allocator.rounds,
                        allocator.allocator_seconds)
        self._c_recomputes.value += allocator.recomputes - recomputes
        self._c_rounds.value += allocator.rounds - rounds
        self._c_allocator_s.value += allocator.allocator_seconds - seconds

    def _advance_and_reschedule(self) -> None:
        self._harvest_finished(self._advance_progress())
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if not self.active:
            return
        if self._vec is not None:
            # Rates live in the allocator's array; Flow.rate is not
            # maintained per flow (nothing outside the scalar paths
            # reads it — probes go through ``throughput_gbps``).
            self._allocator.recompute()
            horizon = self._vec.horizon()
        else:
            # Assign rates and take the earliest projected completion
            # in one pass over the active flows.
            rates = self._allocator.rates()
            horizon = float("inf")
            for flow_id, flow in self.active.items():
                rate = rates[flow_id]
                flow.rate = rate
                if rate > 0:
                    finish = flow.remaining / rate
                    if finish < horizon:
                        horizon = finish
        if horizon == float("inf"):
            raise RuntimeError(
                "active flows exist but none can make progress (zero rates)")
        self._completion_event = self.sim.schedule(
            horizon, self._complete_due, priority=-1)

    def throughput_gbps(self) -> float:
        if self._vec is not None:
            return self._vec.throughput_bytes() * 8 / 1e9
        return super().throughput_gbps()

    def _harvest_finished(self, finished: List[Flow]) -> None:
        """Retire ``finished`` (from :meth:`_advance_progress`), in order."""
        if not finished:
            return
        vec = self._vec
        now = self.sim.now
        active = self.active
        if len(finished) == 1:
            flow = finished[0]
            del active[flow.flow_id]
            if vec is not None:
                vec.remove(flow)
            else:
                self._allocator.remove_flow(flow.flow_id)
            flow.remaining = 0.0
            flow.rate = 0.0
            flow.end_time = now
            self.completed_count += 1
            self.total_bytes += flow.size
            self._note_completed(flow)
            self._finish(flow)
            return
        # Bulk path: the whole completion wave leaves the allocator in
        # one grouped call.  The vectorized removal folds delivered
        # bytes in the same per-flow order as sequential removes, so
        # nothing observable moves.
        self._c_bulk_harvests.value += 1
        for flow in finished:
            del active[flow.flow_id]
        if vec is not None:
            vec.remove_batch(finished)
        else:
            self._allocator.remove_flows(
                [flow.flow_id for flow in finished])
        self.completed_count += len(finished)
        for flow in finished:
            flow.remaining = 0.0
            flow.rate = 0.0
            flow.end_time = now
            self.total_bytes += flow.size
            self._note_completed(flow)
        for flow in finished:
            self._finish(flow)
