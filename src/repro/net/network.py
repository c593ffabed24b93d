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
have been applied over a non-zero interval anyway (the trace-equivalence
tests compare against a recompute-per-change reference flow by flow).

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

The per-flow loops (progress, harvest, rate assignment) are held bit
for bit to the dict-keyed reference in
``tests/test_scalar_progress_reference.py``, ``link_bytes`` key order
included, and the allocator to the :func:`~repro.net.fairshare.
max_min_rates` oracle in ``tests/test_fairshare_incremental.py``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.topology import Topology
from repro.net.backend import RoutedBackend
from repro.net.fairshare import FairShareAllocator
from repro.net.flow import Flow
from repro.simkit.core import Event, Simulator

_DONE_EPS_BYTES = 0.5

# Flushes run after every other event of the same timestamp (processes
# resume at priority 0, completion horizons fire at -1), so an entire
# same-instant wave — including starts triggered by completions earlier
# in the timestep — lands in one rate recomputation.
_FLUSH_PRIORITY = 1


class FlowNetwork(RoutedBackend):
    """Flow-level network over a :class:`~repro.cluster.topology.Topology`.

    The reference (and default) :class:`~repro.net.backend.
    TransportBackend`, registered as ``fluid``.

    ``hop_latency`` (seconds per hop, default 0) adds a connection-setup
    delay of 1.5 RTTs before a flow starts moving bytes — the TCP
    handshake cost that dominates the duration of small control flows
    while being invisible on bulk transfers.  The flow's recorded
    duration includes it, as a packet capture's would.

    Same-timestamp changes coalesce into one rate recomputation; see
    the module docstring.
    """

    name = "fluid"

    def __init__(self, sim: Simulator, topology: Topology,
                 hop_latency: float = 0.0):
        # Set before super().__init__: the base class assigns
        # ``link_bytes``, which is a property below whose getter reads
        # the accumulator.
        self._link_bytes: Dict[Any, float] = {}
        # Delivered bytes per allocator link id, and the ids in the
        # order their first bytes arrived (a dict used as an ordered
        # set) — the key order ``link_bytes`` exposes.
        self._link_acc: List[float] = []
        self._link_order: Dict[int, None] = {}
        self._links_dirty = False
        super().__init__(sim, topology, hop_latency)
        self._allocator = FairShareAllocator()
        self._completion_event: Optional[Event] = None
        self._flush_event: Optional[Event] = None
        self._last_progress = -1.0
        # Perf counters live on the simulator's telemetry registry.  The
        # allocator keeps plain running totals; each recompute adds its
        # share to the counters, so networks sharing a registry sum.
        registry = sim.telemetry.registry
        self._c_updates = registry.counter("net.updates_requested")
        self._c_flushes = registry.counter("net.flushes")
        self._c_batched = registry.counter("net.flows_batched")
        self._c_bulk_harvests = registry.counter("net.bulk_harvests")
        self._c_recomputes = registry.counter("net.recomputes")
        self._c_rounds = registry.counter("net.waterfill_rounds")
        self._c_allocator_s = registry.counter("net.allocator_seconds")
        # The allocator totals already added to those three counters.
        self._folded: Tuple[int, int, float] = (0, 0, 0.0)

    # -- observation ---------------------------------------------------------

    @property
    def allocator(self) -> FairShareAllocator:
        """The stateful rate allocator mirroring the active flow set."""
        return self._allocator

    @property
    def link_bytes(self) -> Dict[Any, float]:
        """Per-link delivered bytes, materialised lazily on read.

        Progress is banked into a link-id-indexed accumulator and
        written into this ``{(u, v): bytes}`` dict only when it is
        read, keyed in the order each link first carried bytes.
        """
        if self._links_dirty:
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

    def _intern_link(self, link: Any) -> None:
        """Register a link's capacity and give it a byte accumulator."""
        capacity = self.topology.capacity(*link)
        self._capacities[link] = capacity
        self._allocator.set_capacity(link, capacity)
        self._link_acc.append(0.0)

    def _activate_wave(self, flows: Sequence[Flow]) -> None:
        """Activate a same-instant group: one allocator batch, one update.

        The single :meth:`_request_update` is exact: no simulated time
        passes inside the group, so one request per flow would all
        coalesce into the same flush anyway.
        """
        now = self.sim.now
        active = self.active
        entries = []
        for flow in flows:
            flow.last_update = now
            active[flow.flow_id] = flow
            entries.append((flow.flow_id, flow.links, flow.max_rate))
        for flow, link_ids in zip(flows, self._allocator.add_flows(entries)):
            flow.link_ids = link_ids
        self._request_update()

    # -- fluid dynamics -------------------------------------------------------

    def _request_update(self) -> None:
        """The active flow set changed: batch a recompute into the flush."""
        self._c_updates.value += 1
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
        # Assign rates and take the earliest projected completion in
        # one pass over the active flows.
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

    def _harvest_finished(self, finished: List[Flow]) -> None:
        """Retire ``finished`` (from :meth:`_advance_progress`), in order."""
        if not finished:
            return
        active = self.active
        if len(finished) == 1:
            flow = finished[0]
            del active[flow.flow_id]
            self._allocator.remove_flow(flow.flow_id)
            self._complete(flow)
            return
        # Bulk path: the whole completion wave leaves the allocator in
        # one grouped call, and every flow is noted before any signal
        # or listener fires.
        self._c_bulk_harvests.value += 1
        for flow in finished:
            del active[flow.flow_id]
        self._allocator.remove_flows([flow.flow_id for flow in finished])
        for flow in finished:
            self._note_completed(flow)
        for flow in finished:
            self._finish(flow)
