"""Max-min fair rate allocation (progressive filling / water-filling).

Given a set of flows, each with a list of links (directed edges with a
capacity) and an optional per-flow rate cap, compute the unique max-min
fair allocation: all rates rise together until a constraint binds; the
flows bound by it freeze; repeat on the residual network.

Rate caps model end-host limits such as disk read/write throughput or
application-level throttling (Hadoop's
``shuffle.parallelcopies`` is modelled structurally instead, by capping
concurrent fetches).

Two implementations live here:

* :func:`max_min_rates` — the textbook O(rounds × F × L) reference.
  Every call rebuilds link membership from scratch and scans all
  unfrozen flows per round.  It is kept as the correctness oracle for
  the differential property tests.
* :class:`FairShareAllocator` — the engine's hot-path allocator.  Link
  membership, per-flow link lists and rate caps persist across
  recomputes (``add_flow`` / ``remove_flow`` deltas), links are interned
  to dense integer ids (so the inner loop never hashes topology-node
  tuples), and the water-filling inner loop replaces the per-round
  ``min()`` scans with a lazy heap of link fair shares plus a heap of
  cap values.  The deltas also keep the set of loaded link ids and the
  routed capped flows grouped by cap value (one *cap class* per
  distinct cap), so a recompute's set-up is O(loaded links + distinct
  caps), not O(all links + capped flows); the rounds then cost
  O((F + L) log L).
"""

from __future__ import annotations

import heapq
import time as _time
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

_EPS = 1e-9


def max_min_rates(
    flow_links: Mapping[Hashable, Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    caps: Optional[Mapping[Hashable, float]] = None,
) -> Dict[Hashable, float]:
    """Compute max-min fair rates.

    Parameters
    ----------
    flow_links:
        Maps each flow key to the links it traverses.  A flow with no
        links (host-local transfer) is only limited by its cap, or gets
        ``inf`` if uncapped.
    capacities:
        Capacity of every link appearing in ``flow_links``, in bytes/s.
    caps:
        Optional per-flow maximum rate.

    Returns
    -------
    dict mapping every flow key to its allocated rate in bytes/s.
    """
    caps = caps or {}
    rates: Dict[Hashable, float] = {}
    # Residual capacity and the unfrozen flows crossing each link.
    residual: Dict[Hashable, float] = {}
    link_members: Dict[Hashable, set] = {}
    unfrozen: Dict[Hashable, List[Hashable]] = {}

    for flow, links in flow_links.items():
        links = list(links)
        if not links:
            rates[flow] = caps.get(flow, float("inf"))
            continue
        unfrozen[flow] = links
        for link in links:
            if link not in residual:
                capacity = capacities[link]
                if capacity <= 0:
                    raise ValueError(f"link {link!r} has non-positive capacity {capacity}")
                residual[link] = capacity
                link_members[link] = set()
            link_members[link].add(flow)

    while unfrozen:
        # Fair share currently offered by each loaded link.
        fair: Dict[Hashable, float] = {
            link: residual[link] / len(members)
            for link, members in link_members.items() if members
        }
        # Each flow's attainable level this round.
        level: Dict[Hashable, float] = {}
        for flow, links in unfrozen.items():
            share = min(fair[link] for link in links)
            cap = caps.get(flow)
            if cap is not None:
                share = min(share, cap)
            level[flow] = share
        bottleneck = min(level.values())
        frozen = [flow for flow, value in level.items() if value <= bottleneck * (1 + _EPS)]
        for flow in frozen:
            rate = max(bottleneck, 0.0)
            rates[flow] = rate
            for link in unfrozen[flow]:
                residual[link] = max(residual[link] - rate, 0.0)
                link_members[link].discard(flow)
            del unfrozen[flow]
    return rates


class FairShareAllocator:
    """Stateful max-min allocator: persistent membership, heap inner loop.

    The allocator mirrors the active flow set of a
    :class:`~repro.net.network.FlowNetwork`: links are registered once
    with :meth:`set_capacity`, flows are added and removed as they
    arrive and complete, and :meth:`rates` computes the max-min fair
    allocation of whatever is currently active.  Rates agree with
    :func:`max_min_rates` to within floating-point noise (the
    differential tests pin this at 1e-6 relative).

    Freezing order: when the binding constraint is a flow cap it is
    applied before an equal link fair share, matching the reference's
    single-round grouping of ties.
    """

    __slots__ = ("_link_ids", "_link_keys", "_link_caps", "_members",
                 "_loaded", "_flow_links", "_flow_caps", "_cap_classes",
                 "_linkless", "recomputes", "rounds", "allocator_seconds")

    def __init__(self, capacities: Optional[Mapping[Hashable, float]] = None):
        self._link_ids: Dict[Hashable, int] = {}   # external link key -> dense id
        self._link_keys: List[Hashable] = []       # dense id -> external link key
        self._link_caps: List[float] = []          # id -> capacity, bytes/s
        self._members: List[Set[Hashable]] = []    # id -> flows crossing the link
        self._loaded: Set[int] = set()             # ids with at least one member
        self._flow_links: Dict[Hashable, List[int]] = {}
        self._flow_caps: Dict[Hashable, float] = {}
        # Routed capped flows by cap value: the cap heap holds one entry
        # per distinct cap, not one per flow.
        self._cap_classes: Dict[float, Set[Hashable]] = {}
        # Flows with no links, in admission order (rate = cap or inf).
        self._linkless: Dict[Hashable, None] = {}
        self.recomputes = 0
        self.rounds = 0
        self.allocator_seconds = 0.0
        if capacities:
            for link, capacity in capacities.items():
                self.set_capacity(link, capacity)

    def __len__(self) -> int:
        return len(self._flow_links)

    def __contains__(self, flow: Hashable) -> bool:
        return flow in self._flow_links

    @property
    def link_keys(self) -> List[Hashable]:
        """External link keys indexed by dense link id (read-only view)."""
        return self._link_keys

    def set_capacity(self, link: Hashable, capacity: float) -> None:
        """Register a link (or update its capacity), in bytes/s."""
        if capacity <= 0:
            raise ValueError(f"link {link!r} has non-positive capacity {capacity}")
        link_id = self._link_ids.get(link)
        if link_id is None:
            self._link_ids[link] = len(self._link_caps)
            self._link_keys.append(link)
            self._link_caps.append(float(capacity))
            self._members.append(set())
        else:
            self._link_caps[link_id] = float(capacity)

    def add_flow(self, flow: Hashable, links: Iterable[Hashable],
                 cap: Optional[float] = None) -> List[int]:
        """Add an active flow crossing ``links``, optionally rate-capped.

        Returns the flow's dense link ids, in ``links`` order.  The list
        is shared with the allocator: treat it as read-only.
        """
        return self.add_flows(((flow, links, cap),))[0]

    def add_flows(self, entries: Sequence[Tuple[Hashable, Sequence[Hashable],
                                                Optional[float]]]
                  ) -> List[List[int]]:
        """Add a whole admission wave, in order; ``(flow, links, cap)`` each.

        Returns each flow's link ids, as :meth:`add_flow` does.
        """
        link_ids = self._link_ids
        flow_links = self._flow_links
        members = self._members
        loaded = self._loaded
        # Same-wave flows often share their ``links`` object (the
        # caller resolves each (src, dst) pair once); the resolved id
        # list is read-only, so sharing it between flows is safe.
        ids_memo: Dict[int, List[int]] = {}
        result: List[List[int]] = []
        for flow, links, cap in entries:
            if flow in flow_links:
                raise ValueError(f"flow {flow!r} is already active")
            if cap is not None and cap <= 0:
                raise ValueError(f"flow {flow!r} has non-positive cap {cap}")
            ids = ids_memo.get(id(links))
            if ids is None:
                try:
                    ids = [link_ids[link] for link in links]
                except KeyError as missing:
                    raise KeyError(f"unknown link {missing.args[0]!r}; "
                                   f"call set_capacity first") from None
                ids_memo[id(links)] = ids
            flow_links[flow] = ids
            if ids:
                for link_id in ids:
                    members[link_id].add(flow)
                    loaded.add(link_id)
            else:
                self._linkless[flow] = None
            if cap is not None:
                cap = float(cap)
                self._flow_caps[flow] = cap
                if ids:
                    self._cap_classes.setdefault(cap, set()).add(flow)
            result.append(ids)
        return result

    def remove_flow(self, flow: Hashable) -> None:
        """Remove a completed (or aborted) flow."""
        self.remove_flows((flow,))

    def remove_flows(self, flows: Sequence[Hashable]) -> None:
        """Grouped :meth:`remove_flow` for a completion wave, in order."""
        flow_links = self._flow_links
        flow_caps = self._flow_caps
        members = self._members
        loaded = self._loaded
        for flow in flows:
            ids = flow_links.pop(flow, None)
            if ids is None:
                raise KeyError(f"flow {flow!r} is not active")
            cap = flow_caps.pop(flow, None)
            if not ids:
                del self._linkless[flow]
                continue
            for link_id in ids:
                crossing = members[link_id]
                crossing.discard(flow)
                if not crossing:
                    loaded.discard(link_id)
            if cap is not None:
                capped = self._cap_classes[cap]
                capped.discard(flow)
                if not capped:
                    del self._cap_classes[cap]

    def rates(self) -> Dict[Hashable, float]:
        """Max-min fair rates of all active flows (see :func:`max_min_rates`)."""
        started = _time.perf_counter()
        result = self._compute()
        self.recomputes += 1
        self.allocator_seconds += _time.perf_counter() - started
        return result

    def _compute(self) -> Dict[Hashable, float]:
        flow_caps = self._flow_caps
        members = self._members
        link_caps = self._link_caps
        cap_classes = self._cap_classes
        rates: Dict[Hashable, float] = {}
        for flow in self._linkless:
            rates[flow] = flow_caps.get(flow, float("inf"))
        remaining = len(self._flow_links) - len(self._linkless)
        if not remaining:
            return rates

        # Per-recompute working state: residual capacity and unfrozen
        # member count per loaded link.  The member *sets* are never
        # copied — frozen flows are tracked in one set instead.
        count: Dict[int, int] = {}
        residual: Dict[int, float] = {}
        heap: List[Tuple[float, int]] = []
        for link_id in self._loaded:
            loaded = len(members[link_id])
            count[link_id] = loaded
            residual[link_id] = link_caps[link_id]
            heap.append((link_caps[link_id] / loaded, link_id))
        heapq.heapify(heap)
        # One entry per cap class.  A class is *spent* once every member
        # froze; spent classes are only looked at (and dropped) when
        # their cap would otherwise undercut the link share.
        cap_heap: List[float] = list(cap_classes)
        heapq.heapify(cap_heap)
        frozen: Set[Hashable] = set()
        flow_links = self._flow_links

        # Water-fill in *bottleneck rounds*, grouped exactly like the
        # reference: each round finds the global minimum attainable
        # level B, freezes every unfrozen flow whose level is within
        # _EPS of B at rate max(B, 0), and absorbs the whole group in
        # one bulk per-link update (``residual - rate * shed``).
        while remaining:
            self.rounds += 1
            # The valid heap minimum: an entry is stale if its link lost
            # members or capacity since it was pushed (shares only rise,
            # so stale entries surface first and are discarded).
            link_share = float("inf")
            while heap:
                share, candidate = heap[0]
                loaded = count[candidate]
                if loaded == 0 or residual[candidate] / loaded != share:
                    heapq.heappop(heap)
                    continue
                link_share = share
                break
            # The smallest cap of a class with an unfrozen member, when
            # it undercuts the link share (otherwise the link binds).
            bottleneck = link_share
            while cap_heap and cap_heap[0] < link_share:
                if frozen.issuperset(cap_classes[cap_heap[0]]):
                    heapq.heappop(cap_heap)
                    continue
                bottleneck = cap_heap[0]
                break
            if bottleneck == float("inf"):
                raise RuntimeError(
                    "water-filling stalled with unfrozen flows (allocator bug)")
            rate = bottleneck if bottleneck > 0.0 else 0.0
            threshold = bottleneck * (1.0 + _EPS)
            newly: List[Hashable] = []
            while cap_heap and cap_heap[0] <= threshold:
                for capped in cap_classes[heapq.heappop(cap_heap)]:
                    if capped not in frozen:
                        frozen.add(capped)
                        newly.append(capped)
            while heap and heap[0][0] <= threshold:
                share, candidate = heapq.heappop(heap)
                loaded = count[candidate]
                if loaded == 0 or residual[candidate] / loaded != share:
                    continue  # stale entry below the threshold: discard
                for flow in members[candidate]:
                    if flow not in frozen:
                        frozen.add(flow)
                        newly.append(flow)
            tally: Dict[int, int] = {}
            for flow in newly:
                rates[flow] = rate
                for link_id in flow_links[flow]:
                    tally[link_id] = tally.get(link_id, 0) + 1
            remaining -= len(newly)
            for link_id, shed in tally.items():
                left = count[link_id] - shed
                count[link_id] = left
                spare = residual[link_id] - rate * shed
                residual[link_id] = spare if spare > 0.0 else 0.0
                if left > 0:
                    heapq.heappush(heap, (residual[link_id] / left, link_id))
        return rates


def _link_loads(
    rates: Mapping[Hashable, float],
    flow_links: Mapping[Hashable, Sequence[Hashable]],
) -> Dict[Hashable, float]:
    """Per-link offered load.  Rate values may be python floats or
    numpy scalars (coerced), and flows absent from ``rates`` (e.g. not
    yet admitted) simply contribute nothing."""
    load: Dict[Hashable, float] = {}
    for flow, links in flow_links.items():
        rate = rates.get(flow)
        if rate is None or not links:
            continue
        rate = float(rate)
        for link in links:
            load[link] = load.get(link, 0.0) + rate
    return load


def allocation_is_feasible(
    rates: Mapping[Hashable, float],
    flow_links: Mapping[Hashable, Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    tolerance: float = 1e-6,
) -> bool:
    """Check that no link's capacity is exceeded (validation helper).

    Rate values are coerced through ``float`` (numpy scalars work),
    flows missing from ``rates`` are skipped, and the comparison allows
    ``tolerance`` relative slack so the last-bit noise between
    independently computed allocations never flips the verdict.
    """
    load = _link_loads(rates, flow_links)
    return all(load[link] <= float(capacities[link]) * (1.0 + tolerance)
               for link in load)


def bottlenecked_flows(
    rates: Mapping[Hashable, float],
    flow_links: Mapping[Hashable, Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    caps: Optional[Mapping[Hashable, float]] = None,
    tolerance: float = 1e-6,
) -> Dict[Hashable, bool]:
    """For each flow, whether it is bottlenecked (link saturated or cap hit).

    Max-min fairness requires *every* flow to be bottlenecked somewhere;
    the property tests assert this invariant.  Like
    :func:`allocation_is_feasible`, rates are coerced through
    ``float``, comparisons are tolerance-aware, and flows absent from
    ``rates`` are left out of the result.
    """
    caps = caps or {}
    load = _link_loads(rates, flow_links)
    result: Dict[Hashable, bool] = {}
    for flow, links in flow_links.items():
        if flow not in rates:
            continue
        rate = float(rates[flow])
        cap = caps.get(flow)
        if cap is not None and rate >= float(cap) * (1.0 - tolerance):
            result[flow] = True
            continue
        result[flow] = any(
            load[link] >= float(capacities[link]) * (1.0 - tolerance)
            for link in links)
        if not links:
            # Uncapped local flow: rate is inf, trivially "bottlenecked".
            result[flow] = True
    return result
