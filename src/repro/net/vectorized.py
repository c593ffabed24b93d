"""The numpy-vectorized fluid engine: dense water-filling and flow state.

Selected with ``engine="vectorized"`` (``ClusterSpec.engine``, CLI
``--engine``), this module re-expresses the fluid engine's two hot
loops as array programs:

* :class:`VectorizedFairShareAllocator` — the max-min water-filling
  allocator over dense numpy state.  Links are interned to integer ids
  exactly like the scalar :class:`~repro.net.fairshare.
  FairShareAllocator`; flows live in recycled *slots* (grow-on-demand
  arrays plus a free list, so add/remove churn never reallocates).

  Array layout::

      _link_caps : float64[L]        capacity per link id
      _inc       : intp[S, P]        per-slot link incidence, storing
                                     ``link_id + 1`` so 0 is the
                                     permanent padding value (short
                                     paths and retired slots are 0)
      _caps      : float64[S]        per-slot rate cap (inf = uncapped
                                     or retired)
      _rates     : float64[S]        the allocation (engine output)
      _n_base    : int64[L + 1]      unfrozen members per link, bin 0
                                     collecting the padding

  A recompute runs *bottleneck rounds*: per round compute every loaded
  link's fair share ``residual / count``, gather each slot's attainable
  level (min of its links' shares and its cap, via one ``take`` over a
  share vector whose slot 0 is ``inf``), take the global min ``B``,
  freeze every slot with ``level <= B * (1 + eps)`` in one masked
  update, and shed the frozen group from the links with a ``bincount``.

  The round arithmetic — one float64 divide per link, one min, the
  threshold product, and ``max(residual - rate * shed, 0)`` — is the
  *same IEEE-754 sequence* the scalar allocator performs since its
  round-grouped refactor, so the two engines produce bit-identical
  rates, not merely close ones.  That is what makes captures
  byte-identical across engines (the differential suite pins both the
  1e-6 contract and, end to end, the byte equality).  Per-link
  delivered-byte totals are not: they are summed in a different order
  (one ``bincount`` per export) and may differ from the scalar
  engine's in the last bits.

* :class:`VectorizedFlowState` — the :class:`~repro.net.network.
  FlowNetwork` side: per-slot remaining bytes, activation sequence
  numbers and per-link delivered-byte accumulators, so progress
  advancement, completion harvesting and the completion-horizon min are
  single array expressions instead of per-flow python loops.  Flow
  objects are only touched at activation and completion; completions
  are reported in activation order, matching the scalar engine's
  insertion-ordered harvest exactly.

Which engine is faster depends on the traffic.  Measured with
``bench_e2e`` on a 1-CPU VM (two 20 s runs per engine), vectorized was
slower on the small-job workloads — ``pipeline_cold`` 1.05–1.10 s
scalar against 1.31–1.35 s, ``model_replay`` 0.54 s against
0.65–0.67 s — and level on the 64-node ``capture_fabric`` rung
(0.75 s against 0.70–0.75 s).  On an 8 GiB / 32-reducer / 64-node
terasort capture it took 4.9–5.4 s against 7.3–7.5 s for scalar, and
at 256..1024-node fabrics and million-flow runs it is the only engine
that finishes in reasonable time.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.net.fairshare import _EPS


class VectorizedFairShareAllocator:
    """Stateful max-min allocator over dense numpy arrays.

    Drop-in for :class:`~repro.net.fairshare.FairShareAllocator`: same
    ``set_capacity`` / ``add_flow`` / ``remove_flow`` / ``rates``
    interface, same validation errors, same counters — plus the
    array-level entry points (:meth:`recompute`, :attr:`rate_array`)
    the vectorized :class:`~repro.net.network.FlowNetwork` drives to
    avoid per-flow dict traffic entirely.
    """

    def __init__(self, capacities: Optional[Mapping[Hashable, float]] = None):
        # Links: interned to dense ids; stored in the incidence matrix
        # as id + 1 so 0 can stay the permanent padding value.
        self._link_ids: Dict[Hashable, int] = {}
        self._link_keys: List[Hashable] = []
        self._link_caps = np.zeros(8, dtype=np.float64)
        self._n_base = np.zeros(9, dtype=np.int64)   # members per id+1; bin 0 = pad
        # Flows: slot-addressed with free-list recycling.
        self._slot_of: Dict[Hashable, int] = {}
        self._key_of: List[Optional[Hashable]] = []
        self._free: List[int] = []
        self._hi = 0                                  # high-water slot count
        self._inc = np.zeros((8, 4), dtype=np.intp)
        self._caps = np.full(8, np.inf, dtype=np.float64)
        self._rates = np.zeros(8, dtype=np.float64)
        self._routed_mask = np.zeros(8, dtype=bool)
        self._routed = 0
        self.recomputes = 0
        self.rounds = 0
        self.allocator_seconds = 0.0
        if capacities:
            for link, capacity in capacities.items():
                self.set_capacity(link, capacity)

    # -- mirror of the scalar interface ---------------------------------------

    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, flow: Hashable) -> bool:
        return flow in self._slot_of

    def has_link(self, link: Hashable) -> bool:
        return link in self._link_ids

    @property
    def num_links(self) -> int:
        return len(self._link_keys)

    def link_key(self, link_id: int) -> Hashable:
        return self._link_keys[link_id]

    def set_capacity(self, link: Hashable, capacity: float) -> None:
        """Register a link (or update its capacity), in bytes/s."""
        if capacity <= 0:
            raise ValueError(f"link {link!r} has non-positive capacity {capacity}")
        link_id = self._link_ids.get(link)
        if link_id is None:
            link_id = len(self._link_keys)
            if link_id == self._link_caps.shape[0]:
                grown = np.zeros(link_id * 2, dtype=np.float64)
                grown[:link_id] = self._link_caps
                self._link_caps = grown
                counts = np.zeros(link_id * 2 + 1, dtype=np.int64)
                counts[:self._n_base.shape[0]] = self._n_base
                self._n_base = counts
            self._link_ids[link] = link_id
            self._link_keys.append(link)
        self._link_caps[link_id] = float(capacity)

    def _new_slot(self) -> int:
        if self._free:
            return self._free.pop()
        slot = self._hi
        if slot == self._inc.shape[0]:
            cap = slot * 2
            inc = np.zeros((cap, self._inc.shape[1]), dtype=np.intp)
            inc[:slot] = self._inc
            self._inc = inc
            for name in ("_caps", "_rates"):
                old = getattr(self, name)
                grown = np.full(cap, np.inf if name == "_caps" else 0.0,
                                dtype=np.float64)
                grown[:slot] = old
                setattr(self, name, grown)
            mask = np.zeros(cap, dtype=bool)
            mask[:slot] = self._routed_mask
            self._routed_mask = mask
            self._grow_hook(cap)
        self._key_of.append(None)
        self._hi += 1
        return slot

    def _grow_hook(self, slot_capacity: int) -> None:
        """Overridden observation point: slot storage was reallocated."""

    def add_flow(self, flow: Hashable, links: Iterable[Hashable],
                 cap: Optional[float] = None) -> int:
        """Add an active flow crossing ``links``; returns its slot."""
        if flow in self._slot_of:
            raise ValueError(f"flow {flow!r} is already active")
        if cap is not None and cap <= 0:
            raise ValueError(f"flow {flow!r} has non-positive cap {cap}")
        link_ids = self._link_ids
        try:
            ids = [link_ids[link] for link in links]
        except KeyError as missing:
            raise KeyError(
                f"unknown link {missing.args[0]!r}; call set_capacity first") from None
        if len(ids) > self._inc.shape[1]:
            widened = np.zeros((self._inc.shape[0], max(len(ids), 2 * self._inc.shape[1])),
                               dtype=np.intp)
            widened[:, :self._inc.shape[1]] = self._inc
            self._inc = widened
        slot = self._new_slot()
        row = self._inc[slot]
        n_base = self._n_base
        for hop, link_id in enumerate(ids):
            row[hop] = link_id + 1
            n_base[link_id + 1] += 1
        if ids:
            self._caps[slot] = float(cap) if cap is not None else np.inf
            self._rates[slot] = 0.0
            self._routed_mask[slot] = True
            self._routed += 1
        else:
            # Linkless (host-local) flow: its rate is fixed at its cap
            # right here, and the slot stays out of the water-filling
            # (cap inf + zero incidence row = level inf, never frozen).
            self._rates[slot] = float(cap) if cap is not None else np.inf
            self._routed_mask[slot] = False
        self._slot_of[flow] = slot
        self._key_of[slot] = flow
        return slot

    def add_flows(self, entries: Sequence[Tuple[Hashable, Sequence[Hashable],
                                                Optional[float]]]) -> List[int]:
        """Bulk :meth:`add_flow` for one admission wave; returns the slots.

        One array grow (doubling from the current capacity, so the
        resulting capacity matches what repeated per-flow growth would
        have produced), one incidence scatter and one ``bincount``
        member update replace N per-flow calls.  Slot assignment order
        is identical to sequential adds — free-list pops first, then
        fresh slots in increasing order — so downstream state
        (:class:`VectorizedFlowState` sequence numbers, harvest order)
        cannot tell the difference.
        """
        slot_of = self._slot_of
        link_ids = self._link_ids
        resolved: List[Tuple[Hashable, List[int], Optional[float]]] = []
        max_width = 0
        # Same-wave flows routinely share their ``links`` object (the
        # caller resolves each (src, dst) pair once), so link-key
        # hashing is paid per distinct path, not per flow.  Keyed by
        # id(): the objects are pinned alive by ``entries`` for the
        # duration of the call.
        ids_memo: Dict[int, List[int]] = {}
        for flow, links, cap in entries:
            if flow in slot_of:
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
            if len(ids) > max_width:
                max_width = len(ids)
            resolved.append((flow, ids, cap))
        if not resolved:
            return []
        if max_width > self._inc.shape[1]:
            widened = np.zeros(
                (self._inc.shape[0], max(max_width, 2 * self._inc.shape[1])),
                dtype=np.intp)
            widened[:, :self._inc.shape[1]] = self._inc
            self._inc = widened
        free = self._free
        fresh = len(resolved) - len(free)
        capacity = self._inc.shape[0]
        if fresh > 0 and self._hi + fresh > capacity:
            while capacity < self._hi + fresh:
                capacity *= 2
            inc = np.zeros((capacity, self._inc.shape[1]), dtype=np.intp)
            inc[:self._hi] = self._inc[:self._hi]
            self._inc = inc
            for name in ("_caps", "_rates"):
                old = getattr(self, name)
                grown = np.full(capacity, np.inf if name == "_caps" else 0.0,
                                dtype=np.float64)
                grown[:old.shape[0]] = old
                setattr(self, name, grown)
            mask = np.zeros(capacity, dtype=bool)
            mask[:self._routed_mask.shape[0]] = self._routed_mask
            self._routed_mask = mask
            self._grow_hook(capacity)
        key_of = self._key_of
        caps_arr = self._caps
        rates = self._rates
        routed_mask = self._routed_mask
        slots: List[int] = []
        flat_slots: List[int] = []
        flat_hops: List[int] = []
        flat_vals: List[int] = []
        routed_added = 0
        for flow, ids, cap in resolved:
            if free:
                slot = free.pop()
            else:
                slot = self._hi
                key_of.append(None)
                self._hi += 1
            slots.append(slot)
            if ids:
                for hop, link_id in enumerate(ids):
                    flat_slots.append(slot)
                    flat_hops.append(hop)
                    flat_vals.append(link_id + 1)
                caps_arr[slot] = float(cap) if cap is not None else np.inf
                rates[slot] = 0.0
                routed_mask[slot] = True
                routed_added += 1
            else:
                rates[slot] = float(cap) if cap is not None else np.inf
                routed_mask[slot] = False
            slot_of[flow] = slot
            key_of[slot] = flow
        if flat_vals:
            self._inc[flat_slots, flat_hops] = flat_vals
            self._n_base += np.bincount(flat_vals,
                                        minlength=self._n_base.shape[0])
        self._routed += routed_added
        return slots

    def remove_flow(self, flow: Hashable) -> int:
        """Remove a completed (or aborted) flow; returns the freed slot."""
        slot = self._slot_of.pop(flow, None)
        if slot is None:
            raise KeyError(f"flow {flow!r} is not active")
        row = self._inc[slot]
        if self._routed_mask[slot]:
            n_base = self._n_base
            for value in row[row != 0].tolist():
                n_base[value] -= 1
            self._routed -= 1
            self._routed_mask[slot] = False
        row[:] = 0
        self._caps[slot] = np.inf
        self._rates[slot] = 0.0
        self._key_of[slot] = None
        self._free.append(slot)
        return slot

    def remove_flows(self, flows: Sequence[Hashable]) -> None:
        """Bulk :meth:`remove_flow` for one completion wave.

        Member counts for all routed rows drop via a single
        ``bincount`` (bin 0 is the incidence pad and must stay
        untouched); freed slots enter the free-list in iteration
        order, exactly as sequential removals would have pushed them.
        """
        slot_of = self._slot_of
        key_of = self._key_of
        routed_mask = self._routed_mask
        slots: List[int] = []
        routed_slots: List[int] = []
        for flow in flows:
            slot = slot_of.pop(flow, None)
            if slot is None:
                raise KeyError(f"flow {flow!r} is not active")
            slots.append(slot)
            if routed_mask[slot]:
                routed_slots.append(slot)
                routed_mask[slot] = False
            key_of[slot] = None
        if routed_slots:
            counts = np.bincount(self._inc[routed_slots].ravel(),
                                 minlength=self._n_base.shape[0])
            counts[0] = 0
            self._n_base -= counts
            self._inc[routed_slots] = 0
            self._routed -= len(routed_slots)
        index = np.asarray(slots, dtype=np.intp)
        self._caps[index] = np.inf
        self._rates[index] = 0.0
        self._free.extend(slots)

    def slot_of(self, flow: Hashable) -> int:
        return self._slot_of[flow]

    # -- the water-filling kernel ----------------------------------------------

    def recompute(self) -> None:
        """Re-waterfill into :attr:`rate_array` (no dict is built)."""
        import time as _time

        started = _time.perf_counter()
        self._waterfill()
        self.recomputes += 1
        self.allocator_seconds += _time.perf_counter() - started

    def rates(self) -> Dict[Hashable, float]:
        """Max-min fair rates of all active flows (dict interface)."""
        self.recompute()
        rate_of = self._rates
        return {flow: float(rate_of[slot])
                for flow, slot in self._slot_of.items()}

    @property
    def rate_array(self) -> np.ndarray:
        """Per-slot allocated rates, valid up to the slot high-water mark."""
        return self._rates

    def _waterfill(self) -> None:
        if not self._routed:
            return
        hi = self._hi
        num_links = len(self._link_keys)
        residual = self._link_caps[:num_links].copy()
        countf = self._n_base[1:num_links + 1].astype(np.float64)
        rates = self._rates
        share_ext = np.empty(num_links + 1, dtype=np.float64)
        # Compact working set: only unfrozen routed slots take part in
        # a round.  Frozen rows read as level=inf (cap inf, incidence
        # row 0) and can never win the min nor re-freeze, so they are
        # inert whether dropped or kept — dropping or retiring them in
        # place changes nothing bitwise.  The incidence is transposed
        # to (path-width, flows): the per-flow level then composes from
        # column-contiguous gathers and *binary* np.minimum calls,
        # which SIMD-vectorize, instead of one min-reduce along axis 1,
        # which does not (min is exact, so the order change is free).
        alive = np.flatnonzero(self._routed_mask[:hi])
        inc_t = np.ascontiguousarray(self._inc[alive].T)
        caps_alive = self._caps[alive]
        buf = np.empty(alive.size, dtype=np.float64)
        unfrozen = alive.size
        rounds = 0
        while unfrozen:
            rounds += 1
            # Fair share of every loaded link; unloaded links and the
            # padding slot 0 read as inf so they never win the min.
            share_ext.fill(np.inf)
            loaded = countf > 0.0
            np.divide(residual, countf, out=share_ext[1:], where=loaded)
            level = share_ext.take(inc_t[0])
            for column in range(1, inc_t.shape[0]):
                np.minimum(level, share_ext.take(inc_t[column], out=buf),
                           out=level)
            np.minimum(level, caps_alive, out=level)
            bottleneck = float(level.min())
            if bottleneck == float("inf"):
                raise RuntimeError(
                    "water-filling stalled with unfrozen flows (allocator bug)")
            # Identical round arithmetic to the scalar engine: same
            # threshold product, same group rate, same bulk shed.
            rate = bottleneck if bottleneck > 0.0 else 0.0
            threshold = bottleneck * (1.0 + _EPS)
            frozen = level <= threshold
            newly = np.flatnonzero(frozen)
            shed = np.bincount(inc_t[:, newly].ravel(),
                               minlength=num_links + 1)[1:]
            countf -= shed
            np.maximum(residual - rate * shed, 0.0, out=residual)
            rates[alive[newly]] = rate
            unfrozen -= int(newly.size)
            if not unfrozen:
                break
            if newly.size * 4 >= level.size:
                # A big freeze: compacting pays for itself.  Finite
                # level > threshold keeps exactly the unfrozen rows
                # (rows retired in earlier rounds sit at level=inf).
                keep = np.isfinite(level) & ~frozen
                alive = alive[keep]
                inc_t = np.ascontiguousarray(inc_t[:, keep])
                caps_alive = caps_alive[keep]
                buf = np.empty(alive.size, dtype=np.float64)
            else:
                # A small freeze: retire the columns in place (scatter
                # O(newly)) rather than copying three arrays O(alive).
                caps_alive[newly] = np.inf
                inc_t[:, newly] = 0
        self.rounds += rounds


class VectorizedFlowState:
    """Array twin of ``FlowNetwork``'s per-flow progress bookkeeping.

    Piggybacks on the allocator's slot lifecycle: the slot a flow gets
    from :meth:`VectorizedFairShareAllocator.add_flow` indexes this
    class's ``remaining`` / ``seq`` arrays and its Flow back-reference
    list.  Delivered bytes accumulate *per slot* during advances (one
    cheap array add) and are folded into the per-link id-indexed
    accumulator only when a flow retires — and, for still-active
    flows, when somebody actually reads ``link_bytes`` — so the hot
    advance path never touches the slot x path-width matrix.
    """

    def __init__(self, allocator: VectorizedFairShareAllocator):
        self.allocator = allocator
        allocator._grow_hook = self._grow
        self._remaining = np.zeros(allocator._inc.shape[0], dtype=np.float64)
        self._seq = np.zeros(allocator._inc.shape[0], dtype=np.int64)
        self._flows: List[Optional[object]] = []
        self._delivered = np.zeros(allocator._inc.shape[0], dtype=np.float64)
        self._link_acc = np.zeros(allocator._n_base.shape[0], dtype=np.float64)
        self._next_seq = 0
        self.links_dirty = False

    def _grow(self, slot_capacity: int) -> None:
        remaining = np.zeros(slot_capacity, dtype=np.float64)
        remaining[:self._remaining.shape[0]] = self._remaining
        self._remaining = remaining
        seq = np.zeros(slot_capacity, dtype=np.int64)
        seq[:self._seq.shape[0]] = self._seq
        self._seq = seq
        delivered = np.zeros(slot_capacity, dtype=np.float64)
        delivered[:self._delivered.shape[0]] = self._delivered
        self._delivered = delivered

    # -- lifecycle -------------------------------------------------------------

    def add(self, flow) -> int:
        slot = self.allocator.add_flow(flow.flow_id, flow.links, flow.max_rate)
        if slot == len(self._flows):
            self._flows.append(flow)
        else:
            self._flows[slot] = flow
        self._remaining[slot] = flow.remaining
        self._delivered[slot] = 0.0
        self._seq[slot] = self._next_seq
        self._next_seq += 1
        return slot

    def remove(self, flow) -> None:
        slot = self.allocator.slot_of(flow.flow_id)
        flow.remaining = float(self._remaining[slot])
        self._remaining[slot] = np.inf
        self._flows[slot] = None
        # Fold this flow's delivered bytes into the per-link
        # accumulator before the allocator zeroes its incidence row.
        # The row is tiny (path width), so a python loop beats any
        # array call here.
        delivered = float(self._delivered[slot])
        if delivered:
            acc = self._grown_acc()
            for link_id in self.allocator._inc[slot].tolist():
                if link_id:
                    acc[link_id] += delivered
            self._delivered[slot] = 0.0
            self.links_dirty = True
        self.allocator.remove_flow(flow.flow_id)

    def add_batch(self, flows: Sequence[object]) -> List[int]:
        """Bulk :meth:`add` for one admission wave.

        The allocator hands back slots in the same order sequential
        adds would, so the sequence numbers assigned here (one
        ``arange``) are indistinguishable from per-flow admission.
        """
        slots = self.allocator.add_flows(
            [(flow.flow_id, flow.links, flow.max_rate) for flow in flows])
        flow_list = self._flows
        for flow, slot in zip(flows, slots):
            if slot == len(flow_list):
                flow_list.append(flow)
            else:
                flow_list[slot] = flow
        index = np.asarray(slots, dtype=np.intp)
        self._remaining[index] = [flow.remaining for flow in flows]
        self._delivered[index] = 0.0
        self._seq[index] = np.arange(self._next_seq,
                                     self._next_seq + len(flows),
                                     dtype=np.int64)
        self._next_seq += len(flows)
        return slots

    def remove_batch(self, flows: Sequence[object]) -> None:
        """Bulk :meth:`remove` for one completion wave.

        The delivered-bytes fold stays a per-flow python loop in wave
        order: float addition is not associative, so regrouping the
        per-link sums would perturb ``link_bytes`` bitwise.  Only the
        allocator teardown (incidence clear, member counts, free-list)
        is batched.
        """
        allocator = self.allocator
        slot_of = allocator._slot_of
        remaining = self._remaining
        delivered_arr = self._delivered
        flow_list = self._flows
        inc = allocator._inc
        for flow in flows:
            slot = slot_of[flow.flow_id]
            flow.remaining = float(remaining[slot])
            remaining[slot] = np.inf
            flow_list[slot] = None
            delivered = float(delivered_arr[slot])
            if delivered:
                acc = self._grown_acc()
                for link_id in inc[slot].tolist():
                    if link_id:
                        acc[link_id] += delivered
                delivered_arr[slot] = 0.0
                self.links_dirty = True
        allocator.remove_flows([flow.flow_id for flow in flows])

    def _grown_acc(self) -> np.ndarray:
        """The per-link accumulator, grown to match the link universe."""
        acc = self._link_acc
        if acc.shape[0] < self.allocator._n_base.shape[0]:
            grown = np.zeros(self.allocator._n_base.shape[0], dtype=np.float64)
            grown[:acc.shape[0]] = acc
            self._link_acc = acc = grown
        return acc

    # -- the vectorized fluid steps --------------------------------------------

    def advance(self, elapsed: float) -> None:
        """Bank ``rate × elapsed`` progress for every active slot.

        Identical per-slot arithmetic to the scalar loop
        (``moved = min(rate * elapsed, remaining)``); retired slots have
        rate 0 so they move nothing.
        """
        allocator = self.allocator
        hi = allocator._hi
        if not hi:
            return
        rates = allocator._rates[:hi]
        remaining = self._remaining[:hi]
        moved = rates * elapsed
        np.minimum(moved, remaining, out=moved)
        remaining -= moved
        self._delivered[:hi] += moved
        self.links_dirty = True

    def horizon(self) -> float:
        """Earliest projected completion over active slots, in seconds."""
        allocator = self.allocator
        hi = allocator._hi
        rates = allocator._rates[:hi]
        quotient = np.full(hi, np.inf, dtype=np.float64)
        np.divide(self._remaining[:hi], rates, out=quotient, where=rates > 0.0)
        return float(quotient.min())

    def finished(self, eps_bytes: float) -> List[object]:
        """Active flows whose remaining bytes dropped to ~0, oldest first."""
        allocator = self.allocator
        hi = allocator._hi
        done = allocator._routed_mask[:hi] & (self._remaining[:hi] <= eps_bytes)
        slots = np.flatnonzero(done)
        if not slots.size:
            return []
        slots = slots[np.argsort(self._seq[slots])]
        flows = self._flows
        return [flows[slot] for slot in slots.tolist()]

    def throughput_bytes(self) -> float:
        """Aggregate instantaneous rate over active slots, bytes/s."""
        allocator = self.allocator
        return float(allocator._rates[:allocator._hi].sum())

    def export_link_bytes(self, out: Dict) -> None:
        """Materialise the per-link byte accumulators into ``out``.

        Retired flows were folded at removal; still-active slots are
        folded here on the fly (one bincount), leaving the persistent
        accumulator untouched so the export stays idempotent.
        """
        allocator = self.allocator
        acc = self._grown_acc()
        hi = allocator._hi
        totals = acc.copy()
        if hi:
            inc = allocator._inc[:hi]
            live = np.bincount(inc.ravel(),
                               weights=np.repeat(self._delivered[:hi],
                                                 inc.shape[1]),
                               minlength=totals.shape[0])
            totals += live
        for link_id, key in enumerate(allocator._link_keys):
            value = totals[link_id + 1]
            if value != 0.0:
                out[key] = float(value)
        self.links_dirty = False
