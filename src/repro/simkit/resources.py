"""Counted resources and FIFO stores for simkit processes.

These mirror the two synchronisation primitives the Hadoop substrate
needs: :class:`Resource` models container/slot capacity on a node
(bounded concurrency) and :class:`Store` models producer/consumer
queues (e.g. the shuffle fetch queue inside a reducer).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List

from repro.simkit.core import Signal, SimulationError, Simulator


class Resource:
    """A counted resource with FIFO granting.

    Processes ``yield resource.acquire()`` and must call
    :meth:`release` exactly once per successful acquisition::

        grant = yield resource.acquire()
        try:
            ...
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Signal] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    @property
    def queued(self) -> int:
        """Number of acquisition requests currently waiting."""
        return len(self._waiters)

    def acquire(self) -> Signal:
        """Return a signal that fires once a unit is granted."""
        grant = self.sim.signal(name=f"{self.name}.grant")
        if self._in_use < self.capacity:
            self._in_use += 1
            grant.fire(self)
        else:
            self._waiters.append(grant)
        return grant

    def release(self) -> None:
        """Return one unit; hands it straight to the oldest waiter."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            grant = self._waiters.popleft()
            grant.fire(self)
        else:
            self._in_use -= 1


class Store:
    """Unbounded FIFO queue with blocking ``get``.

    ``put`` never blocks; ``yield store.get()`` resumes with the oldest
    item once one is available.  Items are matched to getters in strict
    FIFO order on both sides, which keeps simulations deterministic.
    """

    def __init__(self, sim: Simulator, name: str = "store"):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Signal] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().fire(item)
        else:
            self._items.append(item)

    def peek(self) -> Any:
        """The oldest queued item without removing it (``None`` if empty).

        Lets synchronous consumers inspect what :meth:`get` would
        deliver — e.g. a shuffle wave deciding whether the next map
        output can join a batched admission or needs the yielding
        recovery path.
        """
        return self._items[0] if self._items else None

    def get(self) -> Signal:
        """Return a signal firing with the next item."""
        ticket = self.sim.signal(name=f"{self.name}.get")
        if self._items:
            ticket.fire(self._items.popleft())
        else:
            self._getters.append(ticket)
        return ticket

    def drain(self) -> List[Any]:
        """Remove and return all queued items without waking getters."""
        items = list(self._items)
        self._items.clear()
        return items
