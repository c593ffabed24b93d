"""Event loop, events, signals and generator-based processes.

The kernel is intentionally close to the classic event-list design:
a binary heap of ``(time, priority, seq, event)`` tuples, each event
carrying a callback.  ``seq`` is unique, so heap comparisons never
reach the event and run entirely in C (no Python ``__lt__``).  On top
of that sits a small coroutine layer: a :class:`Process` wraps a
generator that ``yield``s *waitables* (:class:`Timeout`,
:class:`Signal`, or another :class:`Process`) and is resumed with the
waitable's payload when it fires.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.obs.telemetry import Telemetry


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, re-firing, ...)."""


class Interrupt(Exception):
    """Thrown into a process that is interrupted while waiting.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at` and may be cancelled before they fire.
    Cancellation is O(1): the event is flagged and skipped when popped.
    The owning simulator keeps live/cancelled counts so the heap can be
    compacted lazily once cancelled entries dominate it.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled",
                 "sim", "popped")

    def __init__(self, time: float, priority: int, seq: int,
                 callback: Callable[..., Any], args: Tuple[Any, ...],
                 sim: Optional["Simulator"] = None):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.sim = sim
        self.popped = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.sim is not None and not self.popped:
            self.sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, prio={self.priority}, seq={self.seq}, {state})"


class _Waitable:
    """Base class for things a process may ``yield`` on."""

    def _add_waiter(self, process: "Process") -> None:
        raise NotImplementedError

    def _remove_waiter(self, process: "Process") -> None:
        raise NotImplementedError


class Timeout(_Waitable):
    """Resume the waiting process after a fixed delay."""

    __slots__ = ("sim", "delay", "value", "_event", "_process")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.delay = delay
        self.value = value
        self._event: Optional[Event] = None
        self._process: Optional[Process] = None

    def _add_waiter(self, process: "Process") -> None:
        self._process = process
        self._event = self.sim.schedule(self.delay, self._fire)

    def _remove_waiter(self, process: "Process") -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self._process = None

    def _fire(self) -> None:
        process, self._process = self._process, None
        self._event = None
        if process is not None:
            process._resume(self.value)


class Signal(_Waitable):
    """A one-shot broadcast event that processes can wait on.

    ``fire(payload)`` wakes every waiter with ``payload``; waiters that
    arrive after the signal fired resume immediately (the signal stays
    "set", like an asyncio future).  ``fail(exc)`` wakes waiters by
    throwing ``exc`` into them.
    """

    __slots__ = ("sim", "name", "_fired", "_payload", "_exception", "_waiters")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._fired = False
        self._payload: Any = None
        self._exception: Optional[BaseException] = None
        # The waiter list is allocated on first registration: most
        # signals in a large run (flow completions nobody waits on)
        # fire with zero waiters, so an empty list would be pure
        # allocation overhead.
        self._waiters: Optional[List[Process]] = None

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def payload(self) -> Any:
        return self._payload

    def fire(self, payload: Any = None) -> None:
        if self._fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        self._fired = True
        self._payload = payload
        waiters, self._waiters = self._waiters, None
        if waiters:
            for process in waiters:
                self.sim.schedule(0.0, process._resume, payload)

    def fail(self, exception: BaseException) -> None:
        """Fire the signal exceptionally: waiters get ``exception`` thrown."""
        if self._fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        self._fired = True
        self._exception = exception
        waiters, self._waiters = self._waiters, None
        if waiters:
            for process in waiters:
                self.sim.schedule(0.0, process._throw, exception)

    def _add_waiter(self, process: "Process") -> None:
        if self._fired:
            if self._exception is not None:
                self.sim.schedule(0.0, process._throw, self._exception)
            else:
                self.sim.schedule(0.0, process._resume, self._payload)
        elif self._waiters is None:
            self._waiters = [process]
        else:
            self._waiters.append(process)

    def _remove_waiter(self, process: "Process") -> None:
        if self._waiters and process in self._waiters:
            self._waiters.remove(process)


class Process(_Waitable):
    """A generator-based coroutine driven by the simulator.

    The generator yields waitables; when one fires the process is
    resumed with its payload.  A finished process is itself a waitable
    whose payload is the generator's return value, so processes can
    ``yield`` on each other (join semantics).
    """

    __slots__ = ("sim", "name", "_generator", "_waiting_on", "_done_signal", "_alive")

    def __init__(self, sim: "Simulator", generator: Generator[Any, Any, Any], name: str = ""):
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._waiting_on: Optional[_Waitable] = None
        self._done_signal = Signal(sim, name=f"{self.name}.done")
        self._alive = True
        sim.schedule(0.0, self._resume, None)

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def result(self) -> Any:
        """Return value of the generator (valid once not ``alive``)."""
        return self._done_signal.payload

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self._alive:
            return
        self._detach()
        self.sim.schedule(0.0, self._throw, Interrupt(cause))

    def _detach(self) -> None:
        if self._waiting_on is not None:
            self._waiting_on._remove_waiter(self)
            self._waiting_on = None

    def _resume(self, value: Any) -> None:
        if not self._alive:
            return
        self._waiting_on = None
        try:
            target = self._generator.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        self._wait_on(target)

    def _throw(self, exception: BaseException) -> None:
        if not self._alive:
            return
        self._waiting_on = None
        try:
            target = self._generator.throw(exception)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, _Waitable):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; expected Timeout/Signal/Process")
        self._waiting_on = target
        target._add_waiter(self)

    def _finish(self, value: Any) -> None:
        self._alive = False
        self._done_signal.fire(value)

    # Waitable protocol: joining a process waits for its completion.
    def _add_waiter(self, process: "Process") -> None:
        self._done_signal._add_waiter(process)

    def _remove_waiter(self, process: "Process") -> None:
        self._done_signal._remove_waiter(process)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self._alive else "done"
        return f"Process({self.name!r}, {state})"


class Simulator:
    """Deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> out = []
    >>> def worker(sim):
    ...     yield sim.timeout(1.5)
    ...     out.append(sim.now)
    >>> _ = sim.process(worker(sim))
    >>> sim.run()
    >>> out
    [1.5]
    """

    # Lazy heap compaction: cancelled events are skipped when popped,
    # but a producer that cancels and reschedules on every update (the
    # flow network's completion horizon) can fill the heap with dead
    # entries.  Once more than half the heap is cancelled (and it is
    # big enough to matter) the queue is rebuilt without them.
    _COMPACT_MIN_SIZE = 64

    def __init__(self, telemetry: Optional[Telemetry] = None):
        # Heap of (time, priority, seq, event); compaction edits it in
        # place, so loops may hold the list in a local.
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._now = 0.0
        self._seq = itertools.count()
        self._running = False
        self._pending = 0        # live (not-yet-cancelled) events in the queue
        self._cancelled = 0      # cancelled events still sitting in the queue
        # Kernel counters live on the telemetry registry (hot-path
        # mutation is a plain attribute add on the Counter object).
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        registry = self.telemetry.registry
        self._c_fired = registry.counter("sim.events_fired")
        self._c_cancelled = registry.counter("sim.events_cancelled")
        self._c_compactions = registry.counter("sim.heap_compactions")
        registry.gauge("sim.heap_size", fn=lambda: len(self._queue))
        registry.gauge("sim.pending", fn=self.pending)

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any,
                 priority: int = 0) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any,
                    priority: int = 0) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now t={self._now}): time travel")
        seq = next(self._seq)
        event = Event(time, priority, seq, callback, args, sim=self)
        heapq.heappush(self._queue, (time, priority, seq, event))
        self._pending += 1
        return event

    def _note_cancelled(self) -> None:
        """Bookkeeping when a queued event is cancelled (called by Event)."""
        self._pending -= 1
        self._cancelled += 1
        self._c_cancelled.value += 1
        if (self._cancelled > self._COMPACT_MIN_SIZE
                and self._cancelled * 2 > len(self._queue)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.  O(live events).

        Runs from inside callbacks (a cancel during :meth:`run`), so the
        list object must stay the one :meth:`run` is draining.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[3].cancelled]
        heapq.heapify(queue)
        self._cancelled = 0
        self._c_compactions.value += 1

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a waitable that fires after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def signal(self, name: str = "") -> Signal:
        """Create a fresh one-shot :class:`Signal`."""
        return Signal(self, name)

    def process(self, generator: Generator[Any, Any, Any], name: str = "") -> Process:
        """Start a generator as a simulation process."""
        return Process(self, generator, name)

    def any_of(self, waitables: Iterable[_Waitable]) -> Signal:
        """Signal firing with ``(index, payload)`` of the first input to fire.

        Later completions are ignored (their payloads are dropped), so
        the pattern ``yield sim.any_of([work, sim.timeout(deadline)])``
        implements an operation timeout.
        """
        waitables = list(waitables)
        if not waitables:
            raise SimulationError("any_of needs at least one waitable")
        first = Signal(self, name="any_of")

        def arm(index: int, waitable: _Waitable) -> None:
            def waiter():
                payload = yield waitable
                if not first.fired:
                    first.fire((index, payload))
            self.process(waiter(), name=f"any_of[{index}]")

        for index, waitable in enumerate(waitables):
            arm(index, waitable)
        return first

    def all_of(self, waitables: Iterable[_Waitable]) -> Signal:
        """Signal that fires (with a list of payloads) once all inputs fired."""
        waitables = list(waitables)
        done = Signal(self, name="all_of")
        if not waitables:
            done.fire([])
            return done
        payloads: List[Any] = [None] * len(waitables)
        remaining = [len(waitables)]

        def arm(index: int, waitable: _Waitable) -> None:
            def waiter():
                payloads[index] = yield waitable
                remaining[0] -= 1
                if remaining[0] == 0:
                    done.fire(list(payloads))
            self.process(waiter(), name=f"all_of[{index}]")

        for index, waitable in enumerate(waitables):
            arm(index, waitable)
        return done

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Run the next pending event.  Returns False if the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)[3]
            event.popped = True
            if event.cancelled:
                self._cancelled -= 1
                continue
            self._pending -= 1
            self._now = event.time
            self._c_fired.value += 1
            event.callback(*event.args)
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Run events until the queue drains or ``until`` is reached.

        If ``until`` is given, time is advanced to exactly ``until`` even
        when the queue drains earlier, mirroring SimPy semantics.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        fired_counter = self._c_fired
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue:
                entry = queue[0]
                event = entry[3]
                if event.cancelled:
                    heappop(queue)
                    event.popped = True
                    self._cancelled -= 1
                    continue
                if until is not None and entry[0] > until:
                    break
                heappop(queue)
                event.popped = True
                self._pending -= 1
                self._now = entry[0]
                fired_counter.value += 1
                event.callback(*event.args)
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue.  O(1)."""
        return self._pending
