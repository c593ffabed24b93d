"""Unit tests for the discrete-event kernel."""

import pytest

from repro.simkit import Interrupt, SimulationError, Simulator


def test_schedule_runs_in_time_order():
    sim = Simulator()
    out = []
    sim.schedule(2.0, out.append, "b")
    sim.schedule(1.0, out.append, "a")
    sim.schedule(3.0, out.append, "c")
    sim.run()
    assert out == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_run_in_fifo_order():
    sim = Simulator()
    out = []
    for tag in range(10):
        sim.schedule(1.0, out.append, tag)
    sim.run()
    assert out == list(range(10))


def test_priority_breaks_time_ties():
    sim = Simulator()
    out = []
    sim.schedule(1.0, out.append, "low", priority=5)
    sim.schedule(1.0, out.append, "high", priority=-5)
    sim.run()
    assert out == ["high", "low"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    out = []
    event = sim.schedule(1.0, out.append, "x")
    event.cancel()
    sim.run()
    assert out == []


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    out = []
    sim.schedule(1.0, out.append, 1)
    sim.schedule(10.0, out.append, 10)
    sim.run(until=5.0)
    assert out == [1]
    assert sim.now == 5.0
    sim.run()
    assert out == [1, 10]


def test_process_timeout_sequence():
    sim = Simulator()
    trace = []

    def worker(sim):
        trace.append(sim.now)
        yield sim.timeout(1.0)
        trace.append(sim.now)
        yield sim.timeout(2.5)
        trace.append(sim.now)

    sim.process(worker(sim))
    sim.run()
    assert trace == [0.0, 1.0, 3.5]


def test_process_return_value_via_join():
    sim = Simulator()
    results = []

    def child(sim):
        yield sim.timeout(2.0)
        return 42

    def parent(sim):
        value = yield sim.process(child(sim))
        results.append((sim.now, value))

    sim.process(parent(sim))
    sim.run()
    assert results == [(2.0, 42)]


def test_joining_finished_process_resumes_immediately():
    sim = Simulator()
    results = []

    def child(sim):
        yield sim.timeout(1.0)
        return "done"

    def parent(sim, child_process):
        yield sim.timeout(5.0)
        value = yield child_process
        results.append((sim.now, value))

    child_process = sim.process(child(sim))
    sim.process(parent(sim, child_process))
    sim.run()
    assert results == [(5.0, "done")]


def test_signal_broadcast_to_multiple_waiters():
    sim = Simulator()
    got = []
    signal = sim.signal("go")

    def waiter(sim, tag):
        payload = yield signal
        got.append((tag, sim.now, payload))

    sim.process(waiter(sim, "a"))
    sim.process(waiter(sim, "b"))
    sim.schedule(3.0, signal.fire, "payload")
    sim.run()
    assert got == [("a", 3.0, "payload"), ("b", 3.0, "payload")]


def test_signal_fire_twice_raises():
    sim = Simulator()
    signal = sim.signal()
    signal.fire(1)
    with pytest.raises(SimulationError):
        signal.fire(2)


def test_signal_fail_throws_into_waiter():
    sim = Simulator()
    caught = []

    def waiter(sim, signal):
        try:
            yield signal
        except ValueError as exc:
            caught.append(str(exc))

    signal = sim.signal()
    sim.process(waiter(sim, signal))
    sim.schedule(1.0, signal.fail, ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_interrupt_waiting_process():
    sim = Simulator()
    trace = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
            trace.append("slept")
        except Interrupt as interrupt:
            trace.append(("interrupted", sim.now, interrupt.cause))

    process = sim.process(sleeper(sim))
    sim.schedule(2.0, process.interrupt, "preempted")
    sim.run()
    assert trace == [("interrupted", 2.0, "preempted")]
    assert not process.alive
    # Interrupting a dead process is a no-op.
    process.interrupt()
    sim.run()


def test_interrupted_timeout_does_not_fire_later():
    sim = Simulator()
    trace = []

    def sleeper(sim):
        try:
            yield sim.timeout(10.0)
            trace.append("woke")
        except Interrupt:
            yield sim.timeout(50.0)
            trace.append("second sleep done")

    process = sim.process(sleeper(sim))
    sim.schedule(1.0, process.interrupt)
    sim.run()
    assert trace == ["second sleep done"]
    assert sim.now == 51.0


def test_all_of_waits_for_every_input():
    sim = Simulator()
    results = []

    def child(sim, delay, value):
        yield sim.timeout(delay)
        return value

    def parent(sim):
        children = [sim.process(child(sim, d, d * 10)) for d in (3.0, 1.0, 2.0)]
        payloads = yield sim.all_of(children)
        results.append((sim.now, payloads))

    sim.process(parent(sim))
    sim.run()
    assert results == [(3.0, [30.0, 10.0, 20.0])]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    results = []

    def parent(sim):
        payloads = yield sim.all_of([])
        results.append((sim.now, payloads))

    sim.process(parent(sim))
    sim.run()
    assert results == [(0.0, [])]


def test_yielding_garbage_raises():
    sim = Simulator()

    def bad(sim):
        yield 3.14

    sim.process(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_pending_counts_live_events():
    sim = Simulator()
    event_a = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending() == 2
    event_a.cancel()
    assert sim.pending() == 1


def test_heap_compaction_discards_cancelled_backlog():
    sim = Simulator()
    # Build a large cancelled backlog behind one live event, then check
    # the kernel compacted the heap instead of carrying the dead weight.
    live = sim.schedule(1.0, lambda: None)
    doomed = [sim.schedule(100.0 + i, lambda: None) for i in range(300)]
    for event in doomed:
        event.cancel()
    assert sim.pending() == 1
    value = sim.telemetry.registry.value
    assert value("sim.heap_compactions") >= 1
    sim.run()
    assert sim.now == 1.0
    assert value("sim.events_fired") == 1
    assert value("sim.events_cancelled") == 300
    assert live.popped


def test_compaction_inside_run_keeps_every_live_event_in_order():
    """A callback cancelling over 64 queued events compacts the heap in
    the middle of ``run()``; the loop must keep draining the same heap,
    including events scheduled after the compaction."""
    sim = Simulator()
    value = sim.telemetry.registry.value
    fired = []
    victims = []
    sizes = []

    def record(key):
        fired.append(key)

    def cancel_victims():
        for event in victims:
            event.cancel()
        assert value("sim.heap_compactions") >= 1
        for index in range(3):
            key = (2.5 + index, 0, 1000 + index)
            sim.schedule_at(key[0], record, key)
            expected.append(key)
        sizes.append((value("sim.heap_size"), len(sim._queue)))

    expected = []
    sim.schedule(1.0, cancel_victims)
    for index in range(100):
        victims.append(sim.schedule(2.0 + index, record, ("victim", index)))
    for index in range(40):
        # Same-time and priority ties: order is (time, priority, seq).
        key = (1.0 + index % 5, -(index % 3), index)
        sim.schedule_at(key[0], record, key, priority=key[1])
        expected.append(key)
    sim.run()
    assert fired == sorted(expected)
    assert value("sim.events_fired") == 1 + len(expected)
    assert sizes[0][0] == sizes[0][1]
    assert value("sim.heap_size") == len(sim._queue) == 0
    assert sim.pending() == 0


def test_perf_snapshot_tracks_counters():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    sim.schedule(2.0, lambda: None)
    sim.run()
    value = sim.telemetry.registry.value
    assert value("sim.events_fired") == 1
    assert value("sim.events_cancelled") == 1
    assert value("sim.pending") == 0
    assert value("sim.heap_size") >= 0


def test_cancel_is_idempotent_for_counters():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    assert sim.telemetry.registry.value("sim.events_cancelled") == 1
    assert sim.pending() == 0
