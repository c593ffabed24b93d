"""Unit tests for Resource and Store."""

import pytest

from repro.simkit import Resource, SimulationError, Simulator, Store


def test_resource_limits_concurrency():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    active = []
    peak = []

    def worker(sim, tag):
        yield resource.acquire()
        active.append(tag)
        peak.append(len(active))
        yield sim.timeout(1.0)
        active.remove(tag)
        resource.release()

    for tag in range(5):
        sim.process(worker(sim, tag))
    sim.run()
    assert max(peak) == 2
    assert sim.now == pytest.approx(3.0)  # ceil(5/2) batches of 1s


def test_resource_grants_fifo():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    order = []

    def worker(sim, tag, hold):
        yield resource.acquire()
        order.append(tag)
        yield sim.timeout(hold)
        resource.release()

    for tag in range(4):
        sim.process(worker(sim, tag, hold=1.0))
    sim.run()
    assert order == [0, 1, 2, 3]


def test_resource_counters():
    sim = Simulator()
    resource = Resource(sim, capacity=2, name="slots")

    def worker(sim):
        yield resource.acquire()
        yield sim.timeout(10.0)
        resource.release()

    for _ in range(3):
        sim.process(worker(sim))
    sim.run(until=1.0)
    assert resource.in_use == 2
    assert resource.available == 0
    assert resource.queued == 1
    sim.run()
    assert resource.in_use == 0
    assert resource.queued == 0


def test_release_idle_resource_raises():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        resource.release()


def test_resource_rejects_zero_capacity():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim):
        item = yield store.get()
        got.append((sim.now, item))

    store.put("ready")
    sim.process(consumer(sim))
    sim.run()
    assert got == [(0.0, "ready")]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim):
        item = yield store.get()
        got.append((sim.now, item))

    sim.process(consumer(sim))
    sim.schedule(4.0, store.put, "late")
    sim.run()
    assert got == [(4.0, "late")]


def test_store_fifo_pairing_of_items_and_getters():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, tag):
        item = yield store.get()
        got.append((tag, item))

    sim.process(consumer(sim, "first"))
    sim.process(consumer(sim, "second"))
    sim.schedule(1.0, store.put, "a")
    sim.schedule(2.0, store.put, "b")
    sim.run()
    assert got == [("first", "a"), ("second", "b")]


def test_store_len_and_drain():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    assert len(store) == 2
    assert store.drain() == [1, 2]
    assert len(store) == 0
