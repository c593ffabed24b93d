"""The aggregate merge target for worker registry deltas."""

import threading

import pytest

from repro.obs import AggregateRegistry, MetricsRegistry, delta_envelope
from repro.obs.aggregate import WORKER_LABEL


# -- AggregateRegistry ---------------------------------------------------------------


def _worker_envelope(source, delta_id, counter=0.0, gauge=None):
    registry = MetricsRegistry()
    if counter:
        registry.counter("sim.events_fired").inc(counter)
    if gauge is not None:
        registry.gauge("net.active").set(gauge)
    return delta_envelope(registry, source=source, delta_id=delta_id)


def test_counters_sum_unlabeled_across_sources():
    aggregate = AggregateRegistry()
    aggregate.apply(_worker_envelope("w1", "p1", counter=10))
    aggregate.apply(_worker_envelope("w2", "p2", counter=32))
    # The cluster-wide total lands on the plain, unlabeled counter, so
    # end-of-run assertions read one series.
    assert aggregate.registry.value("sim.events_fired") == 42.0


def test_gauges_get_per_worker_series_instead_of_clobbering():
    aggregate = AggregateRegistry()
    aggregate.apply(_worker_envelope("w1", "p1", gauge=3.0))
    aggregate.apply(_worker_envelope("w2", "p2", gauge=8.0))
    registry = aggregate.registry
    assert registry.value("net.active", **{WORKER_LABEL: "w1"}) == 3.0
    assert registry.value("net.active", **{WORKER_LABEL: "w2"}) == 8.0
    # Last write wins *within* a source.
    aggregate.apply(_worker_envelope("w1", "p3", gauge=5.0))
    assert registry.value("net.active", **{WORKER_LABEL: "w1"}) == 5.0


def test_redelivery_is_idempotent():
    aggregate = AggregateRegistry()
    envelope = _worker_envelope("w1", "point-abc", counter=7)
    assert aggregate.apply(envelope) is True
    assert aggregate.apply(dict(envelope)) is False
    assert aggregate.registry.value("sim.events_fired") == 7.0
    assert aggregate.stats()["duplicates_dropped"] == 1
    # The same delta_id from a different source is a different delta.
    assert aggregate.apply(_worker_envelope("w2", "point-abc", counter=1))
    assert aggregate.registry.value("sim.events_fired") == 8.0


def test_histograms_bucket_merge_and_mismatch_raises():
    worker = MetricsRegistry()
    worker.histogram("lat", buckets=(1.0, 10.0)).observe(0.5)
    worker.histogram("lat", buckets=(1.0, 10.0)).observe(20.0)
    aggregate = AggregateRegistry()
    aggregate.apply(delta_envelope(worker, source="w1", delta_id="d1"))
    merged = aggregate.registry.histogram("lat", buckets=(1.0, 10.0))
    assert merged.counts == [1, 0, 1]
    assert merged.count == 2
    bad = MetricsRegistry()
    bad.histogram("lat", buckets=(2.0, 20.0)).observe(1.0)
    with pytest.raises(ValueError, match="bucket mismatch"):
        aggregate.apply(delta_envelope(bad, source="w1", delta_id="d2"))


def test_callback_gauges_are_never_overwritten():
    aggregate = AggregateRegistry()
    aggregate.registry.gauge("net.active", fn=lambda: 99.0,
                             **{WORKER_LABEL: "w1"})
    aggregate.apply(_worker_envelope("w1", "p1", gauge=3.0))
    assert aggregate.registry.value("net.active", **{WORKER_LABEL: "w1"}) == 99.0


def test_aggregate_onto_an_existing_live_registry():
    live = MetricsRegistry()
    live.counter("campaign.points").inc(4)
    aggregate = AggregateRegistry(live)
    aggregate.apply(_worker_envelope("w1", "p1", counter=6))
    assert live.value("campaign.points") == 4.0
    assert live.value("sim.events_fired") == 6.0
    assert aggregate.sources() == ["w1"]


def test_concurrent_apply_is_safe():
    aggregate = AggregateRegistry()

    def worker(source):
        for index in range(50):
            aggregate.apply(_worker_envelope(source, f"d{index}", counter=1))

    threads = [threading.Thread(target=worker, args=(f"w{n}",))
               for n in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert aggregate.registry.value("sim.events_fired") == 200.0
    assert aggregate.stats()["deltas_applied"] == 200

