"""Tests for the metrics registry: counters, gauges, histograms."""

import pytest

from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry


def test_counter_get_or_create_shares_instrument():
    registry = MetricsRegistry()
    a = registry.counter("net.flows", direction="rx")
    b = registry.counter("net.flows", direction="rx")
    assert a is b
    a.inc()
    a.value += 2
    assert registry.value("net.flows", direction="rx") == 3.0


def test_counter_labels_distinguish_instruments():
    registry = MetricsRegistry()
    rx = registry.counter("net.flows", direction="rx")
    tx = registry.counter("net.flows", direction="tx")
    assert rx is not tx
    rx.inc(5)
    assert registry.value("net.flows", direction="tx") == 0.0
    assert len(registry) == 2


def test_settable_gauge():
    registry = MetricsRegistry()
    gauge = registry.gauge("queue.depth")
    gauge.set(7)
    gauge.inc(3)
    assert registry.value("queue.depth") == 10.0


def test_callback_gauge_reads_lazily():
    registry = MetricsRegistry()
    state = {"n": 1}
    registry.gauge("heap.size", fn=lambda: state["n"])
    state["n"] = 42
    assert registry.value("heap.size") == 42.0


def test_histogram_bucket_placement():
    histogram = Histogram("latency", buckets=(1.0, 10.0, 100.0))
    for value in (0.5, 1.0, 5.0, 10.0, 50.0, 1000.0):
        histogram.observe(value)
    # counts: <=1, <=10, <=100, overflow
    assert histogram.counts == [2, 2, 1, 1]
    assert histogram.cumulative_counts() == [2, 4, 5, 6]
    assert histogram.count == 6
    assert histogram.sum == pytest.approx(1066.5)
    assert histogram.mean == pytest.approx(1066.5 / 6)


def test_histogram_rejects_empty_buckets():
    with pytest.raises(ValueError):
        Histogram("bad", buckets=())


def test_timeit_observes_into_histogram():
    registry = MetricsRegistry()
    with registry.timeit("store.io_seconds"):
        pass
    histogram = registry.get("store.io_seconds")
    assert histogram.count == 1
    assert histogram.sum >= 0.0
    assert tuple(histogram.buckets) == DEFAULT_BUCKETS


def test_metrics_sorted_and_value_of_missing_is_zero():
    registry = MetricsRegistry()
    registry.counter("b")
    registry.counter("a")
    assert [m.name for m in registry.metrics()] == ["a", "b"]
    assert registry.value("missing") == 0.0
    assert registry.get("missing") is None


def test_snapshot_merge_adds_counters_and_histograms():
    worker = MetricsRegistry()
    worker.counter("events").inc(10)
    worker.histogram("dt", buckets=(1.0, 2.0)).observe(1.5)

    parent = MetricsRegistry()
    parent.counter("events").inc(1)
    parent.merge(worker.snapshot())
    parent.merge(worker.snapshot())

    assert parent.value("events") == 21.0
    merged = parent.get("dt")
    assert merged.count == 2
    assert merged.counts == [0, 2, 0]


def test_merge_overwrites_settable_but_not_callback_gauges():
    worker = MetricsRegistry()
    worker.gauge("depth").set(5)
    worker.gauge("live").set(99)

    parent = MetricsRegistry()
    parent.gauge("depth").set(1)
    parent.gauge("live", fn=lambda: 3)
    parent.merge(worker.snapshot())

    assert parent.value("depth") == 5.0
    assert parent.value("live") == 3.0  # callback wins over snapshot


def test_gauges_get_per_worker_series_instead_of_clobbering():
    def worker(value):
        registry = MetricsRegistry()
        registry.gauge("net.active").set(value)
        return registry.snapshot()

    parent = MetricsRegistry()
    parent.merge(worker(3.0), worker="w1")
    parent.merge(worker(8.0), worker="w2")
    assert parent.value("net.active", worker="w1") == 3.0
    assert parent.value("net.active", worker="w2") == 8.0
    assert parent.get("net.active") is None
    # Last write wins *within* a worker.
    parent.merge(worker(5.0), worker="w1")
    assert parent.value("net.active", worker="w1") == 5.0


def test_worker_merge_sums_counters_and_histograms_unlabelled():
    worker = MetricsRegistry()
    worker.counter("sim.events_fired").inc(10)
    worker.histogram("dt", buckets=(1.0, 2.0)).observe(1.5)

    parent = MetricsRegistry()
    parent.merge(worker.snapshot(), worker="w1")
    parent.merge(worker.snapshot(), worker="w2")
    # The cluster-wide total lands on the plain, unlabelled series.
    assert parent.value("sim.events_fired") == 20.0
    assert parent.get("dt").counts == [0, 2, 0]
    assert parent.get("sim.events_fired", worker="w1") is None


def test_worker_merge_never_overwrites_a_callback_gauge():
    worker = MetricsRegistry()
    worker.gauge("net.active").set(3.0)
    parent = MetricsRegistry()
    parent.gauge("net.active", fn=lambda: 99.0, worker="w1")
    parent.merge(worker.snapshot(), worker="w1")
    assert parent.value("net.active", worker="w1") == 99.0


def test_merge_rejects_bucket_mismatch():
    worker = MetricsRegistry()
    worker.histogram("dt", buckets=(1.0, 2.0)).observe(0.5)
    parent = MetricsRegistry()
    parent.histogram("dt", buckets=(5.0, 6.0))
    with pytest.raises(ValueError):
        parent.merge(worker.snapshot())


def test_merge_rejects_unknown_type():
    with pytest.raises(ValueError):
        MetricsRegistry().merge([{"type": "summary", "name": "x",
                                  "labels": {}, "value": 1}])


def test_snapshot_is_plain_data():
    import json

    registry = MetricsRegistry()
    registry.counter("c", job="terasort").inc()
    registry.gauge("g").set(2)
    registry.histogram("h", buckets=(1.0,)).observe(0.5)
    text = json.dumps(registry.snapshot())
    assert "terasort" in text


# -- Prometheus exposition format ----------------------------------------------------


def test_prometheus_text_has_help_and_type_per_family():
    from repro.obs.export import prometheus_text

    registry = MetricsRegistry()
    registry.counter("sim.events_fired").inc(3)
    registry.gauge("queue.depth").set(2.0)
    registry.histogram("fit.seconds", buckets=(1.0, 10.0)).observe(0.5)
    text = prometheus_text(registry)
    assert "# HELP sim_events_fired keddah metric sim.events_fired\n" in text
    assert "# TYPE sim_events_fired counter\n" in text
    assert "# TYPE queue_depth gauge\n" in text
    assert "# TYPE fit_seconds histogram\n" in text
    # One header pair per family even with several label sets.
    registry.counter("sim.events_fired", kind="timer").inc(1)
    text = prometheus_text(registry)
    assert text.count("# TYPE sim_events_fired counter") == 1


def test_prometheus_help_text_overrides_and_escapes():
    from repro.obs.export import prometheus_text

    registry = MetricsRegistry()
    registry.counter("a").inc(1)
    text = prometheus_text(registry,
                           help_texts={"a": "line\none \\ backslash"})
    assert "# HELP a line\\none \\\\ backslash\n" in text


def test_prometheus_label_values_escape_specials():
    from repro.obs.export import prometheus_text

    registry = MetricsRegistry()
    registry.counter("weird.name", path='say "hi"\nc:\\tmp').inc(2)
    text = prometheus_text(registry)
    assert 'weird_name{path="say \\"hi\\"\\nc:\\\\tmp"} 2.0\n' in text
    # And the escaped form survives a round-trip of the spec's rules.
    value = text.split('path="', 1)[1].rsplit('"} ', 1)[0]
    unescaped = (value.replace("\\\\", "\0").replace('\\"', '"')
                 .replace("\\n", "\n").replace("\0", "\\"))
    assert unescaped == 'say "hi"\nc:\\tmp'
