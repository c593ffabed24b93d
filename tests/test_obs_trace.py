"""Tests for lifecycle tracing: spans, sinks, tracer, rendering."""

import pytest

from repro.obs.export import render_span_tree, span_summary_table
from repro.obs.trace import (
    NULL_SPAN,
    MemorySink,
    Span,
    Tracer,
    span_children,
)


def test_disabled_tracer_is_a_noop():
    sink = MemorySink()
    tracer = Tracer(sink=sink, enabled=False)
    span = tracer.start("job", "j1", 0.0)
    assert span is NULL_SPAN
    tracer.end(span, 5.0)
    tracer.event("speculate", 1.0)
    tracer.emit("flow", "f", 0.0, 1.0)
    assert sink.spans == []
    assert tracer.spans_started == 0
    assert tracer.spans_emitted == 0


def test_enabled_tracer_emits_closed_spans():
    sink = MemorySink()
    tracer = Tracer(sink=sink, enabled=True)
    job = tracer.start("job", "j1", 0.0, input_bytes=100)
    task = tracer.start("task", "map[0]", 1.0, parent=job, host="h000")
    tracer.end(task, 2.5, output_bytes=50)
    tracer.end(job, 9.0)
    assert [span.kind for span in sink.spans] == ["task", "job"]
    assert sink.spans[0].parent_id == job.span_id
    assert sink.spans[0].duration == pytest.approx(1.5)
    assert sink.spans[0].attrs == {"host": "h000", "output_bytes": 50}


def test_null_span_parent_means_root():
    tracer = Tracer(sink=MemorySink(), enabled=True)
    span = tracer.start("job", "j", 0.0, parent=NULL_SPAN)
    assert span.parent_id is None


def test_event_is_zero_duration():
    sink = MemorySink()
    tracer = Tracer(sink=sink, enabled=True)
    tracer.event("container-lost", 3.0, host="h001")
    (span,) = sink.spans
    assert span.kind == "event"
    assert span.start == span.end == 3.0
    assert span.duration == 0.0


def test_span_children_sorted_by_start():
    spans = [Span(1, "job", "j", 0.0),
             Span(3, "task", "b", 5.0, parent_id=1),
             Span(2, "task", "a", 1.0, parent_id=1)]
    children = span_children(spans)
    assert [span.name for span in children[1]] == ["a", "b"]
    assert children[None][0].name == "j"


def test_render_span_tree_nesting_and_elision():
    spans = [Span(1, "job", "j", 0.0)]
    spans[0].end = 10.0
    for index in range(5):
        child = Span(2 + index, "task", f"t{index}", float(index),
                     parent_id=1)
        child.end = index + 1.0
        spans.append(child)
    text = render_span_tree(spans, max_children=3)
    assert text.splitlines()[0].startswith("job:j")
    assert "  task:t0" in text
    assert "(2 more)" in text
    assert "t4" not in text


def test_render_span_tree_kind_filter_reparents():
    job = Span(1, "job", "j", 0.0)
    round_ = Span(2, "round", "r", 0.0, parent_id=1)
    task = Span(3, "task", "t", 1.0, parent_id=2)
    for span in (job, round_, task):
        span.end = 5.0
    text = render_span_tree([job, round_, task], kinds=["job", "task"])
    lines = text.splitlines()
    assert lines[0].startswith("job:j")
    assert lines[1].startswith("  task:t")  # re-parented past hidden round
    assert "round" not in text


def test_render_span_tree_max_depth():
    job = Span(1, "job", "j", 0.0)
    task = Span(2, "task", "t", 1.0, parent_id=1)
    for span in (job, task):
        span.end = 2.0
    text = render_span_tree([job, task], max_depth=0)
    assert "task" not in text


def test_span_summary_table_groups_by_kind():
    spans = []
    for index in range(3):
        span = Span(index + 1, "fetch", f"f{index}", 0.0)
        span.end = 2.0
        spans.append(span)
    table = span_summary_table(spans)
    (row,) = table.rows
    assert row[0] == "fetch"
    assert row[1] == 3
    assert row[2] == pytest.approx(6.0)
