"""Tests for the top-level convenience API (the README's surface)."""

import pytest

import repro
from repro import fit_job_model, generate_trace, replay_trace, run_capture, run_capture_campaign
from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.units import MB

CONFIG = HadoopConfig(block_size=32 * MB, num_reducers=2)


def test_lazy_exports_resolve():
    assert repro.__version__ == "1.0.0"
    assert callable(repro.run_capture)
    assert repro.TrafficComponent.SHUFFLE.value == "shuffle"
    with pytest.raises(AttributeError):
        repro.not_a_symbol


def test_run_capture_roundtrip():
    trace = run_capture("wordcount", input_gb=0.25, nodes=4, seed=1,
                        config=CONFIG)
    assert trace.meta.job_kind == "wordcount"
    assert trace.meta.cluster["num_nodes"] == 4
    assert trace.flow_count() > 0


def test_run_capture_respects_cluster_spec():
    spec = ClusterSpec(num_nodes=4, hosts_per_rack=2, topology="star")
    trace = run_capture("grep", input_gb=0.125, cluster_spec=spec,
                        config=CONFIG)
    assert trace.meta.cluster["topology"] == "star"


def test_run_capture_passes_job_kwargs():
    trace = run_capture("terasort", input_gb=0.25, nodes=4, seed=1,
                        config=CONFIG, num_reducers=3)
    assert trace.meta.num_reduces == 3


def test_run_capture_repeats_byte_for_byte(tmp_path):
    """A capture depends only on its arguments, not on earlier runs."""
    captures = []
    for attempt in range(2):
        path = tmp_path / f"run{attempt}.jsonl"
        run_capture("terasort", input_gb=0.25, nodes=8, seed=3).to_jsonl(path)
        captures.append(path.read_bytes())
    assert captures[0] == captures[1]


def test_run_capture_explicit_job_id_wins():
    trace = run_capture("grep", input_gb=0.125, nodes=4, seed=1,
                        config=CONFIG, job_id="mine")
    assert trace.meta.job_id == "mine"


def test_campaign_covers_sizes_and_repeats():
    traces = run_capture_campaign("grep", [0.125, 0.25], nodes=4,
                                  seed=5, repeats=2, config=CONFIG)
    assert len(traces) == 4
    sizes = sorted({trace.meta.input_bytes for trace in traces})
    assert len(sizes) == 2
    seeds = {trace.meta.seed for trace in traces}
    assert len(seeds) == 4  # all runs independent


def test_full_pipeline_via_api():
    traces = run_capture_campaign("terasort", [0.125, 0.25], nodes=4,
                                  seed=2, config=CONFIG)
    model = fit_job_model(traces)
    synthetic = generate_trace(model, input_gb=0.5, seed=3)
    assert synthetic.meta.job_kind == "terasort"
    report = replay_trace(synthetic)
    assert report.flow_count == len(synthetic.flows)
    assert report.makespan > 0
