"""Tests for the experiment harness (small parameterisations)."""

import pytest

from repro.analysis.tables import Table, render_table
from repro.experiments import figures
from repro.experiments.campaigns import CampaignConfig, capture, capture_campaign, clear_cache


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


def test_capture_is_cached():
    result_a, trace_a = capture("grep", 0.25, seed=1)
    result_b, trace_b = capture("grep", 0.25, seed=1)
    assert trace_a is trace_b  # memoised, not re-simulated


def test_capture_cache_distinguishes_parameters():
    _, trace_a = capture("grep", 0.25, seed=1)
    _, trace_b = capture("grep", 0.25, seed=2)
    assert trace_a is not trace_b
    _, trace_c = capture("grep", 0.25, seed=1,
                         campaign=CampaignConfig(num_reducers=2))
    assert trace_c is not trace_a


def test_capture_campaign_returns_one_trace_per_size():
    traces = capture_campaign("grep", sizes_gb=[0.125, 0.25], seed=1)
    assert len(traces) == 2
    assert traces[0].meta.input_bytes < traces[1].meta.input_bytes


def test_campaign_config_builders():
    campaign = CampaignConfig(nodes=4, block_mb=16, scheduler="fair")
    spec = campaign.cluster_spec()
    config = campaign.hadoop_config()
    assert spec.num_nodes == 4
    assert config.block_size == 16 * 1024 * 1024
    assert config.scheduler == "fair"


def test_e01_small_parameterisation():
    tables = figures.e01_breakdown(input_gb=0.25, jobs=["grep", "terasort"])
    assert len(tables) == 1
    table = tables[0]
    assert [row[0] for row in table.rows] == ["grep", "terasort"]
    grep_row, terasort_row = table.rows
    assert terasort_row[2] > grep_row[2]  # terasort shuffles more


def test_e03_tables_have_fit_column():
    tables = figures.e03_flow_size_cdf(input_gb=0.25)
    assert tables
    for table in tables:
        assert isinstance(table, Table)
        assert table.headers[-1] == "fit"


def test_e05_small():
    (table,) = figures.e05_fit_table(jobs=["terasort"], input_gb=0.25)
    assert all(row[0] == "terasort" for row in table.rows)
    metrics = {(row[1], row[2]) for row in table.rows}
    assert ("shuffle", "size") in metrics


def test_e10_small_validation():
    (table,) = figures.e10_validation(jobs=["grep"],
                                      fit_sizes_gb=[0.125, 0.25],
                                      target_gb=0.25)
    assert table.rows
    shuffle_rows = [row for row in table.rows if row[1] == "shuffle"]
    assert shuffle_rows
    assert shuffle_rows[0][4] < 0.5  # count error on the shuffle


def test_a1_renders_the_same_tables_twice_in_one_process():
    """Ablation rows and reruns share one job id: the cluster names it."""
    first = [render_table(table) for table in figures.a1_locality(input_gb=0.25)]
    second = [render_table(table) for table in figures.a1_locality(input_gb=0.25)]
    assert first == second


def test_all_experiments_registry_is_complete():
    expected = {f"e{i:02d}" for i in range(1, 21)} | {"a1", "a2", "a3", "a4", "a5"}
    assert set(figures.ALL_EXPERIMENTS) == expected
    assert all(callable(fn) for fn in figures.ALL_EXPERIMENTS.values())
