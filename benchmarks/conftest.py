"""Shared helpers for the benchmark harness.

Each ``bench_*`` file regenerates one evaluation artefact (table or
figure) from DESIGN.md's E/A index: it re-runs the underlying capture
campaign (the process-local memo is cleared first so per-experiment
timings are honest), prints the regenerated rows, and asserts the
qualitative claim the paper's artefact makes (who wins, what scales,
where the crossover sits).

The whole suite shares one persistent capture store
(:class:`repro.experiments.store.CaptureStore`): the first experiment
to need a given (job, size, config, seed) point simulates and
publishes it; every later experiment — in this file or any other —
reads it back instead of re-simulating.  Set ``KEDDAH_CAPTURE_STORE``
to persist the store across benchmark invocations; by default a fresh
session-scoped directory is used, so one invocation's timings never
borrow heat from a previous run.

Run with::

    pytest benchmarks/ --benchmark-only
"""

import os
import shutil
import tempfile

import pytest

from repro.analysis.tables import Table, render_table
from repro.experiments import campaigns
from repro.experiments.campaigns import clear_cache
from repro.experiments.store import STORE_ENV_VAR


def registry_values(registry, *prefixes):
    """``{metric name: value}`` for the registry metrics under ``prefixes``."""
    return {metric["name"]: metric["value"] for metric in registry.snapshot()
            if metric["name"].startswith(prefixes)}

_SESSION_STORE_DIRS = []


def pytest_configure(config):
    """Name the session-wide capture store before any benchmark runs.

    Captures read ``KEDDAH_CAPTURE_STORE`` on every call, so setting it
    here installs the store for the whole session.
    """
    if not os.environ.get(STORE_ENV_VAR, "").strip():
        root = tempfile.mkdtemp(prefix="keddah-capture-store-")
        _SESSION_STORE_DIRS.append(root)
        os.environ[STORE_ENV_VAR] = root


def pytest_unconfigure(config):
    """Remove the session store this run created (never a persistent one)."""
    while _SESSION_STORE_DIRS:
        shutil.rmtree(_SESSION_STORE_DIRS.pop(), ignore_errors=True)
        os.environ.pop(STORE_ENV_VAR, None)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    terminalreporter.write_line(
        f"keddah capture memo: {campaigns._MEMO.stats()}")


def pytest_collection_modifyitems(config, items):
    """Mark every benchmark item and skip them outside benchmark mode.

    Tier-1 verification (``python -m pytest -x -q``) must stay fast, so
    anything collected from ``benchmarks/`` is marked ``benchmark_suite``
    and skipped unless the run opts in via pytest-benchmark's own flags
    (``--benchmark-only`` / ``--benchmark-enable``) or an explicit
    ``-m benchmark_suite`` selection — ``scripts/run_benchmarks.sh``
    passes ``--benchmark-only``.
    """
    bench_mode = (
        config.getoption("--benchmark-only", default=False)
        or config.getoption("--benchmark-enable", default=False)
        or "benchmark" in (getattr(config.option, "markexpr", "") or ""))
    skip = pytest.mark.skip(
        reason="benchmarks are skipped by default; run scripts/run_benchmarks.sh "
               "or pass --benchmark-only")
    for item in items:
        if item.fspath and "benchmarks" in str(item.fspath):
            item.add_marker(pytest.mark.benchmark_suite)
            if not bench_mode:
                item.add_marker(skip)


def run_experiment(benchmark, experiment, **kwargs):
    """Benchmark one experiment end-to-end and print its tables.

    Clears the in-memory memo (not the shared store) so the timing
    reflects at most one simulation per point per session, never free
    same-process memo hits.
    """
    def fresh():
        clear_cache()
        return experiment(**kwargs)

    tables = benchmark.pedantic(fresh, rounds=1, iterations=1)
    for table in tables:
        print("\n" + render_table(table))
    assert tables and all(isinstance(table, Table) for table in tables)
    return tables


def column(table, name):
    return table.column(name)
