"""Job-completion-time statistics."""

from __future__ import annotations

from typing import Dict, Iterable

from repro.mapreduce.result import JobResult


def makespan(results: Iterable[JobResult]) -> float:
    """End-to-end span of a batch: last finish minus first submit."""
    results = list(results)
    if not results:
        return 0.0
    return (max(result.finish_time for result in results)
            - min(result.submit_time for result in results))


def slowdown(results: Iterable[JobResult], baselines: Dict[str, float]) -> Dict[str, float]:
    """Per-job slowdown against isolated-run baselines (keyed by job_id)."""
    factors = {}
    for result in results:
        base = baselines.get(result.job_id)
        if base and base > 0:
            factors[result.job_id] = result.completion_time / base
    return factors
