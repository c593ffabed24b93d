"""Traffic-over-time series: the job's phase structure on the wire.

A MapReduce job's traffic is not stationary — HDFS reads front-load the
timeline, the shuffle ramps up as maps commit (gated by slow-start),
and the output writes cluster at the end.  This module bins a trace
into per-component throughput series, which is both a paper-style
figure (E15) and a quick visual sanity check on captures.

Bytes are attributed to bins by overlap: a flow spanning several bins
contributes proportionally to each (fluid assumption, matching the
network model).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.tables import Table
from repro.capture.records import JobTrace, TrafficComponent


def throughput_series(trace: JobTrace, bin_seconds: float = 1.0,
                      components: Optional[Sequence[str]] = None,
                      ) -> Dict[str, np.ndarray]:
    """Per-component bytes-per-bin arrays plus the shared time axis.

    Returns a dict with a ``"time"`` key (bin start offsets relative to
    job submission) and one array per requested component.
    """
    if bin_seconds <= 0:
        raise ValueError(f"bin_seconds must be positive, got {bin_seconds}")
    if components is None:
        components = [c.value for c in TrafficComponent.data_components()]
    origin = trace.meta.submit_time
    horizon = max((flow.end for flow in trace.flows), default=origin) - origin
    bins = max(1, int(np.ceil(horizon / bin_seconds)) + 1)
    time_axis = np.arange(bins) * bin_seconds
    series: Dict[str, np.ndarray] = {"time": time_axis}
    for component in components:
        series[component] = np.zeros(bins)
    for flow in trace.flows:
        if flow.component not in components:
            continue
        start = flow.start - origin
        end = flow.end - origin
        _spread(series[flow.component], start, end, flow.size, bin_seconds)
    return series


def _spread(array: np.ndarray, start: float, end: float, size: float,
            bin_seconds: float) -> None:
    """Distribute ``size`` bytes over [start, end) proportionally."""
    if size <= 0:
        return
    if end <= start:
        index = min(int(start / bin_seconds), array.size - 1)
        array[index] += size
        return
    rate = size / (end - start)
    first = int(start / bin_seconds)
    last = min(int(np.ceil(end / bin_seconds)), array.size)
    for index in range(first, last):
        bin_start = index * bin_seconds
        bin_end = bin_start + bin_seconds
        overlap = max(0.0, min(end, bin_end) - max(start, bin_start))
        array[index] += rate * overlap


def phase_profile(trace: JobTrace, bin_seconds: float = 1.0) -> Table:
    """The E15 table: per-bin throughput of every data component."""
    series = throughput_series(trace, bin_seconds=bin_seconds)
    components = [key for key in series if key != "time"]
    table = Table(
        title=(f"traffic over time: {trace.meta.job_id} "
               f"({trace.meta.job_kind}), {bin_seconds}s bins"),
        headers=["t (s)"] + [f"{c} MiB/s" for c in components])
    mib = 1024.0 * 1024.0
    for index, t in enumerate(series["time"]):
        row = [float(t)]
        for component in components:
            row.append(round(float(series[component][index]) / bin_seconds / mib, 3))
        table.add_row(*row)
    return table


def component_activity_spans(trace: JobTrace) -> Dict[str, tuple]:
    """(first activity, last activity) per data component, job-relative."""
    spans = {}
    origin = trace.meta.submit_time
    for component in (c.value for c in TrafficComponent.data_components()):
        flows = trace.component(component)
        if not flows:
            continue
        spans[component] = (min(f.start for f in flows) - origin,
                            max(f.end for f in flows) - origin)
    return spans
