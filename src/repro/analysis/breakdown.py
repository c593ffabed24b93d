"""Traffic decomposition by Hadoop component."""

from __future__ import annotations

from typing import Dict

from repro.capture.records import JobTrace, TrafficComponent

ALL_COMPONENTS = [c.value for c in TrafficComponent.data_components()] + [
    TrafficComponent.CONTROL.value, TrafficComponent.OTHER.value]


def component_breakdown(trace: JobTrace) -> Dict[str, Dict[str, float]]:
    """Per-component bytes, flow counts and share of total volume."""
    total = trace.total_bytes() or 1.0
    breakdown: Dict[str, Dict[str, float]] = {}
    for component in ALL_COMPONENTS:
        flows = trace.component(component)
        volume = sum(flow.size for flow in flows)
        breakdown[component] = {
            "bytes": volume,
            "flows": float(len(flows)),
            "share": volume / total,
            "cross_rack_bytes": sum(f.size for f in flows if f.cross_rack),
        }
    return breakdown
