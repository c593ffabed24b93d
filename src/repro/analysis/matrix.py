"""Traffic matrices: who talks to whom, at rack granularity.

The demand matrix is what a topology designer actually consumes from a
traffic study: rack-to-rack volume determines bisection provisioning.
This module builds it from a trace and renders it as a table.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.tables import Table
from repro.capture.records import JobTrace


def rack_matrix(trace: JobTrace,
                component: Optional[str] = None) -> Dict[Tuple[int, int], float]:
    """Bytes per (src rack, dst rack) pair."""
    flows = trace.flows if component is None else trace.component(component)
    matrix: Dict[Tuple[int, int], float] = {}
    for flow in flows:
        key = (flow.src_rack, flow.dst_rack)
        matrix[key] = matrix.get(key, 0.0) + flow.size
    return matrix


def rack_matrix_table(trace: JobTrace,
                      component: Optional[str] = None) -> Table:
    """The rack-to-rack demand matrix as a table (MiB cells)."""
    matrix = rack_matrix(trace, component)
    racks = sorted({rack for pair in matrix for rack in pair})
    mib = 1024.0 * 1024.0
    scope = component or "all components"
    table = Table(
        title=f"rack traffic matrix ({scope}): {trace.meta.job_id}",
        headers=["src\\dst"] + [f"rack {rack}" for rack in racks])
    for src in racks:
        row: List = [f"rack {src}"]
        for dst in racks:
            row.append(round(matrix.get((src, dst), 0.0) / mib, 1))
        table.add_row(*row)
    total = sum(matrix.values())
    cross = sum(v for (s, d), v in matrix.items() if s != d)
    if total > 0:
        table.notes.append(f"cross-rack share {cross / total:.1%} of "
                           f"{total / mib:.0f} MiB")
    return table
