"""Plain-text rendering of experiment tables and figure series.

Benchmarks regenerate the paper's tables and figures as text: a
:class:`Table` holds the rows; :func:`render_table` pretty-prints them;
:func:`cdf_table` holds the (x, F(x)) series a CDF figure would plot,
which is the most faithful text form of a distribution plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

import numpy as np


@dataclass
class Table:
    """A titled grid of rows (the unit every experiment produces)."""

    title: str
    headers: List[str]
    rows: List[List[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.headers)} columns")
        self.rows.append(list(values))

    def column(self, name: str) -> List[Any]:
        index = self.headers.index(name)
        return [row[index] for row in self.rows]

    def render(self) -> str:
        return render_table(self)


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.3e}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def render_table(table: Table) -> str:
    """Monospace-aligned rendering with title and footnotes."""
    cells = [[_format_cell(v) for v in row] for row in table.rows]
    widths = [len(header) for header in table.headers]
    for row in cells:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()

    parts = [f"== {table.title} =="]
    parts.append(line(table.headers))
    parts.append(line(["-" * width for width in widths]))
    parts.extend(line(row) for row in cells)
    for note in table.notes:
        parts.append(f"  note: {note}")
    return "\n".join(parts)


def cdf_table(title: str, samples: Sequence[float], fitted_cdf=None,
              points: int = 12, unit: str = "") -> Table:
    """The series a CDF figure would plot, as a :class:`Table`.

    Emits ``points`` quantile rows: value, empirical F, and (when a
    fitted distribution is supplied) the model CDF at the same value —
    side-by-side exactly like the paper's empirical-vs-fit CDF figures.
    """
    data = np.sort(np.asarray(list(samples), dtype=float))
    headers = ["p", f"value{f' ({unit})' if unit else ''}", "ecdf"]
    if fitted_cdf is not None:
        headers.append("fit")
    table = Table(title=title, headers=headers)
    if data.size == 0:
        table.notes.append("no samples")
        return table
    probs = np.linspace(1.0 / points, 1.0, points)
    for p in probs:
        value = float(np.quantile(data, p))
        ecdf = float(np.searchsorted(data, value, side="right")) / data.size
        row = [f"{p:.2f}", value, round(ecdf, 4)]
        if fitted_cdf is not None:
            row.append(round(float(fitted_cdf(value)), 4))
        table.add_row(*row)
    return table
