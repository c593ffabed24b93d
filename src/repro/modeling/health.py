"""Model health checks: is this fitted model trustworthy?

A model fitted from too little data (one trace, a handful of flows)
silently extrapolates garbage.  ``check_model`` inspects a
:class:`~repro.modeling.model.JobTrafficModel` and returns structured
warnings a user (or the CLI's ``inspect`` command) can act on before
shipping the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.modeling.model import JobTrafficModel

MIN_TRACES = 2
MIN_FLOWS_PER_COMPONENT = 10


@dataclass(frozen=True)
class ModelWarning:
    """One advisory finding about a fitted model."""

    severity: str  # "warn" | "info"
    component: str  # "" for model-level findings
    message: str

    def __str__(self) -> str:
        scope = f"[{self.component}] " if self.component else ""
        return f"{self.severity.upper()}: {scope}{self.message}"


def check_model(model: JobTrafficModel) -> List[ModelWarning]:
    """Return warnings about extrapolation risk and thin data."""
    warnings: List[ModelWarning] = []
    if model.num_traces < MIN_TRACES:
        warnings.append(ModelWarning(
            "warn", "",
            f"fitted from {model.num_traces} trace(s); scaling laws "
            "degrade to proportional extrapolation — capture at least "
            f"{MIN_TRACES} input sizes"))
    if len(model.input_sizes_gb) == 1:
        warnings.append(ModelWarning(
            "warn", "",
            "all traces share one input size; count/volume laws are "
            "pinned through the origin"))

    for name, component in sorted(model.components.items()):
        total_flows = sum(component.observed_counts.values())
        if total_flows and total_flows < MIN_FLOWS_PER_COMPONENT:
            warnings.append(ModelWarning(
                "warn", name,
                f"only {int(total_flows)} flows observed; the fitted "
                "marginals are noise-limited"))
        if component.count_law.slope < 0:
            warnings.append(ModelWarning(
                "warn", name,
                f"count law has negative slope ({component.count_law!r}); "
                "predictions hit zero at large inputs"))
        if component.volume_law.slope < 0:
            warnings.append(ModelWarning(
                "warn", name,
                f"volume law has negative slope ({component.volume_law!r})"))
        if component.arrival_curve is None:
            warnings.append(ModelWarning(
                "info", name,
                "no arrival curve (single-flow or zero-span component); "
                "curve-mode generation falls back to renewal gaps"))
        kind = getattr(component.size_dist, "kind", "")
        if kind == "empirical" and model.num_traces < 3:
            warnings.append(ModelWarning(
                "info", name,
                "size distribution is empirical from few traces; it "
                "cannot produce values outside the observed range"))
    if model.duration_law.slope < 0:
        warnings.append(ModelWarning(
            "warn", "", f"duration law decreases with input size "
            f"({model.duration_law!r})"))
    return warnings
