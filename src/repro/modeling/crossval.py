"""Cross-validation of the traffic model's scaling laws.

Keddah's central generalisation claim is that a model fitted on a few
input sizes predicts traffic at *unseen* sizes.  Leave-one-out
cross-validation quantifies exactly that: for every captured size, fit
the model on the remaining sizes and score the held-out prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.capture.records import JobTrace, TrafficComponent
from repro.cluster.units import GB
from repro.modeling.model import fit_job_model


@dataclass
class HoldoutScore:
    """Prediction errors for one held-out capture."""

    input_gb: float
    component: str
    actual_count: int
    predicted_count: int
    actual_volume: float
    predicted_volume: float

    @property
    def count_error(self) -> float:
        if self.actual_count == 0:
            return 0.0 if self.predicted_count == 0 else float("inf")
        return abs(self.predicted_count - self.actual_count) / self.actual_count

    @property
    def volume_error(self) -> float:
        if self.actual_volume == 0:
            return 0.0 if self.predicted_volume == 0 else float("inf")
        return abs(self.predicted_volume - self.actual_volume) / self.actual_volume


@dataclass
class CrossValidationReport:
    """All leave-one-out scores for one job kind."""

    kind: str
    scores: List[HoldoutScore] = field(default_factory=list)

    def mean_count_error(self) -> float:
        finite = [s.count_error for s in self.scores
                  if s.count_error != float("inf")]
        return sum(finite) / len(finite) if finite else 0.0

    def mean_volume_error(self) -> float:
        finite = [s.volume_error for s in self.scores
                  if s.volume_error != float("inf")]
        return sum(finite) / len(finite) if finite else 0.0


def leave_one_out(traces: Sequence[JobTrace],
                  components: Sequence[str] = (),
                  ) -> CrossValidationReport:
    """Score each capture against a model fitted on the others.

    Needs at least three traces (two must remain for a scaling fit).
    """
    traces = list(traces)
    if len(traces) < 3:
        raise ValueError(
            f"leave-one-out needs >= 3 traces, got {len(traces)}")
    components = list(components) or [
        c.value for c in TrafficComponent.data_components()]
    report = CrossValidationReport(kind=traces[0].meta.job_kind)
    for index, held_out in enumerate(traces):
        training = traces[:index] + traces[index + 1:]
        model = fit_job_model(training)
        input_gb = held_out.meta.input_bytes / GB
        for component in components:
            actual_flows = held_out.component(component)
            component_model = model.component(component)
            if component_model is None:
                if actual_flows:
                    report.scores.append(HoldoutScore(
                        input_gb=input_gb, component=component,
                        actual_count=len(actual_flows), predicted_count=0,
                        actual_volume=sum(f.size for f in actual_flows),
                        predicted_volume=0.0))
                continue
            report.scores.append(HoldoutScore(
                input_gb=input_gb,
                component=component,
                actual_count=len(actual_flows),
                predicted_count=component_model.expected_count(input_gb),
                actual_volume=sum(f.size for f in actual_flows),
                predicted_volume=component_model.expected_volume(input_gb),
            ))
    return report
