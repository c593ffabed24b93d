"""Tests for model health checks."""

import pytest

from repro.experiments.campaigns import capture, capture_campaign
from repro.modeling.health import ModelWarning, check_model
from repro.modeling.model import fit_job_model
from repro.modeling.scaling import LinearLaw


def test_well_fed_model_is_mostly_clean():
    model = fit_job_model(capture_campaign("terasort",
                                           sizes_gb=[0.25, 0.5, 1.0],
                                           seed=95))
    warnings = check_model(model)
    # No model-level warnings about trace counts or sizes.
    model_level = [w for w in warnings if not w.component and w.severity == "warn"]
    assert model_level == []
    # The shuffle component (hundreds of flows) raises nothing severe.
    shuffle_warns = [w for w in warnings
                     if w.component == "shuffle" and w.severity == "warn"]
    assert shuffle_warns == []


def test_single_trace_model_warns():
    model = fit_job_model([capture("terasort", 0.5, seed=96)[1]])
    warnings = check_model(model)
    assert any("1 trace" in w.message for w in warnings)
    assert any("one input size" in w.message for w in warnings)
    assert any(w.severity == "warn" for w in warnings)


def test_negative_slope_is_flagged():
    model = fit_job_model(capture_campaign("terasort",
                                           sizes_gb=[0.25, 0.5, 1.0],
                                           seed=97))
    shuffle = model.components["shuffle"]
    shuffle.count_law = LinearLaw(slope=-5.0, intercept=100.0)
    warnings = check_model(model)
    assert any("negative slope" in w.message and w.component == "shuffle"
               for w in warnings)


def test_warning_rendering():
    warning = ModelWarning("warn", "shuffle", "too thin")
    assert str(warning) == "WARN: [shuffle] too thin"
    model_level = ModelWarning("info", "", "fine")
    assert str(model_level) == "INFO: fine"
