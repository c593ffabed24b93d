"""Tests for the scaling laws' fits and their selection."""

import pytest

from repro.modeling.scaling import LinearLaw, PowerLaw, best_scaling_law


# -- power law ------------------------------------------------------------------


def test_power_law_recovers_exponent():
    xs = [1.0, 2.0, 4.0, 8.0]
    ys = [3.0 * x ** 1.5 for x in xs]
    law = PowerLaw.fit(xs, ys)
    assert law.exponent == pytest.approx(1.5)
    assert law.coefficient == pytest.approx(3.0)
    assert law.predict(16.0) == pytest.approx(3.0 * 16 ** 1.5)
    assert law.predict(0.0) == 0.0


def test_power_law_single_point_assumes_linear():
    law = PowerLaw.fit([2.0], [10.0])
    assert law.exponent == 1.0
    assert law.predict(4.0) == pytest.approx(20.0)


def test_power_law_validation_and_roundtrip():
    with pytest.raises(ValueError):
        PowerLaw.fit([1.0, -1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        PowerLaw.fit([], [])
    law = PowerLaw(2.0, 0.5)
    assert PowerLaw.from_dict(law.to_dict()) == law


def test_best_scaling_law_picks_power_for_quadratic():
    xs = [1.0, 2.0, 4.0, 8.0, 16.0]
    ys = [x ** 2 for x in xs]
    law = best_scaling_law(xs, ys)
    assert isinstance(law, PowerLaw)
    assert law.exponent == pytest.approx(2.0)


def test_best_scaling_law_picks_linear_for_affine():
    xs = [1.0, 2.0, 4.0, 8.0]
    ys = [10.0 * x + 5.0 for x in xs]
    law = best_scaling_law(xs, ys)
    assert isinstance(law, LinearLaw)


def test_best_scaling_law_falls_back_on_nonpositive_data():
    law = best_scaling_law([1.0, 2.0], [0.0, 5.0])
    assert isinstance(law, LinearLaw)
