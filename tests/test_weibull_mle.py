"""The Weibull fit: the exact location-0 MLE by its profile-likelihood root.

``fit_family("weibull", ...)`` solves the shape-only score equation
instead of running scipy's Nelder–Mead ``weibull_min.fit``.  These
tests pin that it is the maximum (never a worse likelihood than
scipy's fit on the populations the toolchain fits), that it really is
the score equation's root, that it agrees with scipy where scipy's fit
converges, and that it stays finite on extreme and tiny samples.
"""

import warnings

import numpy as np
import pytest
from scipy import stats

from repro.modeling.distributions import fit_family
from tests.test_ks_distance_reference import JOBS, capture_samples


def log_likelihood(data, params) -> float:
    return float(stats.weibull_min.logpdf(data, *params).sum())


def score(data, shape: float) -> float:
    """The profile score ``sum(x^c ln x)/sum(x^c) - 1/c - mean(ln x)``."""
    z = np.log(data) - np.log(data).max()
    w = np.exp(shape * z)
    return float(np.dot(w, z) / w.sum()) - 1.0 / shape - float(z.mean())


def weibull_fit(data):
    return fit_family("weibull", np.asarray(data, dtype=float)).params


@pytest.fixture(scope="module")
def populations():
    """Every size and inter-arrival population with spread."""
    found = {}
    for job in JOBS:
        for key, values in capture_samples(job).items():
            data = np.maximum(np.asarray(values, dtype=float), 1e-9)
            if np.ptp(np.log(data)) > 0:
                found[f"{job}/{key}"] = data
    return found


def test_likelihood_never_below_scipy_fit(populations):
    assert len(populations) >= 10
    for key, data in populations.items():
        ours = log_likelihood(data, weibull_fit(data))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reference = log_likelihood(
                data, stats.weibull_min.fit(data, floc=0))
        assert ours >= reference - 1e-9 * abs(reference), key


def test_score_is_zero_at_returned_shape(populations):
    for key, data in populations.items():
        shape, loc, _ = weibull_fit(data)
        assert loc == 0.0
        z = np.log(data) - np.log(data).max()
        # The score's terms are of order 1/c and mean |z|.
        tolerance = 1e-9 * (1.0 / shape + float(np.abs(z).mean()))
        assert abs(score(data, shape)) <= tolerance, key


@pytest.mark.parametrize("shape", [0.5, 1.5, 5.0])
def test_parameters_match_scipy_on_weibull_draws(shape):
    rng = np.random.default_rng(7)
    data = rng.weibull(shape, 500) * 3.0
    ours = weibull_fit(data)
    reference = stats.weibull_min.fit(data, floc=0)
    assert ours[1] == 0.0
    np.testing.assert_allclose([ours[0], ours[2]],
                               [reference[0], reference[2]], rtol=1e-3)


def test_zero_spread_raises():
    with pytest.raises(ValueError):
        fit_family("weibull", [4.0, 4.0, 4.0])


@pytest.mark.parametrize("data", [
    np.geomspace(1e-9, 1e9, 40),
    [1e-9, 1e9],
    [2.0, 3.0],
    1.28e8 * (1.0 + 1e-12 * np.arange(5)),
], ids=["1e-9..1e9", "n2-extremes", "n2", "near-degenerate"])
def test_extreme_and_tiny_samples_give_finite_parameters(data):
    shape, loc, scale = weibull_fit(data)
    assert loc == 0.0
    assert np.isfinite(shape) and shape > 0
    assert np.isfinite(scale) and scale > 0
