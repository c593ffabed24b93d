"""Unit + property tests for distributions and fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.modeling.distributions import (
    CANDIDATE_FAMILIES,
    DegenerateDistribution,
    EmpiricalDistribution,
    FittedDistribution,
    distribution_from_dict,
    fit_family,
)
from repro.modeling.fitting import fit_best, fit_candidates
from repro.modeling.ks import ks_distance, ks_two_sample


def test_fit_exponential_recovers_rate():
    rng = np.random.default_rng(0)
    data = rng.exponential(scale=5.0, size=4000)
    fitted = fit_family("exponential", data)
    assert fitted.params[1] == pytest.approx(5.0, rel=0.1)  # scale
    assert fitted.mean() == pytest.approx(5.0, rel=0.1)


def test_fit_lognormal_recovers_parameters():
    rng = np.random.default_rng(1)
    data = rng.lognormal(mean=2.0, sigma=0.5, size=4000)
    fitted = fit_family("lognormal", data)
    sigma, _, scale = fitted.params
    assert sigma == pytest.approx(0.5, rel=0.1)
    assert np.log(scale) == pytest.approx(2.0, rel=0.1)


def test_fit_normal():
    rng = np.random.default_rng(2)
    data = rng.normal(loc=10.0, scale=2.0, size=4000)
    fitted = fit_family("normal", data)
    assert fitted.params[0] == pytest.approx(10.0, rel=0.05)
    assert fitted.params[1] == pytest.approx(2.0, rel=0.1)


def test_fit_candidates_ranks_true_family_first():
    rng = np.random.default_rng(3)
    data = rng.exponential(scale=2.0, size=3000)
    reports = fit_candidates(data)
    # Exponential (or its gamma/weibull superset) must rank on top.
    assert reports[0].family in ("exponential", "gamma", "weibull")
    assert reports[0].ks < 0.05
    # Reports are sorted by KS.
    stats = [report.ks for report in reports]
    assert stats == sorted(stats)


def test_fit_best_returns_degenerate_for_constant_data():
    fitted = fit_best([128.0] * 50)
    assert isinstance(fitted, DegenerateDistribution)
    assert fitted.value == 128.0
    assert fitted.cdf([127.0, 128.0, 129.0]).tolist() == [0.0, 1.0, 1.0]


def test_fit_best_falls_back_to_empirical_for_bimodal_data():
    # Two sharp modes no single candidate family can represent.
    data = [1.0] * 400 + [1000.0] * 400
    fitted = fit_best(data, empirical_threshold=0.1)
    assert isinstance(fitted, EmpiricalDistribution)


def test_fit_rejects_empty():
    with pytest.raises(ValueError):
        fit_best([])
    with pytest.raises(ValueError):
        fit_family("normal", [])
    with pytest.raises(ValueError):
        fit_candidates([])


def test_sampling_matches_fitted_distribution():
    rng = np.random.default_rng(4)
    data = rng.lognormal(mean=1.0, sigma=0.4, size=3000)
    fitted = fit_family("lognormal", data)
    draws = fitted.sample(3000, np.random.default_rng(5))
    result = ks_two_sample(data, draws)
    assert result.statistic < 0.05


def test_empirical_distribution_sampling():
    data = np.concatenate([np.full(500, 10.0), np.full(500, 90.0)])
    dist = EmpiricalDistribution.from_samples(data)
    draws = dist.sample(2000, np.random.default_rng(6))
    near_low = np.mean(np.abs(draws - 10.0) < 5.0)
    near_high = np.mean(np.abs(draws - 90.0) < 5.0)
    assert near_low == pytest.approx(0.5, abs=0.1)
    assert near_high == pytest.approx(0.5, abs=0.1)


def test_empirical_compresses_large_samples():
    dist = EmpiricalDistribution.from_samples(np.arange(10_000.0), max_points=128)
    assert dist.quantiles.size == 128
    assert dist.mean() == pytest.approx(4999.5, rel=0.01)


def test_serialisation_roundtrip_all_kinds():
    rng = np.random.default_rng(7)
    candidates = [
        fit_family("weibull", rng.weibull(1.5, 500) * 3.0),
        DegenerateDistribution(42.0),
        EmpiricalDistribution.from_samples(rng.random(100)),
    ]
    for dist in candidates:
        clone = distribution_from_dict(dist.to_dict())
        xs = [0.1, 1.0, 10.0]
        assert np.allclose(clone.cdf(xs), dist.cdf(xs))


def test_distribution_from_dict_rejects_garbage():
    with pytest.raises(ValueError):
        distribution_from_dict({"kind": "quantum"})
    with pytest.raises(ValueError):
        FittedDistribution("cauchy", [0, 1])


def test_ks_two_sample_distinguishes():
    rng = np.random.default_rng(8)
    same = ks_two_sample(rng.normal(size=800), rng.normal(size=800))
    different = ks_two_sample(rng.normal(size=800), rng.normal(loc=3.0, size=800))
    assert same.accept(alpha=0.01)
    assert not different.accept(alpha=0.01)
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


def test_ks_one_sample_empty_rejected():
    with pytest.raises(ValueError):
        ks_distance([], lambda x: x)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    scale=st.floats(min_value=0.1, max_value=1e6),
    n=st.integers(min_value=20, max_value=500),
)
def test_fit_best_always_returns_usable_distribution(seed, scale, n):
    """Whatever the data, fit_best yields something that samples and CDFs."""
    rng = np.random.default_rng(seed)
    data = rng.exponential(scale=scale, size=n)
    fitted = fit_best(data)
    draws = fitted.sample(16, rng)
    assert draws.shape == (16,)
    assert np.all(np.isfinite(draws))
    cdf = fitted.cdf(np.sort(data))
    assert np.all((cdf >= 0) & (cdf <= 1.0 + 1e-9))
    assert np.all(np.diff(cdf) >= -1e-9)  # monotone
