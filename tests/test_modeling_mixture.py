"""Tests for the EM-fitted lognormal mixture."""

import numpy as np
import pytest

from repro.modeling.distributions import EmpiricalDistribution, distribution_from_dict
from repro.modeling.fitting import fit_best
from repro.modeling.ks import ks_distance, ks_two_sample
from repro.modeling.mixture import LognormalMixture, fit_mixture_if_better


def bimodal_sample(n=2000, seed=0):
    rng = np.random.default_rng(seed)
    low = rng.lognormal(mean=np.log(100.0), sigma=0.2, size=n // 2)
    high = rng.lognormal(mean=np.log(100_000.0), sigma=0.3, size=n // 2)
    return np.concatenate([low, high])


def test_em_recovers_two_well_separated_modes():
    data = bimodal_sample()
    mixture = LognormalMixture.fit(data, n_components=2, seed=1)
    mus = sorted(mixture.mus)
    assert mus[0] == pytest.approx(np.log(100.0), abs=0.15)
    assert mus[1] == pytest.approx(np.log(100_000.0), abs=0.15)
    assert sorted(mixture.weights) == pytest.approx([0.5, 0.5], abs=0.05)


def test_mixture_fits_bimodal_far_better_than_single_family():
    data = bimodal_sample()
    mixture = LognormalMixture.fit(data, seed=2)
    ks = ks_distance(data, mixture.cdf)
    assert ks < 0.05


def test_mixture_sampling_matches_fit():
    data = bimodal_sample(seed=3)
    mixture = LognormalMixture.fit(data, seed=3)
    draws = mixture.sample(2000, np.random.default_rng(4))
    assert ks_two_sample(data, draws).statistic < 0.06


def test_mixture_cdf_properties():
    mixture = LognormalMixture([0.5, 0.5], [0.0, 3.0], [0.5, 0.5])
    xs = np.array([0.0, 0.5, 1.0, 10.0, 1000.0])
    cdf = mixture.cdf(xs)
    assert cdf[0] == 0.0
    assert np.all(np.diff(cdf) >= 0)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-3)


def test_mixture_mean_closed_form():
    mixture = LognormalMixture([1.0], [1.0], [0.5])
    assert mixture.mean() == pytest.approx(np.exp(1.0 + 0.125))


def test_mixture_validation():
    with pytest.raises(ValueError):
        LognormalMixture([], [], [])
    with pytest.raises(ValueError):
        LognormalMixture([0.5], [0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        LognormalMixture([-1.0, 2.0], [0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        LognormalMixture.fit([1.0, 2.0], n_components=2)  # too few samples


def test_mixture_serialisation_roundtrip():
    mixture = LognormalMixture.fit(bimodal_sample(seed=5), seed=5)
    clone = distribution_from_dict(mixture.to_dict())
    assert isinstance(clone, LognormalMixture)
    xs = [10.0, 100.0, 1e5]
    assert np.allclose(clone.cdf(xs), mixture.cdf(xs))


def test_fit_best_uses_mixture_for_bimodal_data():
    data = bimodal_sample(seed=6)
    fitted = fit_best(data, empirical_threshold=0.1)
    assert isinstance(fitted, LognormalMixture)


def test_fit_best_can_disable_mixture():
    data = bimodal_sample(seed=7)
    fitted = fit_best(data, empirical_threshold=0.1, try_mixture=False)
    assert isinstance(fitted, EmpiricalDistribution)


def test_fit_mixture_if_better_rejects_marginal_gains():
    # Unimodal data: the mixture can't halve an already-tiny KS.
    rng = np.random.default_rng(8)
    data = rng.lognormal(0.0, 0.3, size=500)
    assert fit_mixture_if_better(data, baseline_ks=0.02) is None


def test_fit_mixture_if_better_handles_tiny_samples():
    assert fit_mixture_if_better([1.0, 2.0], baseline_ks=0.9) is None
