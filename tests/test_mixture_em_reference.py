"""The lognormal mixture's batched EM against its sequential reference.

``LognormalMixture.fit`` advances every restart's EM at once on
``(R, n, k)`` arrays.  The reference below is the per-restart loop it
replaced: one restart after another, each on its own ``(n, k)``
arrays.  Every float operation is the same, in the same order, so the
fitted mixtures must serialise equal with ``==`` — not approx — on
the populations of the seeded captures the toolchain fits and on
randomized samples (tiny, near-constant and heavily tied ones too).
"""

import numpy as np
import pytest

from repro.modeling.fitting import fit_candidates
from repro.modeling.mixture import _EPS, _MIN_SIGMA, LognormalMixture
from tests.test_ks_distance_reference import JOBS, capture_samples


def reference_em(log_data, k, max_iter, tol, rng):
    """One restart's EM; returns its final parameters and loglike."""
    n = log_data.size
    quantiles = (np.arange(k) + 0.5) / k
    mus = np.quantile(log_data, quantiles)
    mus = mus + rng.normal(scale=0.05 * (log_data.std() + _MIN_SIGMA), size=k)
    sigmas = np.full(k, max(log_data.std() / max(k, 1), _MIN_SIGMA))
    weights = np.full(k, 1.0 / k)
    previous = -np.inf
    for _ in range(max_iter):
        log_resp = (np.log(np.maximum(weights, _EPS))
                    - np.log(np.maximum(sigmas, _EPS))
                    - 0.5 * ((log_data[:, None] - mus[None, :])
                             / sigmas[None, :]) ** 2)
        peak = log_resp.max(axis=1)
        log_norm = peak + np.log(np.sum(np.exp(log_resp - peak[:, None]),
                                        axis=1))
        loglike = float(np.sum(log_norm))
        resp = np.exp(log_resp - log_norm[:, None])
        mass = resp.sum(axis=0)
        mass = np.maximum(mass, _EPS)
        weights = mass / n
        mus = (resp * log_data[:, None]).sum(axis=0) / mass
        variances = (resp * (log_data[:, None] - mus[None, :]) ** 2
                     ).sum(axis=0) / mass
        sigmas = np.sqrt(np.maximum(variances, _MIN_SIGMA ** 2))
        if abs(loglike - previous) < tol * (1 + abs(previous)):
            break
        previous = loglike
    return LognormalMixture(weights, mus, sigmas), loglike


def reference_fit(samples, n_components=2, max_iter=200, tol=1e-7, seed=0,
                  restarts=3):
    """The best of ``restarts`` sequential EM runs, first one on ties."""
    data = np.asarray(list(samples), dtype=float)
    log_data = np.log(data[data > 0])
    rng = np.random.default_rng(seed)
    best, best_loglike = None, -np.inf
    for _ in range(restarts):
        fitted, loglike = reference_em(log_data, n_components, max_iter, tol,
                                       rng)
        if loglike > best_loglike:
            best, best_loglike = fitted, loglike
    return best


def random_population(rng):
    """Positive samples of a random shape, 4 to 600 of them."""
    n = int(rng.integers(4, 601))
    shape = rng.integers(5)
    if shape == 0:  # two lognormal modes
        low = rng.lognormal(rng.uniform(0, 5), rng.uniform(0.05, 1), n // 2)
        high = rng.lognormal(rng.uniform(6, 15), rng.uniform(0.05, 1),
                             n - n // 2)
        return np.concatenate([low, high])
    if shape == 1:  # one lognormal mode
        return rng.lognormal(rng.uniform(-3, 12), rng.uniform(0.01, 3), n)
    if shape == 2:  # near-constant: a block size with ulp-scale jitter
        return 33554432.0 * (1 + 1e-12 * rng.standard_normal(n))
    if shape == 3:  # heavily tied: a handful of distinct values
        return rng.choice(rng.lognormal(10.0, 2.0, size=int(rng.integers(2, 5))),
                          size=n)
    return rng.exponential(rng.uniform(1e-3, 10.0), n)


def assert_same_fit(samples, label="", **options):
    ours = LognormalMixture.fit(samples, **options).to_dict()
    assert ours == reference_fit(samples, **options).to_dict(), (label, options)


@pytest.fixture(scope="module")
def populations():
    """Every size and inter-arrival population of the seeded captures
    with enough positive samples for a two-component fit."""
    found = {}
    for job in JOBS:
        for key, values in capture_samples(job).items():
            positive = [value for value in values if value > 0]
            if len(positive) >= 4:
                found[f"{job}/{key}"] = positive
    return found


def test_captured_populations_fit_identically(populations):
    # The populations fit_best hands to the mixture must be among them.
    mixture_bound = [key for key, data in populations.items()
                     if fit_candidates(data)[0].ks > 0.25]
    assert mixture_bound
    for key, data in populations.items():
        for seed in (0, 1):
            assert_same_fit(data, key, seed=seed)


@pytest.mark.parametrize("seed", range(24))
def test_random_populations_fit_identically(seed):
    rng = np.random.default_rng(seed)
    samples = random_population(rng)
    for k in (1, 2, 3):
        if samples.size < 2 * k:
            continue
        for max_iter in (5, 200):
            for restarts in (1, 3):
                assert_same_fit(samples, n_components=k, max_iter=max_iter,
                                restarts=restarts, seed=seed)
