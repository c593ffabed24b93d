"""Model selection's KS distance against scipy's ``kstest`` statistic.

``ks_distance`` recomputes the one-sample KS statistic without scipy's
exact p-value.  Model selection ranks fits by it, so it must equal
``scipy.stats.kstest(x, cdf).statistic`` bit for bit — exact ``==``,
not approx — and ``fit_candidates`` must rank families in the order
``kstest`` would.  The samples are the flow-size and inter-arrival
populations of small seeded captures (which carry the block-size ties
the toolchain really fits), plus hand-made edge cases.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from repro.api import run_capture
from repro.capture.records import TrafficComponent
from repro.modeling.distributions import CANDIDATE_FAMILIES, fit_family
from repro.modeling.fitting import fit_candidates
from repro.modeling.ks import ks_distance
from repro.modeling.mixture import LognormalMixture

JOBS = ("terasort", "wordcount", "grep")


def kstest_statistic(samples, cdf) -> float:
    return float(stats.kstest(np.asarray(samples, dtype=float), cdf).statistic)


def identical(ours: float, reference: float) -> bool:
    """Exact equality, with NaN equal to NaN (a fit to tied data)."""
    return ours == reference or (math.isnan(ours) and math.isnan(reference))


def capture_samples(job):
    """Every size and inter-arrival population of one seeded capture."""
    trace = run_capture(job, input_gb=1.0, nodes=8, seed=3)
    samples = {}
    for component in TrafficComponent.data_components():
        samples[f"{component.value}/size"] = trace.flow_sizes(component.value)
        samples[f"{component.value}/interarrival"] = \
            trace.interarrivals(component.value)
    return {key: values for key, values in samples.items() if values}


@pytest.fixture(scope="module")
def captured():
    return {job: capture_samples(job) for job in JOBS}


def fitted_families(samples):
    """Each candidate family's MLE fit, skipping families that fail."""
    fits = []
    for family in CANDIDATE_FAMILIES:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fits.append(fit_family(family, np.asarray(samples, dtype=float)))
        except Exception:
            continue
    return fits


@pytest.mark.parametrize("job", JOBS)
def test_distance_equals_kstest_on_every_family_fit(captured, job):
    checked = 0
    for key, samples in captured[job].items():
        for fitted in fitted_families(samples):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ours = ks_distance(samples, fitted.cdf)
                reference = kstest_statistic(samples, fitted.cdf)
            assert identical(ours, reference), (job, key, fitted.family)
            checked += 1
    assert checked >= 5 * len(CANDIDATE_FAMILIES)


@pytest.mark.parametrize("job", JOBS)
def test_fit_candidates_ranks_families_in_kstest_order(captured, job):
    for key, samples in captured[job].items():
        if len(set(samples)) < 2:
            continue
        reports = fit_candidates(samples)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reference = [kstest_statistic(samples, report.distribution.cdf)
                         for report in reports]
        assert all(map(identical, (report.ks for report in reports), reference)), \
            (job, key)
        # Surviving families, in candidate order, stably sorted by kstest.
        survivors = [family for family in CANDIDATE_FAMILIES
                     if family in {report.family for report in reports}]
        by_kstest = dict(zip((report.family for report in reports), reference))
        assert [report.family for report in reports] == \
            sorted(survivors, key=by_kstest.__getitem__), (job, key)


def test_distance_on_the_mixture_cdf(captured):
    samples = [value for value in captured["grep"]["hdfs_write/size"] if value > 0]
    mixture = LognormalMixture.fit(samples, seed=0)
    assert ks_distance(samples, mixture.cdf) == \
        kstest_statistic(samples, mixture.cdf)


@pytest.mark.parametrize("seed", range(20))
def test_distance_equals_kstest_on_tied_samples(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 200))
    samples = rng.choice(rng.lognormal(10.0, 2.0, size=max(1, n // 4)), size=n)
    for fitted in fitted_families(samples):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert identical(ks_distance(samples, fitted.cdf),
                             kstest_statistic(samples, fitted.cdf)), fitted.family


@pytest.mark.parametrize("value", [0.0, 1.0, 3.5, 1e9])
def test_distance_on_a_single_sample(value):
    cdf = stats.expon(scale=2.0).cdf
    assert ks_distance([value], cdf) == kstest_statistic([value], cdf)


def test_d_plus_and_d_minus_ties_match_scipy():
    # D+ == D- exactly: both sides are 0.5 for a cdf of 0.5 at one point.
    def cdf(x):
        return np.full_like(x, 0.5)

    assert ks_distance([1.0], cdf) == kstest_statistic([1.0], cdf) == 0.5


@pytest.mark.parametrize("where", ["everywhere", "one point"])
def test_nan_from_the_cdf_propagates(where):
    def cdf(x):
        values = stats.norm.cdf(x)
        if where == "everywhere":
            return np.full_like(values, np.nan)
        values[len(values) // 2] = np.nan
        return values

    samples = [-1.0, 0.0, 0.5, 2.0]
    assert math.isnan(ks_distance(samples, cdf))
    assert math.isnan(kstest_statistic(samples, cdf))
