"""Candidate distributions: fitting, sampling, serialisation.

The parametric family matches the candidate set traffic-modelling
papers (Keddah included) fit against flow statistics: exponential,
lognormal, Weibull, gamma, Pareto, normal and uniform.  Positive-support
families are fitted with location pinned at zero, the standard choice
for sizes and inter-arrival gaps.

Every family but one is fitted by scipy's ``fit``.  Weibull is fitted
by its exact MLE: with location pinned at zero the likelihood profiles
to one equation in the shape ``c``,

    sum(x**c * ln x) / sum(x**c) - 1/c - mean(ln x) = 0,

whose left side increases from -inf to a positive limit whenever the
data has spread, so it has exactly one root.  :func:`_fit_weibull`
brackets that root and solves it with ``brentq``; the scale then has
the closed form ``mean(x**c) ** (1/c)``.  scipy's generic Weibull fit
runs Nelder–Mead over the full likelihood, which costs hundreds of
likelihood evaluations per fit and can stop short of the maximum.

Two non-parametric fallbacks complete the set:

* :class:`DegenerateDistribution` — a point mass, for metrics the
  cluster quantises (every HDFS-read flow is exactly one block);
* :class:`EmpiricalDistribution` — inverse-transform sampling from
  stored quantiles, for populations no single family represents (e.g.
  the bimodal full-block + tail-block mix).

Everything serialises to plain dicts so fitted models round-trip
through JSON.

scipy is loaded only when a parametric family is fitted or evaluated:
:data:`CANDIDATE_FAMILIES` names each family's ``scipy.stats``
attribute, :func:`_scipy_dist` resolves it on first use, and
:func:`_fit_weibull` imports ``brentq`` where it calls it.  Capture,
replay and every spawn-pool worker import this module without paying
about a second to load ``scipy.stats`` they never use;
``tests/test_import_graph.py`` keeps it that way.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

_POSITIVE_EPS = 1e-9

# Bracket expansion for the Weibull shape: halving or doubling from 1,
# 2**-200 .. 2**200 covers every root float data can produce.
_WEIBULL_BRACKET_STEPS = 200

# name -> (scipy.stats attribute, fit kwargs).  fit_family hands
# Weibull to _fit_weibull instead of scipy's fit; its kwargs only
# record the pinned location.
CANDIDATE_FAMILIES: Dict[str, Tuple[str, Dict[str, Any]]] = {
    "exponential": ("expon", {"floc": 0}),
    "lognormal": ("lognorm", {"floc": 0}),
    "weibull": ("weibull_min", {"floc": 0}),
    "gamma": ("gamma", {"floc": 0}),
    "pareto": ("pareto", {"floc": 0}),
    "normal": ("norm", {}),
    "uniform": ("uniform", {}),
}

_POSITIVE_FAMILIES = {"exponential", "lognormal", "weibull", "gamma", "pareto"}


def _scipy_dist(family: str):
    """The ``scipy.stats`` distribution object behind ``family``."""
    from scipy import stats

    return getattr(stats, CANDIDATE_FAMILIES[family][0])


class FittedDistribution:
    """A fitted parametric distribution."""

    def __init__(self, family: str, params: Sequence[float]):
        if family not in CANDIDATE_FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        self.family = family
        self.params = tuple(float(p) for p in params)
        self._dist = _scipy_dist(family)

    @property
    def kind(self) -> str:
        return "parametric"

    def cdf(self, x) -> np.ndarray:
        return self._dist.cdf(np.asarray(x, dtype=float), *self.params)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        draws = self._dist.rvs(*self.params, size=n, random_state=rng)
        if self.family in _POSITIVE_FAMILIES:
            draws = np.maximum(draws, _POSITIVE_EPS)
        return np.asarray(draws, dtype=float)

    def mean(self) -> float:
        return float(self._dist.mean(*self.params))

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "parametric", "family": self.family,
                "params": list(self.params)}

    def __repr__(self) -> str:
        rounded = ", ".join(f"{p:.4g}" for p in self.params)
        return f"{self.family}({rounded})"


class DegenerateDistribution:
    """A point mass at ``value`` (zero-variance data)."""

    kind = "degenerate"
    family = "degenerate"

    def __init__(self, value: float):
        self.value = float(value)

    @property
    def params(self) -> Tuple[float]:
        return (self.value,)

    def cdf(self, x) -> np.ndarray:
        return (np.asarray(x, dtype=float) >= self.value).astype(float)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(n, self.value)

    def mean(self) -> float:
        return self.value

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "degenerate", "value": self.value}

    def __repr__(self) -> str:
        return f"degenerate({self.value:.4g})"


class EmpiricalDistribution:
    """Inverse-transform sampling from stored quantiles.

    Stores up to ``max_points`` evenly spaced quantiles of the data and
    samples by linear interpolation between them — a compact, serialisable
    approximation of the ECDF.
    """

    kind = "empirical"
    family = "empirical"

    def __init__(self, quantiles: Sequence[float]):
        values = np.asarray(list(quantiles), dtype=float)
        if values.size == 0:
            raise ValueError("empirical distribution needs at least one quantile")
        self.quantiles = np.sort(values)

    @classmethod
    def from_samples(cls, samples: Sequence[float],
                     max_points: int = 256) -> "EmpiricalDistribution":
        data = np.sort(np.asarray(list(samples), dtype=float))
        if data.size == 0:
            raise ValueError("cannot build empirical distribution from no samples")
        if data.size <= max_points:
            return cls(data)
        probs = np.linspace(0.0, 1.0, max_points)
        return cls(np.quantile(data, probs))

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.searchsorted(self.quantiles, x, side="right") / self.quantiles.size

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(n)
        grid = np.linspace(0.0, 1.0, self.quantiles.size)
        return np.interp(u, grid, self.quantiles)

    def mean(self) -> float:
        return float(self.quantiles.mean())

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "empirical", "quantiles": [float(q) for q in self.quantiles]}

    def __repr__(self) -> str:
        return f"empirical(n={self.quantiles.size})"


def fit_family(family: str, samples: Sequence[float]) -> FittedDistribution:
    """MLE-fit one family to the samples.

    Raises ``ValueError`` for empty data; positive-support families clip
    non-positive samples to a tiny epsilon first (zero-duration gaps are
    common when pipeline hops start simultaneously).
    """
    fit_kwargs = CANDIDATE_FAMILIES[family][1]
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        raise ValueError("cannot fit a distribution to no samples")
    if family in _POSITIVE_FAMILIES:
        data = np.maximum(data, _POSITIVE_EPS)
    if family == "weibull":
        params = _fit_weibull(data)
    else:
        params = _scipy_dist(family).fit(data, **fit_kwargs)
    return FittedDistribution(family, params)


def _fit_weibull(data: np.ndarray) -> Tuple[float, float, float]:
    """Weibull MLE with location 0: ``(shape, 0.0, scale)``.

    Solves the profile-likelihood score equation (module docstring) on
    log-data shifted by its maximum, so every ``x**c`` becomes
    ``exp(c * z)`` with ``z <= 0`` and cannot overflow.  Raises
    ``ValueError`` for data with no spread, which has no finite MLE.
    """
    logs = np.log(data)
    top = float(logs.max())
    z = logs - top
    if float(z.min()) == 0.0:
        raise ValueError("Weibull MLE needs data with spread")
    mean_z = float(z.mean())

    def score(c: float) -> float:
        w = np.exp(c * z)
        return float(np.dot(w, z) / w.sum()) - 1.0 / c - mean_z

    # The score rises with c: double (or halve) the bracket from c=1
    # until it straddles the root.
    lo = hi = 1.0
    upward = score(1.0) < 0.0
    for _ in range(_WEIBULL_BRACKET_STEPS):
        if upward:
            lo, hi = hi, hi * 2.0
            if score(hi) >= 0.0:
                break
        else:
            lo, hi = lo / 2.0, lo
            if score(lo) <= 0.0:
                break
    else:
        raise ValueError("Weibull shape bracket did not close")
    from scipy.optimize import brentq

    shape = brentq(score, lo, hi)
    scale = np.exp(top + np.log(np.mean(np.exp(shape * z))) / shape)
    return float(shape), 0.0, float(scale)


def distribution_from_dict(data: Dict[str, Any]):
    """Inverse of every distribution's ``to_dict``."""
    kind = data.get("kind")
    if kind == "parametric":
        return FittedDistribution(data["family"], data["params"])
    if kind == "degenerate":
        return DegenerateDistribution(data["value"])
    if kind == "empirical":
        return EmpiricalDistribution(data["quantiles"])
    if kind == "mixture":
        from repro.modeling.mixture import LognormalMixture

        return LognormalMixture.from_dict(data)
    raise ValueError(f"unknown distribution payload: {data!r}")
