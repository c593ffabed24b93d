"""Lognormal mixture models fitted by EM.

Some Hadoop flow populations are *structurally* multi-modal — the
HDFS-write component mixes jar-staging blocks, job-history files and
output blocks — and no single parametric family represents them.  The
empirical-quantile fallback handles that, but a mixture gives a
compact, interpretable, extrapolatable alternative: each mode has a
weight, location and spread.

:class:`LognormalMixture` is a K-component lognormal mixture (a 1-D
Gaussian mixture in log space) fitted with vanilla EM:

* E-step: responsibilities from current parameters,
* M-step: weighted mean/variance per component,
* quantile-spread initial means on log data, jittered per restart
  from a fixed seed, best of ``restarts`` by log-likelihood.

The restarts run side by side: one EM advances all of them on
``(R, n, k)`` arrays (restart, sample, component), so each iteration
costs one set of numpy calls instead of ``R``.  A restart that
converges keeps that iteration's parameters while the others go on.
The layout is ``(R, n, k)`` because each restart's slab then has the
memory layout of a single restart's ``(n, k)`` array, and numpy sums
it in the same order: sample by sample for each component's M-step
sums, pairwise over the restart's own row of ``n`` log-normalisers for
its log-likelihood.  The fit is therefore bit-identical to running the
restarts one after another (the sequential reference in
``tests/test_mixture_em_reference.py``).  An ``(n, R, k)`` layout
changes the summation order and the last bit of some fits.

The mixture plugs into the same serialisation protocol as the other
distribution kinds (``kind = "mixture"``).
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

import numpy as np

_MIN_SIGMA = 1e-3
_EPS = 1e-12


class LognormalMixture:
    """K-component lognormal mixture."""

    kind = "mixture"
    family = "lognormal-mixture"

    def __init__(self, weights: Sequence[float], mus: Sequence[float],
                 sigmas: Sequence[float]):
        self.weights = np.asarray(list(weights), dtype=float)
        self.mus = np.asarray(list(mus), dtype=float)
        self.sigmas = np.asarray(list(sigmas), dtype=float)
        if not (self.weights.size == self.mus.size == self.sigmas.size):
            raise ValueError("weights, mus and sigmas must have equal length")
        if self.weights.size == 0:
            raise ValueError("mixture needs at least one component")
        if np.any(self.weights < 0):
            raise ValueError("mixture weights must be >= 0")
        total = self.weights.sum()
        if total <= 0:
            raise ValueError("mixture weights must sum to a positive value")
        self.weights = self.weights / total
        self.sigmas = np.maximum(self.sigmas, _MIN_SIGMA)

    @property
    def n_components(self) -> int:
        return self.weights.size

    # -- distribution protocol ----------------------------------------------------

    def cdf(self, x) -> np.ndarray:
        from scipy import stats

        x = np.asarray(x, dtype=float)
        result = np.zeros_like(x, dtype=float)
        positive = x > 0
        for weight, mu, sigma in zip(self.weights, self.mus, self.sigmas):
            component = np.zeros_like(result)
            component[positive] = stats.norm.cdf(
                (np.log(x[positive]) - mu) / sigma)
            result += weight * component
        return result

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        components = rng.choice(self.n_components, size=n, p=self.weights)
        draws = rng.lognormal(mean=self.mus[components],
                              sigma=self.sigmas[components])
        return np.asarray(draws, dtype=float)

    def mean(self) -> float:
        return float(np.sum(
            self.weights * np.exp(self.mus + 0.5 * self.sigmas ** 2)))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "mixture",
            "weights": [float(w) for w in self.weights],
            "mus": [float(m) for m in self.mus],
            "sigmas": [float(s) for s in self.sigmas],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LognormalMixture":
        return cls(data["weights"], data["mus"], data["sigmas"])

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{w:.2f}*LN({m:.2f},{s:.2f})"
            for w, m, s in zip(self.weights, self.mus, self.sigmas))
        return f"mixture({parts})"

    # -- fitting ---------------------------------------------------------------------

    @classmethod
    def fit(cls, samples: Sequence[float], n_components: int = 2,
            max_iter: int = 200, tol: float = 1e-7,
            seed: int = 0, restarts: int = 3) -> "LognormalMixture":
        """EM fit on positive data; best of ``restarts`` initialisations."""
        data = np.asarray(list(samples), dtype=float)
        data = data[data > 0]
        if data.size < 2 * n_components:
            raise ValueError(
                f"need >= {2 * n_components} positive samples, got {data.size}")
        if n_components < 1:
            raise ValueError("n_components must be >= 1")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        if restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {restarts}")
        log_data = np.log(data)
        rng = np.random.default_rng(seed)
        weights, mus, sigmas, loglikes = cls._em(
            log_data, n_components, max_iter, tol, rng, restarts)
        best = None
        best_loglike = -np.inf
        for restart, loglike in enumerate(loglikes.tolist()):
            if loglike > best_loglike:
                best, best_loglike = restart, loglike
        assert best is not None
        return cls(weights[best], mus[best], sigmas[best])

    @staticmethod
    def _em(log_data: np.ndarray, k: int, max_iter: int, tol: float,
            rng: np.random.Generator, restarts: int):
        """Advance every restart's EM at once on ``(R, n, k)`` arrays.

        Returns each restart's ``(R, k)`` weights, mus and sigmas and
        its ``(R,)`` log-likelihood, frozen at the iteration where that
        restart converged (or at ``max_iter``).
        """
        n = log_data.size
        # Quantile-spread means with a deliberately narrow initial
        # sigma: a wide sigma makes responsibilities uniform and the
        # components collapse onto one broad mode.  Each restart
        # jitters the means with its own k draws, in restart order.
        quantiles = (np.arange(k) + 0.5) / k
        spread = log_data.std()
        mus = np.quantile(log_data, quantiles) + rng.normal(
            scale=0.05 * (spread + _MIN_SIGMA), size=(restarts, k))
        sigmas = np.full((restarts, k), max(spread / max(k, 1), _MIN_SIGMA))
        weights = np.full((restarts, k), 1.0 / k)
        points = log_data[None, :, None]
        final = [np.empty((restarts, k)) for _ in range(3)] + \
            [np.full(restarts, -np.inf)]
        running = np.ones(restarts, dtype=bool)
        previous = np.full(restarts, -np.inf)
        for iteration in range(max_iter):
            # E-step: responsibilities (R x n x k), computed in log space.
            log_resp = (np.log(np.maximum(weights, _EPS))[:, None, :]
                        - np.log(np.maximum(sigmas, _EPS))[:, None, :]
                        - 0.5 * ((points - mus[:, None, :])
                                 / sigmas[:, None, :]) ** 2)
            log_norm = _logsumexp_last(log_resp)
            loglike = np.sum(log_norm, axis=1)
            resp = np.exp(log_resp - log_norm[:, :, None])
            # M-step.
            mass = resp.sum(axis=1)
            mass = np.maximum(mass, _EPS)
            weights = mass / n
            mus = (resp * points).sum(axis=1) / mass
            variances = (resp * (points - mus[:, None, :]) ** 2
                         ).sum(axis=1) / mass
            sigmas = np.sqrt(np.maximum(variances, _MIN_SIGMA ** 2))
            done = running & ((np.abs(loglike - previous)
                               < tol * (1 + np.abs(previous)))
                              | (iteration == max_iter - 1))
            if done.any():
                # The restarts still running go on; later work on the
                # rows of finished ones is never read.
                for out, state in zip(final, (weights, mus, sigmas, loglike)):
                    out[done] = state[done]
                running &= ~done
                if not running.any():
                    break
            previous = loglike
        return final


def _logsumexp_last(array: np.ndarray) -> np.ndarray:
    peak = array.max(axis=-1)
    return peak + np.log(np.sum(np.exp(array - peak[..., None]), axis=-1))


def fit_mixture_if_better(samples: Sequence[float], baseline_ks: float,
                          n_components: int = 2,
                          seed: int = 0) -> "LognormalMixture | None":
    """Fit a mixture and return it only if it beats ``baseline_ks``.

    The selection hook :func:`repro.modeling.fitting.fit_best` uses when
    no single family fits: a mixture that halves the KS distance is
    preferred over the empirical fallback because it extrapolates.
    """
    from repro.modeling.ks import ks_distance

    data = [value for value in samples if value > 0]
    if len(data) < 2 * n_components:
        return None
    mixture = LognormalMixture.fit(data, n_components=n_components, seed=seed)
    ks = ks_distance(data, mixture.cdf)
    if ks < 0.5 * baseline_ks:
        return mixture
    return None
