"""The burst classifier and burst sampler that analysis and signals must reproduce.

classify_burst is the plain form, copied as it was before the count law
moved to signals.burst_count_logpmf: it writes the Poisson mean, the
zero-mean case and the log-factorial itself. The classifier built on the
shared law must give bit-equal posteriors, the same MAP and the same error
for counts that no hypothesis can give.

_burst_law and _burst_draw are the per-photon sampler, copied as it was
before signals drew each detection bin's count from its Poisson law: a
Poisson number of burst photons with arrival times from the truncated
exponential envelope, a Poisson number of background photons uniform in
the window, binned. By Poisson thinning the bins' counts are independent
Poissons, so the per-bin law must follow this sampler in distribution.
"""

import math

import numpy as np

from atomtrap.analysis import BurstClassification
from atomtrap.signals import BurstModel


def classify_burst(window_counts: int, n_atoms: int, model: BurstModel) -> BurstClassification:
    """Posterior over the number of bright (F=4) atoms in a detection window.

    Exact Poisson likelihood with mean background + k * photons_per_atom
    for k bright atoms, under a uniform prior. Raises ValueError for counts
    that no hypothesis can give, when every mean is 0.
    """
    if n_atoms < 0:
        raise ValueError("n_atoms must be non-negative")
    if window_counts < 0:
        raise ValueError("window_counts must be non-negative")
    k = np.arange(n_atoms + 1)
    mean = model.background_photons_per_window + k * model.mean_photons_per_atom
    if window_counts > 0 and not np.any(mean > 0):
        raise ValueError(f"{window_counts} counts are impossible when every hypothesis "
                         "has a mean of 0 photons")
    with np.errstate(divide="ignore"):
        loglik = np.where(
            mean > 0,
            window_counts * np.log(np.maximum(mean, 1e-300)) - mean - math.lgamma(window_counts + 1),
            0.0 if window_counts == 0 else -np.inf,
        )
    post = np.exp(loglik - loglik.max())
    post /= post.sum()
    return BurstClassification(n_atoms=n_atoms, posterior=post, map_k=int(np.argmax(post)))


def _burst_law(model: BurstModel, window: float) -> tuple[float, float, int]:
    """(window, envelope CDF at the window's end, bin count) of a detection burst."""
    if not 0 < window < np.inf:
        raise ValueError("window must be positive and finite")
    cdf_end = 1.0 - np.exp(-window / model.burst_duration_mean)
    return window, cdf_end, max(int(np.ceil(window / model.detection_bin - 1e-9)), 1)


def _burst_draw(n_f4: int, model: BurstModel, law: tuple[float, float, int],
                rng: np.random.Generator) -> np.ndarray:
    """The photon counts per detection bin of one window holding n_f4 bright atoms."""
    window, cdf_end, n_bins = law
    arrivals = []
    n_photons = int(rng.poisson(model.mean_photons_per_atom * n_f4)) if n_f4 else 0
    if n_photons:
        # inverse-CDF sample of the exponential envelope truncated to the window
        u = rng.random(n_photons)
        arrivals.append(-model.burst_duration_mean * np.log1p(-u * cdf_end))
    n_bg = int(rng.poisson(model.background_photons_per_window))
    if n_bg:
        arrivals.append(rng.random(n_bg) * window)
    if not arrivals:
        return np.zeros(n_bins, dtype=np.int64)
    idx = (np.concatenate(arrivals) / model.detection_bin).astype(int)
    return np.bincount(np.minimum(idx, n_bins - 1), minlength=n_bins)
