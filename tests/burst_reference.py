"""The burst classifier that analysis.classify_burst must reproduce.

This is the plain form, copied as it was before the count law moved to
signals.burst_count_logpmf: it writes the Poisson mean, the zero-mean case
and the log-factorial itself. The classifier built on the shared law must
give bit-equal posteriors, the same MAP and the same error for counts that
no hypothesis can give.
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
