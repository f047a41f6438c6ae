"""Recursive binary segmentation: the reference detect_steps must reproduce.

This is the plain form of the search that analysis.detect_steps runs one
tree depth at a time: split the segment at the best single split, keep it
when its gain exceeds the penalty, and recurse into both halves. It
recurses once per accepted split, so keep its inputs short.
"""

import math

import numpy as np


def _best_split(cs: np.ndarray, lo: int, hi: int):
    """Best single split of bins [lo, hi): (log-likelihood gain, split index).

    cs holds the prefix sums of the counts with a leading 0, so bins
    [a, b) hold cs[b] - cs[a] counts. A segment's Poisson log-likelihood at
    its rate MLE is total * ln(total / n) - total, without factorial terms.
    """
    n = hi - lo
    if n < 2:
        return -np.inf, None
    total = cs[hi] - cs[lo]
    i = np.arange(1, n)
    left = cs[lo + 1:hi] - cs[lo]
    right = total - left
    with np.errstate(divide="ignore", invalid="ignore"):
        ll_left = np.where(left > 0, left * np.log(left / i) - left, 0.0)
        ll_right = np.where(right > 0, right * np.log(right / (n - i)) - right, 0.0)
    whole = total * math.log(total / n) - total if total > 0 else 0.0
    gains = ll_left + ll_right - whole
    k = int(np.argmax(gains))
    return float(gains[k]), lo + k + 1


def binary_segmentation(counts, bin_width: float, penalty: float | None = None):
    """(change_points, levels) of the counts, as detect_steps defines them."""
    n = len(counts)
    if penalty is None:
        penalty = 1.5 * math.log(max(n, 2))
    cs = np.concatenate([[0.0], np.cumsum(counts, dtype=float)])
    change_points: list[int] = []

    def recurse(lo: int, hi: int) -> None:
        gain, cp = _best_split(cs, lo, hi)
        if cp is None or gain <= penalty:
            return
        recurse(lo, cp)
        change_points.append(cp)
        recurse(cp, hi)

    if n >= 2:
        recurse(0, n)
    change_points.sort()
    boundaries = [0, *change_points, n]
    levels = [
        float(cs[b] - cs[a]) / ((b - a) * bin_width)
        for a, b in zip(boundaries[:-1], boundaries[1:])
    ]
    return change_points, levels
