"""Two-sample chi-square test for discrete laws, shared by the endpoint-law tests."""

from collections import Counter

import numpy as np
from scipy import stats


def chi2_two_sample(a, b, min_pooled=10) -> float:
    """p-value of the chi-square test that samples a and b follow one discrete law.

    Outcomes are taken in sorted order and pooled with their neighbours
    until each cell holds at least min_pooled observations of both samples
    together, so no expected cell count of equal-sized samples falls below
    min_pooled / 2. A single cell (both samples constant and equal) gives 1.
    """
    count_a, count_b = Counter(a), Counter(b)
    cells, cell = [], [0, 0]
    for key in sorted(set(count_a) | set(count_b)):
        cell[0] += count_a[key]
        cell[1] += count_b[key]
        if sum(cell) >= min_pooled:
            cells.append(cell)
            cell = [0, 0]
    if sum(cell):
        if cells:
            cells[-1] = [cells[-1][0] + cell[0], cells[-1][1] + cell[1]]
        else:
            cells.append(cell)
    if len(cells) < 2:
        return 1.0
    return float(stats.chi2_contingency(np.array(cells).T, correction=False).pvalue)
