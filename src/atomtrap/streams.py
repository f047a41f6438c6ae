"""Counter-based random streams for reproducible, order-independent runs.

Every run of an experiment gets the Philox stream with key = master_seed
and the run counter placed in the high word of the 256-bit counter. The
streams are independent by construction and do not depend on execution
order, so serial and parallel execution give bit-identical results.
"""

from __future__ import annotations

import numpy as np

__all__ = ["run_stream"]


def run_stream(master_seed: int, run_index: int) -> np.random.Generator:
    """Generator for run `run_index` of the experiment seeded by `master_seed`.

    master_seed is the 64-bit Philox key; a seed outside [0, 2**64) is
    rejected rather than reduced, so distinct seeds never share a stream.
    """
    if not 0 <= master_seed < 2**64:
        raise ValueError("master_seed must be in [0, 2**64)")
    if run_index < 0:
        raise ValueError("run_index must be non-negative")
    bitgen = np.random.Philox(key=np.uint64(master_seed), counter=[0, 0, 0, run_index])
    return np.random.Generator(bitgen)
