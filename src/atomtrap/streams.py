"""Counter-based random streams for reproducible, order-independent runs.

run_stream(master_seed, index) is the Philox stream with key = master_seed
and the index in the high word of the 256-bit counter. An experiment gives
each of its arms (one schedule point, say) the next `repetitions` run
counters and draws all of the arm's runs from the stream at the first of
them. Draws advance only the counter's low words, so no arm's stream
reaches the next one's, and the result does not depend on the order in
which the arms run. The state setter takes the counter as Python ints,
exact over the whole 64-bit range. Each call builds its own generator, so
two generators it returned never alias.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["run_stream"]


# A seed or index that is not an integer (operator.index raises TypeError,
# where int() would truncate a float) or lies outside 64 bits is rejected
# rather than reduced, so distinct seeds or runs never share a stream.
def _u64(value: int, name: str) -> int:
    value = operator.index(value)
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must be in [0, 2**64)")
    return value


def run_stream(master_seed: int, run_index: int) -> np.random.Generator:
    """Generator for run `run_index` of the experiment seeded by `master_seed`.

    master_seed is the 64-bit Philox key and run_index the high word of
    its counter; either raises TypeError when it is not an integer and
    ValueError outside [0, 2**64).
    """
    key = _u64(master_seed, "master_seed")
    bitgen = np.random.Philox(key=np.uint64(key))
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, _u64(run_index, "run_index")], "key": [key, 0]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,  # empty: the next draw computes a fresh block
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bitgen)
