"""Counter-based random streams for reproducible, order-independent runs.

Every run of an experiment gets the Philox stream with key = master_seed
and the run counter placed in the high word of the 256-bit counter. The
streams are independent by construction and do not depend on execution
order, so serial and parallel execution give bit-identical results.

run_stream returns a fresh Generator per call, so generators held at the
same time never alias. Building one costs a Philox, a Generator and an
unused SeedSequence, which is more than a short run's physics; the runner
therefore draws its runs from RunStreams, which keeps one Philox per
experiment and rewinds it to each run's stream start: the same key,
counter [0, 0, 0, run_index], an empty output buffer and no cached
32-bit half. Its draws equal run_stream's bit for bit. The rewind hands
the state setter lists of Python ints, which it converts to uint64 one
word at a time and exactly over the whole 64-bit range; numpy arrays
would cost the setter more than twice as long.
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


def _counter(run_index: int) -> np.ndarray:
    # uint64 throughout: the Philox(counter=...) constructor would pass an
    # index above 2**63 in a Python list through float64 and merge
    # neighbouring runs (the state setter that RunStreams uses does not)
    return np.array([0, 0, 0, run_index], dtype=np.uint64)


def run_stream(master_seed: int, run_index: int) -> np.random.Generator:
    """Generator for run `run_index` of the experiment seeded by `master_seed`.

    master_seed is the 64-bit Philox key and run_index the high word of
    its counter; either raises TypeError when it is not an integer and
    ValueError outside [0, 2**64).
    """
    master_seed = _u64(master_seed, "master_seed")
    run_index = _u64(run_index, "run_index")
    bitgen = np.random.Philox(key=np.uint64(master_seed), counter=_counter(run_index))
    return np.random.Generator(bitgen)


class RunStreams:
    """The run streams of one master seed, drawn from one reused Philox.

    at(i) rewinds the shared generator to where run_stream(master_seed, i)
    starts and returns it, so a generator returned earlier is rewound too:
    hold only the latest.
    """

    def __init__(self, master_seed: int):
        master_seed = _u64(master_seed, "master_seed")
        self._counter = [0, 0, 0, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": [master_seed, 0]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,  # empty: the next draw computes a fresh block
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._bitgen = np.random.Philox(key=np.uint64(master_seed))
        self._rng = np.random.Generator(self._bitgen)

    def at(self, run_index: int) -> np.random.Generator:
        """The shared generator, rewound to the start of run `run_index`."""
        self._counter[3] = _u64(run_index, "run_index")
        self._bitgen.state = self._state  # the setter copies the words
        return self._rng
