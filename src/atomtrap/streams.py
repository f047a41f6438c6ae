"""Counter-based random streams for reproducible, order-independent runs.

Every run of an experiment gets the Philox stream with key = master_seed
and the run counter placed in the high word of the 256-bit counter. The
streams are independent by construction and do not depend on execution
order, so serial and parallel execution give bit-identical results.

A run's stream starts one way: RunStreams.at hands a Philox's state setter
the key, the counter [0, 0, 0, run_index], an empty output buffer and no
cached 32-bit half. The setter converts those lists of Python ints to
uint64 one word at a time and exactly over the whole 64-bit range; numpy
arrays would cost it more than twice as long. The runner keeps one
RunStreams per experiment and rewinds its Philox to each run, since
building a Philox and a Generator costs more than a short run's physics;
run_stream builds a fresh RunStreams per call, so generators held at the
same time never alias.
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
    return RunStreams(master_seed).at(run_index)


class RunStreams:
    """The run streams of one master seed, drawn from one reused Philox.

    at(i) rewinds the shared generator to the start of run i's stream and
    returns it, so a generator returned earlier is rewound too: hold only
    the latest.
    """

    def __init__(self, master_seed: int):
        master_seed = _u64(master_seed, "master_seed")
        self._position = [0, 0, 0, 0]  # the Philox counter, the run index in its high word
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._position, "key": [master_seed, 0]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,  # empty: the next draw computes a fresh block
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._bitgen = np.random.Philox(key=np.uint64(master_seed))
        self._rng = np.random.Generator(self._bitgen)

    def at(self, run_index: int) -> np.random.Generator:
        """The shared generator, rewound to the start of run `run_index`."""
        self._position[3] = _u64(run_index, "run_index")
        self._bitgen.state = self._state  # the setter copies the words
        return self._rng
