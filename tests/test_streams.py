import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomtrap import run_stream


def test_reproducible():
    a = run_stream(42, 7).random(100)
    b = run_stream(42, 7).random(100)
    assert np.array_equal(a, b)


def test_distinct_runs_distinct_streams():
    a = run_stream(42, 0).random(100)
    b = run_stream(42, 1).random(100)
    assert not np.array_equal(a, b)


def test_distinct_seeds_distinct_streams():
    a = run_stream(0, 0).random(100)
    b = run_stream(1, 0).random(100)
    assert not np.array_equal(a, b)


def test_order_independent():
    # drawing run 5 before run 2 gives the same streams as the reverse order
    first = {i: run_stream(9, i).random(10) for i in (5, 2, 8)}
    second = {i: run_stream(9, i).random(10) for i in (2, 8, 5)}
    for i in first:
        assert np.array_equal(first[i], second[i])


def test_no_block_overlap():
    # consecutive run indices must not produce shifted copies of each other
    a = run_stream(3, 0).random(4096)
    b = run_stream(3, 1).random(4096)
    for shift in range(0, 2048, 256):
        assert not np.array_equal(a[shift:shift + 512], b[:512])


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        run_stream(0, -1)


def test_seed_beyond_64_bits_rejected():
    # s and s + 2**64 must not silently share a stream
    run_stream(2**64 - 1, 0)
    with pytest.raises(ValueError, match="master_seed"):
        run_stream(2**64 + 5, 0)
    with pytest.raises(ValueError, match="master_seed"):
        run_stream(-1, 0)


def test_high_run_indices_are_distinct_streams():
    # an index above 2**63 must not pass through float64 on its way to the counter
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = run_stream(5, 2**63).random(8)
        assert not np.array_equal(run_stream(5, 2**63 + 1).random(8), top)
        assert not np.array_equal(run_stream(5, 2**64 - 1).random(8), run_stream(5, 0).random(8))
    with pytest.raises(ValueError, match="run_index"):
        run_stream(5, 2**64)


def _draws(rng) -> list:
    """One of each draw the simulators make, plus 32-bit integers."""
    return [rng.random(3), rng.poisson(3.0, 4), rng.binomial((5, 7), (0.3, 0.8)),
            rng.exponential(2.0, 2), rng.integers(0, 2**32, 3, dtype=np.uint32)]


def _same(a: list, b: list) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


def _philox(seed: int, index: int) -> np.random.Generator:
    """The stream's definition: key seed, the index in the counter's high word."""
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 192))


INDICES = [0, 1, 77, 10**6, 2**63 + 1, 2**64 - 1]


@pytest.mark.parametrize("index", INDICES)
def test_run_streams_equal_run_stream(index):
    # run_stream hands the state setter Python-int lists, which stay exact
    # up to 2**64 - 1
    assert _same(_draws(_philox(9, index)), _draws(run_stream(9, index)))


def test_run_streams_out_of_order_and_repeated():
    for index in [77, 0, 2**64 - 1, 77, 1, 0, 10**6, 2**63 + 1, 1]:
        assert _same(_draws(_philox(9, index)), _draws(run_stream(9, index)))


# Generators run_stream returned never alias: one left mid-block, or holding
# a cached 32-bit half, neither changes a new one nor is changed by it.
def test_run_streams_rewind_a_half_used_buffer():
    rng, reference = run_stream(4, 3), _philox(4, 3)
    rng.random(3), reference.random(3)  # three of the four words of the current block
    assert rng.bit_generator.state["buffer_pos"] == 3
    assert _same(_draws(run_stream(4, 8)), _draws(_philox(4, 8)))
    assert _same(_draws(rng), _draws(reference))


def test_run_streams_rewind_a_cached_32_bit_half():
    rng, reference = run_stream(4, 3), _philox(4, 3)
    rng.integers(0, 2**32, dtype=np.uint32), reference.integers(0, 2**32, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    assert _same(_draws(run_stream(4, 8)), _draws(_philox(4, 8)))
    assert _same(_draws(rng), _draws(reference))


@pytest.mark.parametrize("seed, index", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_run_streams_reject_what_run_stream_rejects(seed, index):
    # the message names the argument out of range
    name = "master_seed" if index == 0 else "run_index"
    with pytest.raises(ValueError, match=rf"^{name} must be in \[0, 2\*\*64\)$"):
        run_stream(seed, index)


@pytest.mark.parametrize("seed, index", [(5, 1.5), (5.7, 1), (5, 1.0), (5.0, 1), (5, "1")])
def test_non_integer_seed_or_index_rejected(seed, index):
    # int() would truncate 1.5 and 5.7 and draw run_stream(5, 1)'s stream
    with pytest.raises(TypeError):
        run_stream(seed, index)


def test_numpy_integer_seed_and_index_accepted():
    expected = _draws(run_stream(5, 2**63 + 1))
    assert _same(_draws(run_stream(np.uint64(5), np.uint64(2**63 + 1))), expected)
    assert _same(_draws(run_stream(np.int64(5), np.uint64(2**63 + 1))), expected)


PRIOR_DRAWS = {
    "random": lambda rng: rng.random(),
    "uint32": lambda rng: rng.integers(0, 2**32, dtype=np.uint32),
    "poisson": lambda rng: rng.poisson(2.5),
    "binomial": lambda rng: rng.binomial(40, 0.6),
}


@given(seed=st.integers(0, 2**64 - 1), index=st.integers(0, 2**64 - 1),
       previous=st.integers(0, 2**64 - 1),
       prior=st.lists(st.sampled_from(sorted(PRIOR_DRAWS)), max_size=6))
@settings(max_examples=100, deadline=None)
def test_run_streams_equal_run_stream_after_any_prior_run(seed, index, previous, prior):
    # whatever another stream of the same seed drew, run_stream is its definition
    rng = run_stream(seed, previous)
    for name in prior:
        PRIOR_DRAWS[name](rng)
    assert _same(_draws(run_stream(seed, index)), _draws(_philox(seed, index)))
