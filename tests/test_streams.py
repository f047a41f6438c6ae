import numpy as np
import pytest

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
