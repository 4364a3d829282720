import numpy as np
import pytest

from crossbar_lowrank.rng import child_stream


def test_child_stream_known_draws():
    assert child_stream(12345, 0).bit_generator.random_raw(3).tolist() == [
        16048646147195420845, 10346443762535315252, 4087151527457531500]
    assert child_stream(12345, 0).standard_normal(3).tolist() == [
        1.7875197842072932, -0.488640903086019, 1.0823729228035182]


def _first_word(seed, *key):
    return int(child_stream(seed, *key).bit_generator.random_raw())


def test_child_stream_determinism_and_distinctness():
    assert _first_word(42, 0, 1) == _first_word(42, 0, 1)
    seen = {_first_word(42, t, role) for t in range(50) for role in (0, 1)}
    assert len(seen) == 100
    assert _first_word(42, 0) != _first_word(42 + 2 ** 64, 0)
    assert _first_word(42, 0) != _first_word(43, 0)
    assert _first_word(42) != _first_word(42, 0)
    assert _first_word(2 ** 100, 7) == _first_word(2 ** 100, 7)


def test_child_stream_rejects_a_negative_seed_or_index():
    for seed, key in ((-1, ()), (0, (-1,)), (5, (3, -2))):
        with pytest.raises(ValueError):
            child_stream(seed, *key)


def test_child_stream_reproducible():
    a = child_stream(9, 3, 1).standard_normal(16)
    b = child_stream(9, 3, 1).standard_normal(16)
    assert np.array_equal(a, b)
    c = child_stream(9, 4, 1).standard_normal(16)
    assert not np.array_equal(a, c)


def test_child_stream_is_default_rng_of_spawn_key():
    for seed, key in ((123, (4, 1)), (12345, (3, 7)), (2 ** 64, (0,)), (7, ())):
        ref = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
        assert np.array_equal(child_stream(seed, *key).standard_normal(8),
                              ref.standard_normal(8))


def test_empty_key_is_the_master_seeds_own_stream():
    assert np.array_equal(child_stream(2024).standard_normal(8),
                          np.random.default_rng(2024).standard_normal(8))


def test_sibling_streams_uncorrelated():
    n = 100_000
    x = child_stream(2024, 0, 1).standard_normal(n)
    y = child_stream(2024, 1, 1).standard_normal(n)
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 0.01
