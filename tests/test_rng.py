import numpy as np
import pytest

from crossbar_lowrank.rng import MASK64, child_seed, child_stream, mix64


def test_mix64_is_deterministic_and_64bit():
    assert mix64(0) == mix64(0)
    for x in (0, 1, 2**63, MASK64, 0xDEADBEEF):
        assert 0 <= mix64(x) <= MASK64


def test_mix64_avalanche():
    # flipping one input bit should flip about half the output bits
    rng = np.random.default_rng(7)
    flips = []
    for _ in range(200):
        x = int(rng.integers(0, 2**63))
        bit = int(rng.integers(0, 64))
        flips.append(bin(mix64(x) ^ mix64(x ^ (1 << bit))).count("1"))
    mean = sum(flips) / len(flips)
    assert 24 <= mean <= 40


def test_child_seed_determinism_and_distinctness():
    assert child_seed(42, 0, 1) == child_seed(42, 0, 1)
    seen = {child_seed(42, t, role) for t in range(50) for role in (0, 1)}
    assert len(seen) == 100
    assert child_seed(42, 0) != child_seed(43, 0)
    assert child_seed(42) != child_seed(42, 0)


def test_child_seed_rejects_oversized_master():
    with pytest.raises(ValueError):
        child_seed(2**64, 0)
    with pytest.raises(ValueError):
        child_seed(-1, 0)


def test_child_stream_reproducible():
    a = child_stream(9, 3, 1).standard_normal(16)
    b = child_stream(9, 3, 1).standard_normal(16)
    assert np.array_equal(a, b)
    c = child_stream(9, 4, 1).standard_normal(16)
    assert not np.array_equal(a, c)


def test_child_stream_is_default_rng_of_child_seed():
    assert np.array_equal(
        child_stream(123, 4, 1).standard_normal(8),
        np.random.default_rng(child_seed(123, 4, 1)).standard_normal(8),
    )


def test_sibling_streams_uncorrelated():
    n = 100_000
    x = child_stream(2024, 0, 1).standard_normal(n)
    y = child_stream(2024, 1, 1).standard_normal(n)
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 0.01
