"""Deterministic seed derivation for reproducible sampling.

Every random quantity in this package is drawn from a stream owned by
exactly one logical task (one block of Monte Carlo trials, or one matrix
generation). Streams are derived from a 64-bit master seed plus an
index tuple through a full-avalanche integer mix, so (seed, block=0) and
(seed, block=1) share no usable structure and no task's draws depend on
another task having run.

Reproducibility promise: identical seeds give identical streams within
this implementation. Bit-level agreement across languages or numpy
versions is not promised (Gaussian sampling algorithms differ).
"""
from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

# splitmix64 increment; any odd constant with good bit dispersion works
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """Finalizer of the splitmix64 generator: a bijective avalanche mix."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def child_seed(master_seed: int, *indices: int) -> int:
    """Fold an index tuple into a master seed, one avalanche round per index."""
    if not 0 <= master_seed <= MASK64:
        raise ValueError(f"master seed must fit in 64 bits, got {master_seed}")
    h = mix64(master_seed)
    for ix in indices:
        h = mix64(h ^ mix64((ix + _GOLDEN) & MASK64))
    return h


def child_stream(master_seed: int, *indices: int) -> np.random.Generator:
    """Independent generator for the task addressed by the index tuple."""
    return np.random.default_rng(child_seed(master_seed, *indices))
