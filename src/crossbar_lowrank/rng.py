"""Deterministic seed derivation for reproducible sampling.

Every random quantity in this package comes from a stream owned by one
task, a target matrix or one Monte Carlo estimate, addressed by a
nonnegative master seed and an index tuple (a role, and a two-step
estimate's rank). The tuple is numpy's SeedSequence spawn key (NEP 19),
so the master seed may have any number of bits, sibling streams are
independent, and no task's draws depend on another task having run. An
empty key gives the master seed's own stream, np.random.default_rng(seed).

Reproducibility promise: identical seeds give identical streams within
this implementation. Bit-level agreement across languages or numpy
versions is not promised (Gaussian sampling algorithms differ).
"""
from __future__ import annotations

import numpy as np


def child_seed(master_seed: int, *indices: int) -> int:
    """64-bit seed of the task addressed by the index tuple: the first word
    its SeedSequence generates. A negative seed or index is a ValueError."""
    key = np.random.SeedSequence(master_seed, spawn_key=indices)
    return int(key.generate_state(1, np.uint64)[0])


def child_stream(master_seed: int, *indices: int) -> np.random.Generator:
    """Independent generator for the task addressed by the index tuple."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=indices))
