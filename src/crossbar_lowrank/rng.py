"""Deterministic stream derivation for reproducible sampling.

Every random quantity in this package comes from a stream owned by one
task, a target matrix or one Monte Carlo estimate, addressed by a
nonnegative master seed and an index tuple (a role, and a two-step
estimate's rank). The tuple is numpy's SeedSequence spawn key (NEP 19),
so the master seed may have any number of bits, sibling streams are
independent, and no task's draws depend on another task having run. An
empty key gives the master seed's own stream, np.random.default_rng(seed).
`experiments` builds every stream; the functions it hands one to take a
Generator.

Reproducibility promise: identical seeds give identical streams within
this implementation. Bit-level agreement across languages or numpy
versions is not promised (Gaussian sampling algorithms differ).
"""
from __future__ import annotations

import numpy as np


def child_stream(master_seed: int, *indices: int) -> np.random.Generator:
    """Independent generator for the task addressed by the index tuple; a
    negative seed or index is a ValueError."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=indices))
