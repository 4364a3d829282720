"""Crossbar computation model: conductance map, magnitude budget, i.i.d. draws.

A target matrix A is realized on the crossbar as conductances
g[j, k] = r_T * a[j, k]; the array computes the row-vector product
c = b A in one analog step. Device technology caps the total programmed
magnitude: sum(g**2) <= m * n * rho for an m x n array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

SUPPORTED_DISTS = ("gaussian", "uniform")


@dataclass(frozen=True)
class DeviceParams:
    """Crossbar device parameters.

    r_T: feedback resistance of the readout stage (ohms).
    rho: per-cell mean-square conductance budget (siemens squared).
    """

    r_T: float = 1.0
    rho: float = 1.0

    def __post_init__(self):
        for name in ("r_T", "rho"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v}")


class MagnitudeCheck(NamedTuple):
    satisfied: bool
    total: float
    budget: float


def as_matrix(A) -> np.ndarray:
    """Validate and return A as a finite 2-D float64 array."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={A.ndim}")
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def conductance_map(A, dev: DeviceParams) -> np.ndarray:
    """Conductances that realize A on the array: g = r_T * a."""
    return dev.r_T * as_matrix(A)


def magnitude_check(A, dev: DeviceParams) -> MagnitudeCheck:
    """Total programmed magnitude sum(g**2) against the budget m*n*rho.

    Boundary equality counts as satisfied.
    """
    G = conductance_map(A, dev)
    total = float(np.sum(G * G))
    budget = float(G.shape[0] * G.shape[1] * dev.rho)
    return MagnitudeCheck(total <= budget, total, budget)


def iid_entries(shape, sigma_sq: float, dist: str, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. zero-mean entries with variance sigma_sq.

    sigma_sq = 0 returns zeros without consuming any randomness, so a
    noiseless stage leaves the stream untouched.
    """
    if not (math.isfinite(sigma_sq) and sigma_sq >= 0):
        raise ValueError(f"variance must be finite and nonnegative, got {sigma_sq}")
    if dist not in SUPPORTED_DISTS:
        raise ValueError(f"unsupported distribution {dist!r}; expected one of {SUPPORTED_DISTS}")
    if sigma_sq == 0:
        return np.zeros(shape)
    if dist == "gaussian":
        return np.sqrt(sigma_sq) * rng.standard_normal(shape)
    # uniform on [-w, w] has variance w^2/3; rng.uniform(-w, w, shape)
    # computes -w + 2w u with these two roundings, so this draws its bits
    # without its per-call overhead
    w = np.sqrt(3.0 * sigma_sq)
    u = rng.random(shape)
    u *= w - -w
    u += -w
    return u
