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

    Boundary equality counts as satisfied; a total that overflows float64
    is a ValueError.
    """
    with np.errstate(over="ignore"):  # an overflow is refused below
        G = conductance_map(A, dev)
        total = float(np.sum(G * G))
    if not math.isfinite(total):
        raise ValueError(f"the total magnitude sum(g^2) is {total} in float64: "
                         f"the matrix entries or r_T are too large")
    budget = float(G.shape[0] * G.shape[1] * dev.rho)
    return MagnitudeCheck(total <= budget, total, budget)


def noise_law(sigma_sq: float, dist: str) -> tuple[float, float]:
    """(scale, shift) that map unit cells u (see unit_cells) to the
    zero-mean cells scale * u + shift of variance sigma_sq: (sigma, 0) for
    Gaussian, and (2w, -w) with w = sqrt(3 sigma_sq) for uniform on [-w, w],
    whose variance is w^2/3."""
    if not (math.isfinite(sigma_sq) and sigma_sq >= 0):
        raise ValueError(f"variance must be finite and nonnegative, got {sigma_sq}")
    if dist not in SUPPORTED_DISTS:
        raise ValueError(f"unsupported distribution {dist!r}; expected one of {SUPPORTED_DISTS}")
    if dist == "gaussian":
        return math.sqrt(sigma_sq), 0.0
    w = math.sqrt(3.0 * sigma_sq)
    return 2.0 * w, -w


def unit_cells(shape, dist: str, rng: np.random.Generator) -> np.ndarray:
    """Cells of the unit noise law: standard normal for Gaussian, U[0, 1)
    for uniform."""
    return rng.standard_normal(shape) if dist == "gaussian" else rng.random(shape)


def iid_entries(shape, sigma_sq: float, dist: str, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. zero-mean entries with variance sigma_sq: unit cells through
    noise_law's map.

    sigma_sq = 0 returns zeros without consuming any randomness, the rule
    a noiseless stage of schemes keeps too (it draws no unit cells).
    """
    scale, shift = noise_law(sigma_sq, dist)
    if sigma_sq == 0:
        return np.zeros(shape)
    # for uniform, rng.uniform(-w, w, shape) computes -w + 2w u with these
    # two roundings, so this draws its bits without its per-call overhead
    u = unit_cells(shape, dist, rng)
    u *= scale
    if shift:
        u += shift
    return u
