"""The two competing noisy computation schemes.

Baseline: program A on one m x n array and compute c' = b (A + E) in a
single shot, E being the additive write noise of that array.

Two-step: program L on t_L replicated m x k arrays and R on t_R
replicated k x n arrays. Stage 1 averages b (L + E_L_i) over the t_L
replicas; stage 2 multiplies the averaged intermediate by (R + E_R_j)
and averages over the t_R replicas. Replication divides each stage's
noise variance by its repetition count at the cost of devices, subject
to the budget t_L*m*k + t_R*n*k <= m*n. `budget_feasible` is the one
statement of that budget; the optimizer and the Monte Carlo runs call it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SUPPORTED_DISTS, as_matrix, iid_entries
from .lowrank import LrFactors


@dataclass(frozen=True)
class NoiseSpec:
    """Write-noise variances for the baseline array and the two stages."""

    sigma_e_sq: float = 0.0
    sigma_L_sq: float = 0.0
    sigma_R_sq: float = 0.0
    dist: str = "gaussian"

    def __post_init__(self):
        for name in ("sigma_e_sq", "sigma_L_sq", "sigma_R_sq"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")
        if self.dist not in SUPPORTED_DISTS:
            raise ValueError(
                f"unsupported distribution {self.dist!r}; expected one of {SUPPORTED_DISTS}"
            )


def budget_feasible(m: int, n: int, k: int, t_L: int, t_R: int) -> bool:
    """True iff t_L*m*k + t_R*n*k <= m*n. With t_L, t_R >= 1 no
    k > min(m, n) fits: one of the two terms alone exceeds m*n."""
    return t_L * m * k + t_R * n * k <= m * n


def _as_rows(b) -> np.ndarray:
    """b as a finite float64 row vector (m,) or stack of row vectors (T, m)."""
    b = np.asarray(b, dtype=float)
    if b.ndim == 1 and b.shape[0] < 1:
        raise ValueError("row vector must have positive length")
    if b.ndim not in (1, 2) or 0 in b.shape:
        raise ValueError(f"expected a row vector or a (T, m) stack of them, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("vector entries must be finite")
    return b


# Noise cells a stacked call draws at once (128 KiB of float64). It also
# sizes Monte Carlo blocks (see montecarlo), so chunk and block boundaries
# set the draw order: changing it changes every MC value.
NOISE_CELLS = 2**14


def _chunks(b: np.ndarray, cells: int) -> list[np.ndarray]:
    """Consecutive chunks of max(1, NOISE_CELLS // cells) rows of the stack
    b, cells being the devices of one row; a 1-D row is one chunk."""
    rows = b.shape[0] if b.ndim == 1 else max(1, NOISE_CELLS // cells)
    return [b[i:i + rows] for i in range(0, b.shape[0], rows)]


def _noisy_stage(X: np.ndarray, W: np.ndarray, t: int, sigma_sq: float, dist: str,
                 rng: np.random.Generator) -> np.ndarray:
    """Rows x of X times the mean of t noisy replicas W + E_i, as
    x W + x mean_i(E_i). A 1-D x draws (t, rows, cols) noise cells; a
    (T, rows) stack draws (T, t, rows, cols), one independent set per row.
    Zero variance is the exact product and draws nothing.
    """
    if sigma_sq == 0:
        return X @ W
    E = iid_entries(X.shape[:-1] + (t,) + W.shape, sigma_sq, dist, rng)
    Ebar = np.add.reduce(E, axis=-3) / t
    return X @ W + (X[..., None, :] @ Ebar)[..., 0, :]


def baseline_noisy_vmm(b, A, noise: NoiseSpec, rng: np.random.Generator) -> np.ndarray:
    """One-shot noisy product c' = b (A + E), E freshly sampled per call.

    b is one row vector or a (T, m) stack of them; each row meets its own
    E. A stack runs in chunks of max(1, NOISE_CELLS // (m n)) rows, so a
    call draws at most max(m n, NOISE_CELLS) noise cells at a time.
    """
    b = _as_rows(b)
    A = as_matrix(A)
    m, n = A.shape
    if b.shape[-1] != m:
        raise ValueError(f"dimension mismatch: b has length {b.shape[-1]}, A is {m}x{n}")
    return np.concatenate([_noisy_stage(X, A, 1, noise.sigma_e_sq, noise.dist, rng)
                           for X in _chunks(b, m * n)])


def two_step_vmm(b, f: LrFactors, t_L: int, t_R: int, noise: NoiseSpec,
                 rng: np.random.Generator) -> np.ndarray:
    """Two-step averaged product through the L and R replica arrays.

    Samples all t_L + t_R noise matrices fresh and mutually independent.
    b is one row vector or a (T, m) stack of them; each row meets its own
    replica arrays. A stack runs in chunks of max(1, NOISE_CELLS // cells)
    rows, cells = (t_L m + t_R n) k; each chunk draws its rows' L noise,
    then their R noise, so a call draws at most max(cells, NOISE_CELLS)
    noise cells at a time. A zero-variance stage takes the exact
    deterministic path and leaves the stream untouched.
    """
    b = _as_rows(b)
    m, k = f.L.shape
    k2, n = f.R.shape
    if b.shape[-1] != m:
        raise ValueError(f"dimension mismatch: b has length {b.shape[-1]}, L is {m}x{k}")
    if k2 != k:
        raise ValueError(f"factor mismatch: L is {m}x{k}, R is {k2}x{n}")
    if t_L < 1 or t_R < 1:
        raise ValueError(f"repetition counts must be >= 1, got t_L={t_L}, t_R={t_R}")
    out = []
    for X in _chunks(b, (t_L * m + t_R * n) * k):
        c_mid = _noisy_stage(X, f.L, t_L, noise.sigma_L_sq, noise.dist, rng)
        out.append(_noisy_stage(c_mid, f.R, t_R, noise.sigma_R_sq, noise.dist, rng))
    return np.concatenate(out)
