"""The two competing noisy computation schemes.

Baseline: program A on one m x n array and compute c' = b (A + E) in a
single shot, E being the additive write noise of that array.

Two-step: program L on t_L replicated m x k arrays and R on t_R
replicated k x n arrays. Stage 1 averages b (L + E_L_i) over the t_L
replicas; stage 2 multiplies the averaged intermediate by (R + E_R_j)
and averages over the t_R replicas. Replication divides each stage's
noise variance by its repetition count at the cost of devices, subject
to the budget t_L*m*k + t_R*n*k <= m*n. `budget_feasible` is the one
statement of that budget, and `check_repetitions` of t_L, t_R >= 1; the
closed form, the optimizer and the Monte Carlo runs call them.

Both schemes draw every noise cell. A stage draws each replica as a slab
of unit cells (core.unit_cells), sums the slabs in place, and applies the
noise law's affine map (core.noise_law) once, to the product with that
sum, instead of to each cell.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_matrix, check_dist, check_nonnegative, noise_law, unit_cells
from .lowrank import LrFactors


@dataclass(frozen=True)
class NoiseSpec:
    """Write-noise variances for the baseline array and the two stages."""

    sigma_e_sq: float = 0.0
    sigma_L_sq: float = 0.0
    sigma_R_sq: float = 0.0
    dist: str = "gaussian"

    def __post_init__(self):
        check_nonnegative(sigma_e_sq=self.sigma_e_sq, sigma_L_sq=self.sigma_L_sq,
                          sigma_R_sq=self.sigma_R_sq)
        check_dist(self.dist)


def budget_feasible(m: int, n: int, k: int, t_L: int, t_R: int) -> bool:
    """True iff t_L*m*k + t_R*n*k <= m*n. With t_L, t_R >= 1 no
    k > min(m, n) fits: one of the two terms alone exceeds m*n."""
    return t_L * m * k + t_R * n * k <= m * n


def check_repetitions(t_L: int, t_R: int) -> None:
    """The one statement of t_L, t_R >= 1: a ValueError otherwise."""
    if t_L < 1 or t_R < 1:
        raise ValueError(f"repetition counts must be >= 1, got t_L={t_L}, t_R={t_R}")


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


# The most noise cells a stacked call draws at once (128 KiB of float64),
# unless one row's replica slab alone holds more. It also sizes Monte Carlo
# blocks (see montecarlo), so chunk and block boundaries set the draw order:
# changing it changes every MC value.
NOISE_CELLS = 2**14


def _chunks(b: np.ndarray, cells: int) -> list[np.ndarray]:
    """Consecutive chunks of max(1, NOISE_CELLS // cells) rows of the stack
    b, cells being the largest replica slab of one row; a 1-D row is one
    chunk."""
    rows = b.shape[0] if b.ndim == 1 else max(1, NOISE_CELLS // cells)
    return [b[i:i + rows] for i in range(0, b.shape[0], rows)]


def _noisy_stage(X: np.ndarray, W: np.ndarray, t: int, sigma_sq: float, dist: str,
                 rng: np.random.Generator) -> np.ndarray:
    """Rows x of X times the mean of t noisy replicas W + E_i.

    With E_i = scale U_i + shift for unit cells U_i (see core.noise_law),
    x mean_i(E_i) = (scale / t) x S + shift sum_j x_j, S = U_1 + ... + U_t.
    Replica i is one slab of unit cells, (rows, cols) for a 1-D x and
    (T, rows, cols) for a (T, rows) stack, one independent set per row,
    drawn after replica i - 1's and added into S in place. Zero variance
    is the exact product and draws nothing.
    """
    if sigma_sq == 0:
        return X @ W
    scale, shift = noise_law(sigma_sq, dist)
    shape = X.shape[:-1] + W.shape
    S = unit_cells(shape, dist, rng)
    for _ in range(t - 1):
        S += unit_cells(shape, dist, rng)
    Y = (X[..., None, :] @ S)[..., 0, :]
    Y *= scale / t
    if shift:
        Y += shift * np.sum(X, axis=-1, keepdims=True)
    Y += X @ W
    return Y


def baseline_noisy_vmm(b, A, noise: NoiseSpec, rng: np.random.Generator) -> np.ndarray:
    """One-shot noisy product c' = b (A + E), E freshly sampled per call.

    b is one row vector or a (T, m) stack of them; each row meets its own
    E. A stack runs in chunks of max(1, NOISE_CELLS // (m n)) rows, so a
    call draws at most max(m n, NOISE_CELLS) noise cells at once.
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
    rows, cells = max(m, n) k, the larger of one L and one R replica; each
    chunk draws its rows' L replicas 0 .. t_L - 1, then their R replicas
    0 .. t_R - 1, one slab each, so a call draws at most
    max(cells, NOISE_CELLS) noise cells at once. A zero-variance stage takes
    the exact deterministic path and leaves the stream untouched.
    """
    b = _as_rows(b)
    m, k = f.L.shape
    k2, n = f.R.shape
    if b.shape[-1] != m:
        raise ValueError(f"dimension mismatch: b has length {b.shape[-1]}, L is {m}x{k}")
    if k2 != k:
        raise ValueError(f"factor mismatch: L is {m}x{k}, R is {k2}x{n}")
    check_repetitions(t_L, t_R)
    out = []
    for X in _chunks(b, max(m, n) * k):
        c_mid = _noisy_stage(X, f.L, t_L, noise.sigma_L_sq, noise.dist, rng)
        out.append(_noisy_stage(c_mid, f.R, t_R, noise.sigma_R_sq, noise.dist, rng))
    return np.concatenate(out)
