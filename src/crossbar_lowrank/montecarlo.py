"""Reproducible Monte Carlo estimation of expected computation errors.

Trials run in fixed blocks of BLOCK_TRIALS consecutive trial indices (the
last block may be shorter), in block order on the calling thread. Each
block owns one stream keyed by (master_seed, ROLE_BLOCK, block index);
from it the block draws its input rows B (trials x m), or for Gaussian
two-step trials their coordinates W (trials x rank, see below), then the
noise of all its trials. The per-trial squared errors are reduced by a
fixed-order compensated sum.

Gaussian noise is sampled by its effect, not cell by cell. The error
depends on a write-noise matrix only through x E for the row vector x
that meets it, and the mean of t iid N(0, s) matrices has iid N(0, s/t)
entries, so x E has the law of ||x|| sqrt(s/t) z with z iid N(0, 1).
Each trial's squared error is then drawn from its exact law:

- Baseline: ||b E||^2 = sigma_e^2 ||b||^2 ||z||^2, and ||b||^2 / sigma_b^2
  is chi^2_m, so the error is sigma_e^2 sigma_b^2 chi^2_m chi^2_n. A trial
  draws 2 numbers and no input b.
- Two-step: b meets the error only through bL, bA and ||b||. With
  Q = U[:, :rank] from the SVD of A, the columns of L lie in span(Q) and
  those of A do up to singular values below the rank tolerance, so
  bL = w Q'L and bA = w Q'A for w = bQ, which is iid
  N(0, sigma_b^2) in R^rank; and ||b||^2 = ||w||^2 + sigma_b^2
  chi^2_{m-rank}, independent of w (no chi^2 term when m = rank). Stage
  1 draws w and c = w Q'L + ||b|| sigma_L/sqrt(t_L) z_1 as above, and
  y = c R - w Q'A is formed. With a = ||c|| sigma_R/sqrt(t_R), rotating
  y onto the first axis gives
  ||y + a z_2||^2 = (||y|| + a g)^2 + a^2 chi^2_{n-1}, g ~ N(0, 1)
  (no chi^2 term when n = 1). A trial draws rank + k + 3 numbers. The
  trials still multiply by the actual L, R and A, so a verdict checks
  the factorization and the target's spectrum too.

A noiseless two-step stage takes the exact path and draws nothing; a
noiseless stage 1 needs no ||b|| and draws no chi^2_{m-rank}.

Uniform noise is not exact in law under that reduction, so a uniform
block runs the per-cell device model, one call of `two_step_vmm` or
`baseline_noisy_vmm` on its input rows.

BLOCK_TRIALS, schemes.NOISE_CELLS and the draw order above define the
streams: changing any of them changes MC values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import as_matrix, iid_entries
from .lowrank import RANK_TOL_REL, SvdResult, factor_lr
from .rng import child_stream
from .schemes import NoiseSpec, baseline_noisy_vmm, budget_feasible, two_step_vmm

# Trials per block. Block streams are defined on it, so changing it
# changes every MC value.
BLOCK_TRIALS = 64

# index that keys block streams (master_seed, ROLE_BLOCK, block)
ROLE_BLOCK = 2

Z_PASS_LIMIT = 4.0

# how far past what sub-tolerance singular values allow A may stray from
# the span of its SVD's left singular vectors (see _span_coords)
SPAN_SLACK = 10.0


@dataclass(frozen=True)
class TrialBatchResult:
    trials: int
    mean_sq_error: float
    std_error: float
    # |mean - analytic| at or below this is float64 round-off, not a
    # discrepancy (see roundoff_floor)
    roundoff: float = 0.0


def roundoff_floor(A: np.ndarray, sigma_b_sq: float) -> float:
    """Mean squared error that float64 round-off alone can leave in a
    trial's product for an m x n matrix A: ((m + n) eps)^2 E||bA||^2, with
    E||bA||^2 = sigma_b^2 ||A||_F^2. Each output entry is a sum of about
    m + n rounded terms of magnitude |bA|, so its relative error is of
    order (m + n) eps."""
    m, n = A.shape
    return ((m + n) * np.finfo(float).eps) ** 2 * sigma_b_sq * float(np.sum(A * A))


def _run_blocks(trials: int, block_fn: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """Squared errors of trials [0, trials), block_fn(lo, hi) giving those
    of trials lo..hi-1; blocks run in order."""
    return np.concatenate([block_fn(lo, min(lo + BLOCK_TRIALS, trials))
                           for lo in range(0, trials, BLOCK_TRIALS)])


def _row_sq(X: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", X, X)


def _noise_effect(x_sq: np.ndarray, scale: float, cols: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Rows x E for rows x with ||x||^2 = x_sq, E with iid N(0, scale^2)
    entries: ||x|| * scale * z with z iid N(0, 1) in R^cols."""
    return (scale * np.sqrt(x_sq))[:, None] * rng.standard_normal((x_sq.shape[0], cols))


def _plus_isotropic(y_sq: np.ndarray, a: np.ndarray, dim: int,
                    rng: np.random.Generator) -> np.ndarray:
    """||y + a z||^2 for rows y with ||y||^2 = y_sq and z iid N(0, 1) in
    R^dim, one draw per row: rotating y onto the first axis gives
    (||y|| + a g)^2 + a^2 chi^2_{dim-1}, with g ~ N(0, 1)."""
    out = np.sqrt(y_sq) + a * rng.standard_normal(y_sq.shape[0])
    out *= out
    if dim > 1:
        out += a * a * rng.chisquare(dim - 1, y_sq.shape[0])
    return out


def _reduce(errors: np.ndarray, roundoff: float) -> TrialBatchResult:
    """Mean and standard error of nonnegative errors, summed on errors / 2^e
    (e the exponent of the largest) and scaled back: bit-identical to plain
    sums where those stay in float64, and finite for finite errors. An inf
    or NaN trial is a ValueError."""
    trials = errors.shape[0]
    e = math.frexp(float(errors.max()))[1]
    x = np.ldexp(errors, -e)
    mean = math.fsum(x.tolist()) / trials
    if not math.isfinite(mean):
        raise ValueError(f"the trials' mean squared error is {mean}: a trial's error "
                         f"is not finite in float64")
    var = math.fsum(((x - mean) ** 2).tolist()) / (trials - 1)
    return TrialBatchResult(trials=trials, mean_sq_error=math.ldexp(mean, e),
                            std_error=math.ldexp(math.sqrt(var / trials), e),
                            roundoff=roundoff)


def _check_run(sigma_b_sq: float, trials: int) -> None:
    """The checks both MC entry points make first."""
    if trials < 2:
        raise ValueError(f"need at least 2 trials for a standard error, got {trials}")
    if not 0 < sigma_b_sq < math.inf:
        raise ValueError(f"input variance must be positive and finite, got {sigma_b_sq}")


def run_baseline_trials(A, noise: NoiseSpec, sigma_b_sq: float, trials: int,
                        master_seed: int) -> TrialBatchResult:
    """Empirical mean of ||b(A+E) - bA||^2 over per-trial fresh (b, E)."""
    _check_run(sigma_b_sq, trials)
    A = as_matrix(A)
    m, n = A.shape

    def block(lo: int, hi: int) -> np.ndarray:
        rng = child_stream(master_seed, ROLE_BLOCK, lo // BLOCK_TRIALS)
        if noise.dist == "gaussian":
            # ||b E||^2 = sigma_e^2 sigma_b^2 chi^2_m chi^2_n
            return (noise.sigma_e_sq * sigma_b_sq
                    * rng.chisquare(m, hi - lo) * rng.chisquare(n, hi - lo))
        B = iid_entries((hi - lo, m), sigma_b_sq, noise.dist, rng)
        D = baseline_noisy_vmm(B, A, noise, rng)
        D -= B @ A
        return _row_sq(D)

    errors = _run_blocks(trials, block)
    return _reduce(errors, roundoff_floor(A, sigma_b_sq))


def _span_coords(s: SvdResult, A: np.ndarray) -> np.ndarray:
    """Q'A for Q = s.U[:, :s.rank], after checking that s has A's shape
    and that A lies in span(Q): ||A - Q Q'A||_F may exceed
    sqrt(min(m, n)) * RANK_TOL_REL * s_1, the most that the singular
    values below the rank tolerance can add up to, by SPAN_SLACK times at
    most."""
    if s.shape != A.shape:
        raise ValueError(f"SVD shape {s.shape} does not match matrix shape {A.shape}")
    Q = s.U[:, :s.rank]
    QA = Q.T @ A
    resid = math.sqrt(float(np.sum((A - Q @ QA) ** 2)))
    tol = SPAN_SLACK * math.sqrt(min(A.shape)) * RANK_TOL_REL * float(s.singulars[0])
    if not resid <= tol:
        raise ValueError(f"the matrix lies outside the span of the SVD's {s.rank} left "
                         f"singular vectors by {resid:.3g} > {tol:.3g}: not its SVD")
    return QA


def run_two_step_trials(s: SvdResult, A, k: int, t_L: int, t_R: int, noise: NoiseSpec,
                        sigma_b_sq: float, trials: int, master_seed: int) -> TrialBatchResult:
    """Empirical mean of ||c'' - bA||^2 for the rank-k factors
    factor_lr(s, k) of the m x n matrix A on t_L + t_R replica arrays; the
    error is against the exact product with the full matrix, so truncation
    cost is included.

    s must be svd(A): a shape that differs, or an A outside the span of
    its left singular vectors, is a ValueError. (k, t_L, t_R) must be
    positive and fit the device budget, which also rules out
    k > min(m, n), and k may not exceed s.rank.
    """
    _check_run(sigma_b_sq, trials)
    A = as_matrix(A)
    QA = _span_coords(s, A)
    m, n = A.shape
    if k < 1:
        raise ValueError(f"need a rank k >= 1, got k={k}")
    if t_L < 1 or t_R < 1:
        raise ValueError(f"repetition counts must be >= 1, got t_L={t_L}, t_R={t_R}")
    if not budget_feasible(m, n, k, t_L, t_R):
        raise ValueError(f"memristor budget violated: k={k}, t_L={t_L}, t_R={t_R} "
                         f"need {(t_L * m + t_R * n) * k} devices > m*n = {m * n}")
    f = factor_lr(s, k)
    rank = s.rank
    QL = s.U[:, :rank].T @ f.L
    scale_L = math.sqrt(noise.sigma_L_sq / t_L)
    scale_R = math.sqrt(noise.sigma_R_sq / t_R)

    def block(lo: int, hi: int) -> np.ndarray:
        rng = child_stream(master_seed, ROLE_BLOCK, lo // BLOCK_TRIALS)
        if noise.dist == "gaussian":
            # w = bQ: b meets L and A only through it
            W = iid_entries((hi - lo, rank), sigma_b_sq, noise.dist, rng)
            C = W @ QL
            # a noiseless stage takes the exact path, as in two_step_vmm
            if scale_L:
                b_sq = _row_sq(W)
                if m > rank:
                    b_sq += sigma_b_sq * rng.chisquare(m - rank, hi - lo)
                C += _noise_effect(b_sq, scale_L, k, rng)
            Y = C @ f.R
            Y -= W @ QA
            if scale_R:
                return _plus_isotropic(_row_sq(Y), scale_R * np.sqrt(_row_sq(C)), n, rng)
            return _row_sq(Y)
        B = iid_entries((hi - lo, m), sigma_b_sq, noise.dist, rng)
        D = two_step_vmm(B, f, t_L, t_R, noise, rng)
        D -= B @ A
        return _row_sq(D)

    errors = _run_blocks(trials, block)
    return _reduce(errors, roundoff_floor(A, sigma_b_sq))


def compare(result: TrialBatchResult, analytic: float) -> tuple[float, bool]:
    """z-score of the empirical mean against the analytic value.

    Passes at |z| <= 4. A discrepancy within the result's round-off floor
    reads z = 0 and passes, so a noiseless run is not judged on round-off.
    Past the floor, a zero standard error yields an infinite z and a fail.
    """
    if abs(result.mean_sq_error - analytic) <= result.roundoff:
        return 0.0, True
    if result.std_error == 0:
        return math.copysign(math.inf, result.mean_sq_error - analytic), False
    z = (result.mean_sq_error - analytic) / result.std_error
    return z, abs(z) <= Z_PASS_LIMIT
