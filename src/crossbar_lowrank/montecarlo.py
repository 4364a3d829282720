"""Reproducible Monte Carlo estimation of expected computation errors.

A run is one estimate and draws from the one Generator it is given, in
blocks of consecutive trials run in order on the calling thread; the
blocks bound memory only. A block holds max(1,
schemes.NOISE_CELLS // width) trials (the last may be shorter), width
being the widest per-trial row of the path's arrays: 1 for the Gaussian
baseline, the rank of A for the Gaussian two-step, and max(m, n) for
uniform noise, whose scheme functions run a block's rows in chunks by the
same bound (see schemes). A block draws its input rows B (trials x m), or
for Gaussian two-step trials their coordinates W (trials x rank, see
below), then the noise of its trials. A fixed-order compensated sum
reduces the errors.

Gaussian noise is sampled by its effect, not cell by cell. The error
depends on a write-noise matrix only through x E for the row vector x
that meets it, and the mean of t iid N(0, s) matrices has iid N(0, s/t)
entries, so x E has the law of ||x|| sqrt(s/t) z with z iid N(0, 1).
Each trial's squared error is then drawn from its exact law:

- Baseline: ||b E||^2 = sigma_e^2 ||b||^2 ||z||^2, and ||b||^2 / sigma_b^2
  is chi^2_m, so the error is sigma_e^2 sigma_b^2 chi^2_m chi^2_n. A trial
  draws 2 numbers and no input b.
- Two-step: A = Q diag(s) V' on its rank singular vectors Q = U[:, :rank]
  and V = V[:, :rank], up to singular values below the rank tolerance.
  The input b meets the error only through bL, bA and ||b||. The
  columns of L lie in span(Q), and so do those of A, so bL = w Q'L and
  bA = w Q'A for w = bQ, which is iid N(0, sigma_b^2) in R^rank; and
  ||b||^2 = ||w||^2 + sigma_b^2 chi^2_{m-rank}, independent of w (no
  chi^2 term when m = rank). Stage 1 draws w and
  c = w Q'L + ||b|| sigma_L/sqrt(t_L) z_1 as above. The rows of R and of
  Q'A lie in span(V), so y = c R - w Q'A has ||y|| = ||y V||, and the
  block forms y V = c (R V) - w (Q'A V), rank wide instead of n. With
  a = ||c|| sigma_R/sqrt(t_R), rotating y onto the first axis gives
  ||y + a z_2||^2 = (||y|| + a g)^2 + a^2 chi^2_{n-1}, g ~ N(0, 1)
  (no chi^2 term when n = 1). A trial draws rank + k + 3 numbers. The
  trials still multiply by the actual L, R and A, projected on both
  sides, so a verdict checks the factorization and the target's spectrum
  too; an SVD whose vectors are not orthonormal, or that A does not
  satisfy on either side, is refused first (check_target, once per
  target for any number of estimates on it).

A noiseless two-step stage takes the exact path and draws nothing; a
noiseless stage 1 needs no ||b|| and draws no chi^2_{m-rank}.

Uniform noise is not exact in law under that reduction, so a uniform
block runs the per-cell device model, one call of `two_step_vmm` or
`baseline_noisy_vmm` on its input rows. That call draws every cell, in
row chunks, each drawing one slab per replica, stage 1's and then stage
2's, of at most max(NOISE_CELLS, one row's slab) cells.

schemes.NOISE_CELLS, the widths and the draw order above define the order
in which a run consumes its Generator: changing any of them changes MC
values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import as_matrix, iid_entries
from .lowrank import RANK_TOL_REL, SvdResult, factor_lr
from .schemes import NOISE_CELLS, NoiseSpec, baseline_noisy_vmm, budget_feasible, two_step_vmm

Z_PASS_LIMIT = 4.0

# how far past what sub-tolerance singular values allow A may stray from
# its SVD on either side (see _span_coords)
SPAN_SLACK = 10.0

# cap on a run's trials, whose squared errors it holds: about 25 B a trial
# at the peak (the errors, _reduce's scaled copy and its squared deviations),
# so 0.4 GiB at the cap (see experiments.MAX_SQUARE_CELLS)
MAX_TRIALS = 2 ** 24


@dataclass(frozen=True)
class TrialBatchResult:
    trials: int
    mean_sq_error: float
    std_error: float
    # |mean - analytic| at or below this is float64 round-off, not a
    # discrepancy (see roundoff_floor); 0 where no trial forms a product with A
    roundoff: float = 0.0


def _frobenius(X: np.ndarray, overwrite: bool = False) -> float:
    """||X||_F, summed on X / max|x| and scaled back by max|x|, so it is
    finite wherever its value is (a plain sum of x^2 overflows past
    |x| ~ 1e154); 0 for an empty X. max|x| is max(max x, -min x), read
    without a copy; X / max|x| is one temporary of X's size, squared in
    place, or X itself with overwrite=True, which leaves X scaled and
    squared."""
    top = max(float(np.max(X, initial=0.0)), -float(np.min(X, initial=0.0))) or 1.0
    scaled = np.divide(X, top, out=X if overwrite else None)
    return top * math.sqrt(float(np.sum(np.square(scaled, out=scaled))))


def _floor(shape: tuple[int, int], frobenius: float, sigma_b_sq: float) -> float:
    """roundoff_floor of an m x n matrix whose ||A||_F is `frobenius`."""
    m, n = shape
    root = (m + n) * math.ulp(1.0) * frobenius * math.sqrt(sigma_b_sq)
    return root * root


def roundoff_floor(A: np.ndarray, sigma_b_sq: float) -> float:
    """Mean squared error that float64 round-off alone can leave in a
    trial's product for an m x n matrix A: ((m + n) eps)^2 E||bA||^2, with
    E||bA||^2 = sigma_b^2 ||A||_F^2. Each output entry is a sum of about
    m + n rounded terms of magnitude |bA|, so its relative error is of
    order (m + n) eps. ||A||_F comes from _frobenius, so the floor costs
    one m x n temporary, and is squared last, so the floor is finite where
    its value is."""
    return _floor(A.shape, _frobenius(A), sigma_b_sq)


def _run_blocks(rng: np.random.Generator, trials: int, width: int,
                block_fn: Callable[[np.random.Generator, int], np.ndarray]) -> np.ndarray:
    """Squared errors of trials [0, trials) in blocks of
    max(1, NOISE_CELLS // width) trials, run in order on the run's one
    Generator; block_fn(rng, size) gives those of one block."""
    size = max(1, NOISE_CELLS // width)
    return np.concatenate([block_fn(rng, min(size, trials - lo))
                           for lo in range(0, trials, size)])


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
    sums where those stay in float64, and finite for finite errors; fsum reads
    the arrays in place. An inf or NaN trial is a ValueError, refused first."""
    if not np.isfinite(errors).all():
        mean = math.nan if np.isnan(errors).any() else math.inf
        raise ValueError(f"the trials' mean squared error is {mean}: a trial's error "
                         f"is not finite in float64")
    trials = errors.shape[0]
    e = math.frexp(float(errors.max()))[1]
    x = np.ldexp(errors, -e)
    mean = math.fsum(memoryview(x)) / trials
    var = math.fsum(memoryview((x - mean) ** 2)) / (trials - 1)
    return TrialBatchResult(trials=trials, mean_sq_error=math.ldexp(mean, e),
                            std_error=math.ldexp(math.sqrt(var / trials), e),
                            roundoff=roundoff)


def check_run(sigma_b_sq: float, trials: int) -> None:
    """The checks both MC entry points make first, before any draw."""
    if trials < 2:
        raise ValueError(f"need at least 2 trials for a standard error, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most {MAX_TRIALS}, got {trials}")
    if not 0 < sigma_b_sq < math.inf:
        raise ValueError(f"input variance must be positive and finite, got {sigma_b_sq}")


def run_baseline_trials(A, noise: NoiseSpec, sigma_b_sq: float, trials: int,
                        rng: np.random.Generator) -> TrialBatchResult:
    """Empirical mean of ||b(A+E) - bA||^2 over per-trial fresh (b, E)."""
    check_run(sigma_b_sq, trials)
    A = as_matrix(A)
    m, n = A.shape

    gaussian = noise.dist == "gaussian"

    def block(rng: np.random.Generator, size: int) -> np.ndarray:
        if gaussian:
            # ||b E||^2 = sigma_e^2 sigma_b^2 chi^2_m chi^2_n
            return (noise.sigma_e_sq * sigma_b_sq
                    * rng.chisquare(m, size) * rng.chisquare(n, size))
        B = iid_entries((size, m), sigma_b_sq, noise.dist, rng)
        D = baseline_noisy_vmm(B, A, noise, rng)
        D -= B @ A
        return _row_sq(D)

    width, floor = (1, 0.0) if gaussian else (max(m, n), roundoff_floor(A, sigma_b_sq))
    return _reduce(_run_blocks(rng, trials, width, block), floor)


def _span_coords(s: SvdResult, A: np.ndarray) -> np.ndarray:
    """Q'A V for Q = s.U[:, :s.rank] and V = s.V[:, :s.rank], after
    checking that s has A's shape and is A's SVD on both sides: Q and V
    are orthonormal, A lies in span(Q), and Q'A = diag(s.singulars[:s.rank])
    V', so its rows lie in span(V). ||Q'Q - I||_F and ||V'V - I||_F may be
    at most SPAN_SLACK * sqrt(min(m, n)) * RANK_TOL_REL; each residual,
    ||A - Q Q'A||_F and ||Q'A - diag(s) V'||_F, may exceed sqrt(min(m, n))
    * RANK_TOL_REL * s_1, the most that the singular values below the rank
    tolerance can add up to, by SPAN_SLACK times at most. The residuals
    alone would pass a V with a column off unit length, and A built on it.
    Its one m x n temporary is Q Q'A, which becomes the residual A - Q Q'A
    in place and is normed in place; the rest is rank wide."""
    if s.shape != A.shape:
        raise ValueError(f"SVD shape {s.shape} does not match matrix shape {A.shape}")
    Q, V = s.U[:, :s.rank], s.V[:, :s.rank]
    tol = SPAN_SLACK * math.sqrt(min(A.shape)) * RANK_TOL_REL
    eye = np.eye(s.rank)
    for side, X in (("left", Q), ("right", V)):
        norm = _frobenius(X.T @ X - eye)
        if not norm <= tol:
            raise ValueError(f"the SVD's {s.rank} {side} singular vectors are off "
                             f"orthonormal by {norm:.3g} > {tol:.3g}: not an SVD")
    QA = Q.T @ A
    tol *= float(s.singulars[0])
    off_left = Q @ QA
    np.subtract(A, off_left, out=off_left)
    off_right = QA - s.singulars[:s.rank, None] * V.T
    for what, resid in (("lies outside the span of", off_left),
                        ("has coordinates off diag(s) V' in", off_right)):
        norm = _frobenius(resid, overwrite=True)
        if not norm <= tol:
            raise ValueError(f"the matrix {what} the SVD's {s.rank} left singular "
                             f"vectors by {norm:.3g} > {tol:.3g}: not its SVD")
    return QA @ V


@dataclass(frozen=True)
class CheckedTarget:
    """A target matrix A and its SVD s, checked once by check_target for
    any number of two-step estimates on them, with what each estimate
    reuses: QAV = Q'A V (see _span_coords) and ||A||_F, the round-off
    floor's norm. A must not change after the check."""

    s: SvdResult
    A: np.ndarray
    QAV: np.ndarray
    frobenius: float


def check_target(s: SvdResult, A) -> CheckedTarget:
    """A as a finite 2-D float64 array, checked against its SVD s: a shape
    that differs, vectors that are not orthonormal, or an A that s does
    not factor on either side (see _span_coords), is a ValueError. It
    holds one m x n temporary at a time."""
    A = as_matrix(A)
    QAV = _span_coords(s, A)
    return CheckedTarget(s=s, A=A, QAV=QAV, frobenius=_frobenius(A))


def run_two_step_trials(target: CheckedTarget, k: int, t_L: int, t_R: int, noise: NoiseSpec,
                        sigma_b_sq: float, trials: int,
                        rng: np.random.Generator) -> TrialBatchResult:
    """Empirical mean of ||c'' - bA||^2 for the rank-k factors
    factor_lr(s, k) of the m x n matrix A on t_L + t_R replica arrays; the
    error is against the exact product with the full matrix, so truncation
    cost is included.

    target is check_target(s, A) for A's SVD s, from svd(A) or from the
    factors A is built from (lowrank.factors_svd). (k, t_L, t_R) must be
    positive and fit the device budget, which also rules out k > min(m, n),
    and k may not exceed s.rank.
    """
    check_run(sigma_b_sq, trials)
    s, A, QAV = target.s, target.A, target.QAV
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
    RV = f.R @ s.V[:, :rank]
    scale_L = math.sqrt(noise.sigma_L_sq / t_L)
    scale_R = math.sqrt(noise.sigma_R_sq / t_R)
    gaussian = noise.dist == "gaussian"

    def block(rng: np.random.Generator, size: int) -> np.ndarray:
        if gaussian:
            # w = bQ: b meets L and A only through it
            W = iid_entries((size, rank), sigma_b_sq, noise.dist, rng)
            C = W @ QL
            # a noiseless stage takes the exact path, as in two_step_vmm
            if scale_L:
                b_sq = _row_sq(W)
                if m > rank:
                    b_sq += sigma_b_sq * rng.chisquare(m - rank, size)
                C += _noise_effect(b_sq, scale_L, k, rng)
            # y V for y = c R - w Q'A, whose norm it keeps
            Y = C @ RV
            Y -= W @ QAV
            if scale_R:
                return _plus_isotropic(_row_sq(Y), scale_R * np.sqrt(_row_sq(C)), n, rng)
            return _row_sq(Y)
        B = iid_entries((size, m), sigma_b_sq, noise.dist, rng)
        D = two_step_vmm(B, f, t_L, t_R, noise, rng)
        D -= B @ A
        return _row_sq(D)

    errors = _run_blocks(rng, trials, rank if gaussian else max(m, n), block)
    return _reduce(errors, _floor((m, n), target.frobenius, sigma_b_sq))


def compare(result: TrialBatchResult, analytic: float) -> tuple[float, bool]:
    """z-score of the empirical mean against the analytic value.

    Passes at |z| <= 4. A discrepancy within the result's round-off floor
    reads z = 0 and passes, so a noiseless run is not judged on round-off;
    a positive analytic value at or below the floor, which the trials cannot
    resolve, is a ValueError. Past the floor, a zero standard error yields
    an infinite z and a fail.
    """
    if 0 < analytic <= result.roundoff:
        raise ValueError(f"MC cannot resolve an analytic error of {analytic!r}: "
                         f"float64 round-off alone may reach {result.roundoff!r}")
    if abs(result.mean_sq_error - analytic) <= result.roundoff:
        return 0.0, True
    if result.std_error == 0:
        return math.copysign(math.inf, result.mean_sq_error - analytic), False
    z = (result.mean_sq_error - analytic) / result.std_error
    return z, abs(z) <= Z_PASS_LIMIT
