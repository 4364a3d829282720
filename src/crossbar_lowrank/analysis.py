"""Closed-form expected errors, budget optimization, and asymptotic growth.

All expectations are over the random input b (zero mean, covariance
sigma_b_sq * I) and the write-noise realizations. Each expected squared
error is sigma_b_sq * u, u being the error per unit input variance. The
baseline one-shot scheme has u = m*n*sigma_e_sq regardless of A. The
two-step scheme's u splits into four additive parts:

  truncation   sum_{i>k} s_i^2
  stage1_noise (m * sigma_L_sq / t_L) * trace_k
  stage2_noise (n * sigma_R_sq / t_R) * trace_k
  accumulated  (m * sigma_L_sq / t_L) * (n * sigma_R_sq / t_R) * k

with trace_k = sum_{i<=k} s_i, each part evaluated left to right as
written. So no argmin depends on sigma_b_sq: the optimizers score unit
totals, and _scaled multiplies sigma_b_sq into the parts, in one place.
One rule, least, picks every winner: t_L within a rank, k, and the sweep's k.
The optimizers score every (k, t_L) candidate of their ranks in one array
pass (_best_splits), in batches of at most MAX_SCAN candidates, with the
scalar formulas' floats and least's winner in each rank's segment.
The harmonic singular-value class (s_i = lam/i) admits closed-form bounds
on the trace and truncation tail, and with them asymptotic_bound, the
error's bound under AsymptoticParams' growth law for r and k.
"""
from __future__ import annotations

import contextlib
import itertools
import math
import sys
from collections.abc import Iterator
from dataclasses import astuple, dataclass

import numpy as np

from .core import DeviceParams
from .matrixgen import check_spectrum
from .schemes import NoiseSpec, budget_feasible

EULER_MASCHERONI = 0.5772156649015329

# relative gap within which least counts two totals as tied
TIE_RTOL = 1e-12

# the largest budget m*n that the optimizers' int64 scan arithmetic holds
MAX_BUDGET = int(np.iinfo(np.int64).max)
# the most t_L values one rank's scan may hold, and the most candidates one
# batch of the optimizers' pass holds: 8 MiB per array, and a batch holds
# 11 such arrays at its peak (88 MiB); a rank k scans about n/k of them
MAX_SCAN = 2 ** 20


class InfeasibleBudgetError(ValueError):
    """No repetition assignment fits the memristor budget."""


@dataclass(frozen=True)
class ErrorBreakdown:
    """The four additive components of the two-step expected error."""

    truncation: float
    stage1_noise: float
    stage2_noise: float
    accumulated: float
    total: float


def _check_knob(name: str, v: float) -> None:
    if not 0 < v <= 1:
        raise ValueError(f"{name} must lie in (0, 1], got {v}")


@dataclass(frozen=True)
class AsymptoticParams:
    """The growth law, each knob in (0, 1]: at array size n, ranks gives
    r = min(n, max(1, floor(c2*n^alpha))) and k = min(r, max(1, floor(c1*r^beta)))."""

    alpha: float
    beta: float
    c1: float
    c2: float

    def __post_init__(self):
        for name, v in vars(self).items():
            _check_knob(name, v)

    def ranks(self, n: int) -> tuple[int, int]:
        """(r, k) at array size n; an n below 1 or past float64's range is a ValueError."""
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        if n > sys.float_info.max:
            raise ValueError("n is too large for float64")
        r = min(n, max(1, math.floor(self.c2 * float(n) ** self.alpha)))
        return r, min(r, max(1, math.floor(self.c1 * r ** self.beta)))


def _check_lam(lam: float) -> None:
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be finite and positive, got {lam}")


def _check_variances(*values: float) -> None:
    if not all(math.isfinite(v) and v >= 0 for v in values):
        raise ValueError(f"variances must be finite and nonnegative, got {values}")


def least(totals) -> int:
    """Index of the first total t that the least total does not undercut by
    a relative TIE_RTOL (t (1 - TIE_RTOL) <= least), so round-off cannot
    break an exact tie and ties go to the earlier index. A NaN never beats
    a number; all-NaN totals give 0, whose NaN the caller refuses."""
    low = min((t for t in totals if t == t), default=math.inf)  # NaN != NaN
    return next((i for i, t in enumerate(totals) if t * (1.0 - TIE_RTOL) <= low), 0)


def _scaled(sigma_b_sq: float, unit_parts, what: str) -> list[float]:
    """sigma_b_sq times each unit part, then their sum; a ValueError if the sum is
    not finite, or if it or the unit sum underflows to 0 or a subnormal from positive factors."""
    parts = [sigma_b_sq * u for u in unit_parts]
    total, unit_total = sum(parts), sum(unit_parts)
    if not math.isfinite(total):
        raise ValueError(f"{what} is {total} in float64: the variances or singular "
                         f"values are too large")
    if sigma_b_sq > 0 and unit_total > 0 and min(total, unit_total) < 2.0 ** -1022:
        raise ValueError(f"{what} underflows to {total} in float64 (sigma_b_sq * "
                         f"{unit_total}): the variances or singular values are too small")
    return parts + [total]


def baseline_error_analytic(m: int, n: int, sigma_e_sq: float, sigma_b_sq: float) -> float:
    """Expected squared error of the one-shot scheme: m*n*sigma_e_sq*sigma_b_sq."""
    if m < 1 or n < 1:
        raise ValueError(f"dimensions must be positive, got {m}x{n}")
    _check_variances(sigma_e_sq, sigma_b_sq)
    return _scaled(sigma_b_sq, [m * n * sigma_e_sq], "the baseline error")[-1]


def _breakdown(tail_sq: float, trace_k: float, m: int, n: int, k: int,
               t_L, t_R, sigma_L_sq: float, sigma_R_sq: float) -> ErrorBreakdown:
    """The four parts per unit input variance and their total; t_L and t_R
    may be equal-length integer arrays, giving array fields with one entry
    per pair and the same floats the scalar calls give."""
    left, right = m * sigma_L_sq / t_L, n * sigma_R_sq / t_R
    stage1, stage2, accumulated = left * trace_k, right * trace_k, left * right * k
    return ErrorBreakdown(tail_sq, stage1, stage2, accumulated,
                          tail_sq + stage1 + stage2 + accumulated)


def _tail_and_trace(s: np.ndarray, k: int) -> tuple[float, float]:
    """sum_{i>k} s_i^2 and sum_{i<=k} s_i, each one np.add.reduce."""
    return float(np.add.reduce(np.square(s[k:]))), float(np.add.reduce(s[:k]))


def two_step_error_analytic(singulars, m: int, n: int, k: int, t_L: int, t_R: int,
                            sigma_L_sq: float, sigma_R_sq: float,
                            sigma_b_sq: float) -> ErrorBreakdown:
    """Expected squared error of the two-step scheme, split into components.

    singulars are the target's singular values in nonincreasing order;
    the truncation tail sums whatever values are available past k.
    """
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k must be in [1, min(m, n)]=[1, {min(m, n)}], got {k}")
    if t_L < 1 or t_R < 1:
        raise ValueError(f"repetition counts must be >= 1, got t_L={t_L}, t_R={t_R}")
    _check_variances(sigma_L_sq, sigma_R_sq, sigma_b_sq)
    with np.errstate(over="ignore"):  # an inf tail is refused with its total
        unit = _breakdown(*_tail_and_trace(check_spectrum(singulars), k), m, n, k,
                          t_L, t_R, sigma_L_sq, sigma_R_sq)
    return ErrorBreakdown(*_scaled(sigma_b_sq, astuple(unit)[:4], "the two-step error"))


def _check_fits(m: int, n: int, k: int) -> None:
    if not budget_feasible(m, n, k, 1, 1):
        raise InfeasibleBudgetError(f"rank {k} does not fit the budget even at t_L=t_R=1: "
                                    f"mk+nk = {m * k + n * k} > mn = {m * n}")


def t_L_max(m: int, n: int, k: int) -> int:
    """Largest t_L that leaves budget for t_R >= 1 at rank k: the number
    of t_L values the optimizers scan (at most n). The one owner of a
    rank's budget and scan: a budget m*n over MAX_BUDGET, which the scan's
    int64 arithmetic cannot hold, is a ValueError; a rank that does not
    fit even at t_L = t_R = 1 an InfeasibleBudgetError; and a scan longer
    than MAX_SCAN values (about n/k > 2**20) a ValueError, raised before
    any candidate is allocated."""
    if m * n > MAX_BUDGET:
        raise ValueError(f"the budget m*n = {m}*{n} = {m * n} exceeds {MAX_BUDGET}, "
                         f"the most the optimizer's int64 arithmetic holds")
    _check_fits(m, n, k)
    scan = (m * n - n * k) // (m * k)
    if scan > MAX_SCAN:
        raise ValueError(f"rank {k} would scan {scan} t_L values, over the cap of {MAX_SCAN}")
    return scan


def _best_splits(s: np.ndarray, m: int, n: int, ranks: list[int],
                 noise: NoiseSpec) -> list[tuple[int, int, tuple[float, ...]]]:
    """The winning (t_L, t_R) at each rank of a checked spectrum s, and its
    four parts per unit input variance, from one _scan of each batch of
    consecutive ranks whose candidates add up to at most MAX_SCAN. t_L_max's
    refusals, the scan cap among them, come in rank order before any
    candidate is allocated."""
    scans = [t_L_max(m, n, k) for k in ranks]
    splits, lo = [], 0
    with np.errstate(over="ignore", invalid="ignore"):  # _scaled refuses a non-finite winner
        while lo < len(ranks):
            hi, size = lo + 1, scans[lo]
            while hi < len(ranks) and size + scans[hi] <= MAX_SCAN:
                size, hi = size + scans[hi], hi + 1
            splits += _scan(s, m, n, ranks[lo:hi], scans[lo:hi], size, noise)
            lo = hi
    return splits


def _scan(s: np.ndarray, m: int, n: int, ranks: list[int], scans: list[int], size: int,
          noise: NoiseSpec) -> list[tuple[int, int, tuple[float, ...]]]:
    """The candidates t_L in [1, scans[i]] of each rank, size in all, side
    by side in one array, scored by the elementwise _breakdown on the rank's
    own tail and trace, so every float has the bits of a scan of that rank
    alone; the winner in each rank's segment is least's: the first total
    within TIE_RTOL of the segment's least number (fmin skips NaN), or the
    segment's first if all its totals are NaN."""
    tails, traces = map(np.array, zip(*(_tail_and_trace(s, k) for k in ranks)))
    counts, starts = np.array(scans), np.array([0, *itertools.accumulate(scans[:-1])])
    k = np.array(ranks).repeat(counts)
    t_L = np.arange(1, size + 1) - starts.repeat(counts)
    t_R = (m * n - t_L * m * k) // (n * k)
    unit = _breakdown(tails.repeat(counts), traces.repeat(counts), m, n, k, t_L, t_R,
                      noise.sigma_L_sq, noise.sigma_R_sq)
    low = np.fmin.reduceat(unit.total, starts).repeat(counts)
    tied = ((unit.total * (1.0 - TIE_RTOL) <= low) | np.isnan(low)).nonzero()[0]
    best = tied[tied.searchsorted(starts)]
    return list(zip(t_L[best].tolist(), t_R[best].tolist(), zip(
        tails.tolist(), unit.stage1_noise[best].tolist(), unit.stage2_noise[best].tolist(),
        unit.accumulated[best].tolist())))


def optimize_repetitions(singulars, m: int, n: int, k: int, noise: NoiseSpec,
                         sigma_b_sq: float) -> tuple[int, int, ErrorBreakdown]:
    """Best integer (t_L, t_R) for a fixed rank k under the memristor budget.

    Scores every t_L of its feasible range, t_R filling the remaining
    budget greedily; the error is nonincreasing in t_R, so the greedy fill
    dominates any smaller t_R at the same t_L and the scan is exact. The
    winner is the smallest t_L whose total lies within a relative TIE_RTOL
    of the least (see least), so round-off in the spectrum cannot break an
    exact tie (m = n with sigma_L_sq = sigma_R_sq). Totals are scored per
    unit input variance, so the winner does not depend on sigma_b_sq; see
    t_L_max for the budgets and scans refused and _scaled for the totals
    refused.
    """
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k must be in [1, min(m, n)]=[1, {min(m, n)}], got {k}")
    return next(optimize_each_rank(singulars, m, n, [k], noise, sigma_b_sq))


def optimize_each_rank(singulars, m: int, n: int, ranks: list[int], noise: NoiseSpec,
                       sigma_b_sq: float) -> Iterator[tuple[int, int, ErrorBreakdown]]:
    """optimize_repetitions at each of `ranks` (in [1, min(m, n)]) in turn:
    one _best_splits pass scores the ranks before the first that t_L_max
    refuses, and each rank yields its result or raises its refusal lazily."""
    _check_variances(sigma_b_sq)
    s, fit = check_spectrum(singulars), 0
    with contextlib.suppress(ValueError):  # the refusal is raised again at its turn
        for k in ranks:
            t_L_max(m, n, k)
            fit += 1
    for t_L, t_R, unit in _best_splits(s, m, n, ranks[:fit], noise):
        yield t_L, t_R, ErrorBreakdown(*_scaled(sigma_b_sq, unit, "the least two-step error"))
    if fit < len(ranks):
        t_L_max(m, n, ranks[fit])


def optimize_rank(singulars, m: int, n: int, noise: NoiseSpec, sigma_b_sq: float,
                  k_max: int) -> tuple[int, int, int, ErrorBreakdown]:
    """Joint best (k, t_L, t_R) over the ranks in [1, k_max] that fit, each
    k's unit total being its best split's; least picks k, and only the winner
    is scaled. The budget grows with k, so _check_fits refuses rank 1 for all.
    All ranks' candidates are scored in one array pass, in batches of at most
    MAX_SCAN candidates, so memory stays within one batch's at any k_max.
    Rank 1 alone scans n - 1 values of t_L: the scan cap refuses n > 2**20 + 1."""
    if not 1 <= k_max <= min(m, n):
        raise ValueError(f"k_max must be in [1, min(m, n)]=[1, {min(m, n)}], got {k_max}")
    _check_variances(sigma_b_sq)
    s = check_spectrum(singulars)
    _check_fits(m, n, 1)
    ranks = [k for k in range(1, k_max + 1) if budget_feasible(m, n, k, 1, 1)]
    splits = _best_splits(s, m, n, ranks, noise)
    best = least([sum(split[2]) for split in splits])
    (t_L, t_R, unit), k = splits[best], ranks[best]
    return k, t_L, t_R, ErrorBreakdown(*_scaled(sigma_b_sq, unit, "the least two-step error"))


def _check_finite(what: str, lam: float, *values: float | None) -> None:
    if not all(math.isfinite(v) for v in values if v is not None):
        raise ValueError(f"{what} at lam={lam} is not finite in float64: lam is too large")


def _trace_bound(lam: float, k: int) -> float:
    return lam * (math.log(k) + EULER_MASCHERONI + 1.0 / (2.0 * k))


def _tail_bound(lam: float, k: int, r: int) -> float:
    return lam * lam * (1.0 / k - 1.0 / r)


def harmonic_trace(lam: float, k: int) -> tuple[float, float]:
    """Exact trace sum_{i<=k} lam/i and its log-form upper bound.

    bound = lam * (ln k + gamma + 1/(2k)) with gamma the
    Euler-Mascheroni constant; bound >= exact for every k >= 1. lam must
    be finite and positive, and a sum or bound that is not finite in
    float64 is a ValueError.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_lam(lam)
    exact = lam * math.fsum(1.0 / i for i in range(1, k + 1))
    bound = _trace_bound(lam, k)
    _check_finite("the harmonic trace", lam, exact, bound)
    return exact, bound


def tail_bound(lam: float, k: int, r: int) -> tuple[float, float | None]:
    """Exact truncation tail sum_{i=k+1..r} (lam/i)^2 and its bound.

    bound = lam^2 * (1/k - 1/r), valid for k >= 1; at k = 0 the bound is
    undefined and None is returned in its place. lam must be finite and
    positive, and a tail or bound that is not finite in float64 (lam^2
    overflows) is a ValueError.
    """
    _check_lam(lam)
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if k > r:
        raise ValueError(f"k must not exceed r, got k={k}, r={r}")
    exact = lam * lam * math.fsum(1.0 / (i * i) for i in range(k + 1, r + 1))
    bound = _tail_bound(lam, k, r) if k else None
    _check_finite("the truncation tail", lam, exact, bound)
    return exact, bound


def asymptotic_bound(n: int, p: AsymptoticParams, lam: float, sigma_L_sq: float,
                     sigma_R_sq: float, sigma_b_sq: float) -> float:
    """Upper bound, O(1) in n, on optimize_repetitions' least error at
    (r, k) = p.ranks(n), which refuses n < 1 and an n past float64, on the
    spectrum lam/i, i <= r: the four parts at t_L = t_R = floor(n/(2k)), with
    the tail and trace bounds of tail_bound and harmonic_trace for their exact
    sums. At that t_L the greedy t_R is no smaller, and the error does not
    increase with t_R. A rank that does not fit the n x n budget at
    t_L = t_R = 1 is an InfeasibleBudgetError."""
    r, k = p.ranks(n)
    _check_lam(lam)
    _check_variances(sigma_L_sq, sigma_R_sq, sigma_b_sq)
    _check_fits(n, n, k)
    t = n // (2 * k)
    unit = _breakdown(_tail_bound(lam, k, r), _trace_bound(lam, k), n, n, k, t, t,
                      sigma_L_sq, sigma_R_sq)
    return _scaled(sigma_b_sq, astuple(unit)[:4], "the asymptotic bound")[-1]


def optimal_beta(alpha: float) -> tuple[float, float]:
    """Best truncation exponent beta* = min(1, 1/(2 alpha)) and the
    resulting error growth exponent: 2 - alpha below alpha = 1/2, else 3/2."""
    _check_knob("alpha", alpha)
    beta_star = min(1.0, 1.0 / (2.0 * alpha))
    exponent = 2.0 - alpha if alpha < 0.5 else 1.5
    return beta_star, exponent


def lambda_max(m: int, n: int, dev: DeviceParams) -> float:
    """Largest harmonic-class lam that always fits the magnitude budget.

    sum(g^2) = r_T^2 * lam^2 * sum 1/i^2 <= r_T^2 * lam^2 * pi^2/6, so
    lam up to sqrt(6*m*n*rho) / (pi*r_T) is safe for every rank. The one
    owner of its range: a value that is not finite and positive in
    float64 (an extreme rho or r_T) is a ValueError that shows it.
    """
    if m < 1 or n < 1:
        raise ValueError(f"dimensions must be positive, got {m}x{n}")
    lam = math.sqrt(6.0 * m * n * dev.rho) / (math.pi * dev.r_T)
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda_max = sqrt(6*m*n*rho)/(pi*r_T) at {m}x{n} is {lam!r} "
                         f"in float64: rho or r_T is out of range")
    return lam
