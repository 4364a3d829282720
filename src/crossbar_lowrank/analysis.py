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
The harmonic singular-value class (s_i = lam/i) admits closed-form bounds
on the trace and truncation tail, and an asymptotic error expression in
the array size n when the rank and truncation level grow as
r = c2*n^alpha, k = c1*r^beta.
"""
from __future__ import annotations

import math
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


@dataclass(frozen=True)
class AsymptoticParams:
    """Growth-law parameters: rank r = c2*n^alpha, truncation k = c1*r^beta."""

    alpha: float
    beta: float
    c1: float
    c2: float
    lam: float

    def __post_init__(self):
        for name in ("alpha", "beta", "c1", "c2"):
            v = getattr(self, name)
            if not 0 < v <= 1:
                raise ValueError(f"{name} must lie in (0, 1], got {v}")
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")


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
    kk = min(k, s.shape[0])
    return float(np.sum(s[kk:] ** 2)), float(np.sum(s[:kk]))


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


def t_L_max(m: int, n: int, k: int) -> int:
    """Largest t_L that leaves budget for t_R >= 1 at rank k: the number
    of t_L values the optimizers scan (at most n). The one owner of a
    rank's budget: a budget m*n over MAX_BUDGET, which the scan's int64
    arithmetic cannot hold, is a ValueError, and a rank that does not fit
    even at t_L = t_R = 1 an InfeasibleBudgetError."""
    if m * n > MAX_BUDGET:
        raise ValueError(f"the budget m*n = {m}*{n} = {m * n} exceeds {MAX_BUDGET}, "
                         f"the most the optimizer's int64 arithmetic holds")
    if not budget_feasible(m, n, k, 1, 1):
        raise InfeasibleBudgetError(
            f"rank {k} does not fit the budget even at t_L=t_R=1: "
            f"mk+nk = {m * k + n * k} > mn = {m * n}"
        )
    return (m * n - n * k) // (m * k)


def _best_split(s: np.ndarray, m: int, n: int, k: int,
                noise: NoiseSpec) -> tuple[int, int, list[float]]:
    """The winning (t_L, t_R) at rank k of a checked spectrum s, and its
    four parts per unit input variance: all t_L_max(m, n, k) values of t_L
    in one array pass, after t_L_max's refusals."""
    t_L = np.arange(1, t_L_max(m, n, k) + 1)
    t_R = (m * n - t_L * m * k) // (n * k)
    with np.errstate(over="ignore", invalid="ignore"):  # _scaled refuses a non-finite winner
        unit = _breakdown(*_tail_and_trace(s, k), m, n, k, t_L, t_R,
                          noise.sigma_L_sq, noise.sigma_R_sq)
    best = least(unit.total.tolist())
    # truncation does not depend on t_L: it is the one scalar field
    return int(t_L[best]), int(t_R[best]), [
        float(unit.truncation), float(unit.stage1_noise[best]),
        float(unit.stage2_noise[best]), float(unit.accumulated[best])]


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
    t_L_max for the budgets refused and _scaled for the totals refused.
    """
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k must be in [1, min(m, n)]=[1, {min(m, n)}], got {k}")
    _check_variances(sigma_b_sq)
    t_L, t_R, unit = _best_split(check_spectrum(singulars), m, n, k, noise)
    return t_L, t_R, ErrorBreakdown(*_scaled(sigma_b_sq, unit, "the least two-step error"))


def optimize_rank(singulars, m: int, n: int, noise: NoiseSpec, sigma_b_sq: float,
                  k_max: int) -> tuple[int, int, int, ErrorBreakdown]:
    """Joint best (k, t_L, t_R) over k in [1, k_max], each k's unit total
    being its best split's; least picks k, and only the winner is scaled."""
    if not 1 <= k_max <= min(m, n):
        raise ValueError(f"k_max must be in [1, min(m, n)]=[1, {min(m, n)}], got {k_max}")
    _check_variances(sigma_b_sq)
    s = check_spectrum(singulars)
    choices = [(k, *_best_split(s, m, n, k, noise))
               for k in range(1, k_max + 1) if budget_feasible(m, n, k, 1, 1)]
    if not choices:
        raise InfeasibleBudgetError(
            f"no rank fits the budget: m+n = {m + n} devices per unit rank "
            f"exceed mn = {m * n}"
        )
    k, t_L, t_R, unit = choices[least([sum(choice[3]) for choice in choices])]
    return k, t_L, t_R, ErrorBreakdown(*_scaled(sigma_b_sq, unit, "the least two-step error"))


def harmonic_trace(lam: float, k: int) -> tuple[float, float]:
    """Exact trace sum_{i<=k} lam/i and its log-form upper bound.

    bound = lam * (ln k + gamma + 1/(2k)) with gamma the
    Euler-Mascheroni constant; bound >= exact for every k >= 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    exact = lam * math.fsum(1.0 / i for i in range(1, k + 1))
    bound = lam * (math.log(k) + EULER_MASCHERONI + 1.0 / (2.0 * k))
    return exact, bound


def tail_bound(lam: float, k: int, r: int) -> tuple[float, float | None]:
    """Exact truncation tail sum_{i=k+1..r} (lam/i)^2 and its bound.

    bound = lam^2 * (1/k - 1/r), valid for k >= 1; at k = 0 the bound is
    undefined and None is returned in its place.
    """
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if k > r:
        raise ValueError(f"k must not exceed r, got k={k}, r={r}")
    exact = lam * lam * math.fsum(1.0 / (i * i) for i in range(k + 1, r + 1))
    if k == 0:
        return exact, None
    bound = lam * lam * (1.0 / k - 1.0 / r)
    return exact, bound


def asymptotic_bound(n: int, p: AsymptoticParams, sigma_L_sq: float,
                     sigma_R_sq: float, sigma_b_sq: float) -> float:
    """Growth-law approximation of the error at array size n, not a bound.

    Evaluated with real-valued k = c1*r^beta and r = c2*n^alpha (no
    flooring): truncation tail bound plus the stage-noise trace bounds
    plus the accumulated term, with repetition counts absorbed into the
    constants. It lies above every row of scaling's default grid at
    alpha = 1, but not above every integer row: at alpha = 0.25 and
    n = 1024 (r = 5, k floored to 2) the exact total is 1.19 times it.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    _check_variances(sigma_L_sq, sigma_R_sq, sigma_b_sq)
    ab = p.alpha * p.beta
    k_real = p.c1 * p.c2 ** p.beta * n ** ab
    r_real = p.c2 * n ** p.alpha
    term_trunc = p.lam ** 2 * (1.0 / k_real - 1.0 / r_real)
    term_stage = (4.0 * p.c1 * p.c2 ** p.beta * p.lam * (sigma_L_sq + sigma_R_sq)
                  * n ** ab * (ab * math.log(n) + 1.0 / (2.0 * k_real) + EULER_MASCHERONI))
    term_acc = (4.0 * p.c1 ** 3 * p.c2 ** (3.0 * p.beta) * n ** (3.0 * ab)
                * sigma_L_sq * sigma_R_sq)
    return _scaled(sigma_b_sq, [term_trunc + term_stage + term_acc], "the asymptotic bound")[-1]


def optimal_beta(alpha: float) -> tuple[float, float]:
    """Best truncation exponent beta* = min(1, 1/(2 alpha)) and the
    resulting error growth exponent: 2 - alpha below alpha = 1/2, else 3/2."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    beta_star = min(1.0, 1.0 / (2.0 * alpha))
    exponent = 2.0 - alpha if alpha < 0.5 else 1.5
    return beta_star, exponent


def lambda_max(m: int, n: int, dev: DeviceParams) -> float:
    """Largest harmonic-class lam that always fits the magnitude budget.

    sum(g^2) = r_T^2 * lam^2 * sum 1/i^2 <= r_T^2 * lam^2 * pi^2/6, so
    lam up to sqrt(6*m*n*rho) / (pi*r_T) is safe for every rank.
    """
    if m < 1 or n < 1:
        raise ValueError(f"dimensions must be positive, got {m}x{n}")
    return math.sqrt(6.0 * m * n * dev.rho) / (math.pi * dev.r_T)
