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
One rule, least over unit totals, picks every winner: t_L within a rank,
and k in optimize_rank, sweep and mc. fitting_ranks states which ranks
fit the budget at all, optimize_each_rank is the one optimizer pass (greedy
t_R fill, least's ties), scaled_choices scales the ranks a caller reports,
and optimize_repetitions and optimize_rank are that pass at one rank and
over every fitting rank. The pass scores every (k, t_L) candidate in one
array pass of at most MAX_SCAN candidates, with the scalar formulas' floats.
The harmonic singular-value class (s_i = lam/i) admits closed-form bounds
on the trace and truncation tail, and with them asymptotic_bound, the
error's bound under AsymptoticParams' growth law for r and k.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import astuple, dataclass

import numpy as np

from .core import DeviceParams, check_dims, check_nonnegative, check_positive
from .matrixgen import check_spectrum
from .schemes import NoiseSpec, budget_feasible, check_repetitions

EULER_MASCHERONI = 0.5772156649015329

# relative gap within which least counts two totals as tied
TIE_RTOL = 1e-12

# the largest budget m*n that the optimizers' int64 scan arithmetic holds
MAX_BUDGET = int(np.iinfo(np.int64).max)
# the most candidates one optimizer pass may hold, over all its ranks (and so
# the most t_L values one rank's scan may hold): 8 MiB per array, and a pass
# holds 11 such arrays at its peak (88 MiB); a rank k scans about n/k of them
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


def least(totals, starts=(0,), counts=None) -> np.ndarray:
    """The index of the winner in each segment of totals, segment i holding
    the counts[i] totals from starts[i] on (by default one segment of all):
    the first total t that the segment's least number does not undercut by a
    relative TIE_RTOL (t (1 - TIE_RTOL) <= least), so round-off cannot break
    an exact tie and ties go to the earlier index. A NaN never beats a
    number (fmin skips it); an all-NaN segment gives its first index, whose
    NaN the caller refuses."""
    totals = np.asarray(totals, dtype=float)
    low = np.fmin.reduceat(totals, starts).repeat(len(totals) if counts is None else counts)
    tied = ((totals * (1.0 - TIE_RTOL) <= low) | np.isnan(low)).nonzero()[0]
    return tied[tied.searchsorted(starts)]


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
    check_dims(m, n)
    check_nonnegative(sigma_e_sq=sigma_e_sq, sigma_b_sq=sigma_b_sq)
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
    check_repetitions(t_L, t_R)
    check_nonnegative(sigma_L_sq=sigma_L_sq, sigma_R_sq=sigma_R_sq, sigma_b_sq=sigma_b_sq)
    with np.errstate(over="ignore"):  # an inf tail is refused with its total
        unit = _breakdown(*_tail_and_trace(check_spectrum(singulars), k), m, n, k,
                          t_L, t_R, sigma_L_sq, sigma_R_sq)
    return ErrorBreakdown(*_scaled(sigma_b_sq, astuple(unit)[:4], "the two-step error"))


def fitting_ranks(m: int, n: int, ranks) -> list[int]:
    """The ranks of the increasing `ranks` that fit the budget at
    t_L = t_R = 1, the one statement of that fit: a prefix of `ranks`, since
    a rank's cost (m + n) k grows with k."""
    return list(itertools.takewhile(lambda k: budget_feasible(m, n, k, 1, 1), ranks))


def _check_fits(m: int, n: int, k: int) -> None:
    if not fitting_ranks(m, n, [k]):
        raise InfeasibleBudgetError(f"rank {k} does not fit the budget even at t_L=t_R=1: "
                                    f"mk+nk = {m * k + n * k} > mn = {m * n}")


def t_L_max(m: int, n: int, k: int) -> int:
    """Largest t_L that leaves budget for t_R >= 1 at rank k: the number
    of t_L values the optimizers scan (at most n). The one owner of a
    rank's budget and scan: a rank or dimension below 1 is a ValueError
    before any arithmetic, a budget m*n over MAX_BUDGET (the scan's int64)
    a ValueError, a rank that does not fit even at t_L = t_R = 1 (any k
    past min(m, n)) an InfeasibleBudgetError, and a scan over MAX_SCAN
    values (n/k > 2**20) a ValueError, before any candidate is allocated."""
    if min(m, n, k) < 1:
        raise ValueError(f"rank {k} of a {m}x{n} array: the rank and dimensions must be >= 1")
    if m * n > MAX_BUDGET:
        raise ValueError(f"the budget m*n = {m}*{n} = {m * n} exceeds {MAX_BUDGET}, "
                         f"the most the optimizer's int64 arithmetic holds")
    _check_fits(m, n, k)
    scan = (m * n - n * k) // (m * k)
    if scan > MAX_SCAN:
        raise ValueError(f"rank {k} would scan {scan} t_L values, over the cap of {MAX_SCAN}")
    return scan


def optimize_repetitions(singulars, m: int, n: int, k: int, noise: NoiseSpec,
                         sigma_b_sq: float) -> tuple[int, int, ErrorBreakdown]:
    """Best integer (t_L, t_R) for a fixed rank k under the memristor budget,
    and its breakdown: optimize_each_rank's scan at the one rank k, scaled
    by scaled_choices, with their refusals and messages."""
    [(_, t_L, t_R, breakdown)] = scaled_choices(
        optimize_each_rank(singulars, m, n, [k], noise), sigma_b_sq)
    return t_L, t_R, breakdown


def optimize_each_rank(singulars, m: int, n: int, ranks: list[int],
                       noise: NoiseSpec) -> list[tuple[int, int, int, ErrorBreakdown]]:
    """(k, t_L, t_R, unit breakdown) at each k of `ranks`, per unit input
    variance: the one optimizer pass. Every t_L that t_L_max allows is scored
    with t_R filling the rest of the budget (the error does not grow with
    t_R, so the scan is exact), and least picks t_L. The candidates of all
    ranks lie side by side in one array, each scored by the elementwise
    _breakdown on its rank's own tail and trace, so every float has the bits
    of a pass over that rank alone. t_L_max's refusals come first, in rank
    order, then a ValueError for a pass of more than MAX_SCAN candidates in
    all, before any candidate is allocated."""
    s = check_spectrum(singulars)
    scans = [t_L_max(m, n, k) for k in ranks]
    size = sum(scans)
    if size > MAX_SCAN:
        raise ValueError(f"the {len(ranks)} ranks {ranks[0]} to {ranks[-1]} would scan {size} "
                         f"t_L values in all, over the cap of {MAX_SCAN} for one pass")
    if not ranks:
        return []
    counts, starts = np.array(scans), np.array([0, *itertools.accumulate(scans[:-1])])
    with np.errstate(over="ignore", invalid="ignore"):  # scaled_choices refuses a non-finite total
        tails, traces = map(np.array, zip(*(_tail_and_trace(s, k) for k in ranks)))
        k = np.array(ranks).repeat(counts)
        t_L = np.arange(1, size + 1) - starts.repeat(counts)
        t_R = (m * n - t_L * m * k) // (n * k)
        unit = _breakdown(tails.repeat(counts), traces.repeat(counts), m, n, k, t_L, t_R,
                          noise.sigma_L_sq, noise.sigma_R_sq)
        best = least(unit.total, starts, counts)
    columns = [t_L[best].tolist(), t_R[best].tolist(),
               *(part[best].tolist() for part in vars(unit).values())]
    return [(k, t_L, t_R, ErrorBreakdown(*parts)) for k, t_L, t_R, *parts in zip(ranks, *columns)]


def scaled_choices(choices, sigma_b_sq: float) -> list[tuple[int, int, int, ErrorBreakdown]]:
    """optimize_each_rank's choices, each unit breakdown times sigma_b_sq
    (_scaled), in order; the first total that _scaled refuses is a
    ValueError naming its rank."""
    check_nonnegative(sigma_b_sq=sigma_b_sq)
    return [(k, t_L, t_R, ErrorBreakdown(*_scaled(sigma_b_sq, astuple(unit)[:4],
                                                  f"rank {k}: the least two-step error")))
            for k, t_L, t_R, unit in choices]


def optimize_rank(singulars, m: int, n: int, noise: NoiseSpec, sigma_b_sq: float,
                  k_max: int) -> tuple[int, int, int, ErrorBreakdown]:
    """Joint best (k, t_L, t_R) over the ranks in [1, k_max] that fit
    (fitting_ranks): least over optimize_each_rank's unit totals picks k,
    and scaled_choices scales only the winner, so a losing rank's total is
    never refused. The pass refuses rank 1 if it does not fit. Rank 1 alone
    scans n - 1 values of t_L, and the pass at k_max = n about n ln(n/2),
    so at k_max = n the pass cap refuses every square n above 98,440."""
    if not 1 <= k_max <= min(m, n):
        raise ValueError(f"k_max must be in [1, min(m, n)]=[1, {min(m, n)}], got {k_max}")
    choices = optimize_each_rank(singulars, m, n,
                                 fitting_ranks(m, n, range(1, k_max + 1)) or [1], noise)
    [best] = least([unit.total for *_, unit in choices])
    return scaled_choices([choices[best]], sigma_b_sq)[0]


def _trace_bound(lam: float, k: int) -> float:
    return lam * (math.log(k) + EULER_MASCHERONI + 1.0 / (2.0 * k))


def _tail_bound(lam: float, k: int, r: int) -> float:
    return lam * lam * (1.0 / k - 1.0 / r)


def asymptotic_bound(n: int, p: AsymptoticParams, lam: float, sigma_L_sq: float,
                     sigma_R_sq: float, sigma_b_sq: float) -> float:
    """Upper bound, O(1) in n, on optimize_repetitions' least error at
    (r, k) = p.ranks(n), which refuses n < 1 and an n past float64, on the
    spectrum lam/i, i <= r: the four parts at t_L = t_R = floor(n/(2k)), with
    the tail bound lam^2 (1/k - 1/r) and the trace bound lam (ln k + gamma +
    1/(2k)), gamma the Euler-Mascheroni constant, for their exact sums. At
    that t_L the greedy t_R is no smaller, and the error does not increase
    with t_R. A rank that does not fit the n x n budget at
    t_L = t_R = 1 is an InfeasibleBudgetError."""
    r, k = p.ranks(n)
    check_positive(lam=lam)
    check_nonnegative(sigma_L_sq=sigma_L_sq, sigma_R_sq=sigma_R_sq, sigma_b_sq=sigma_b_sq)
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
    owner of its range: an m or n past float64's range is a ValueError
    before any float arithmetic, and a value that is not finite and
    positive in float64 (an extreme rho or r_T) one that shows it.
    """
    check_dims(m, n)
    if max(m, n) > sys.float_info.max:
        raise ValueError("lambda_max = sqrt(6*m*n*rho)/(pi*r_T): m or n is too large "
                         "for float64")
    lam = math.sqrt(6.0 * m * n * dev.rho) / (math.pi * dev.r_T)
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda_max = sqrt(6*m*n*rho)/(pi*r_T) at {m}x{n} is {lam!r} "
                         f"in float64: rho or r_T is out of range")
    return lam
