import collections
import dataclasses
import math
from fractions import Fraction
import sys
import timeit
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crossbar_lowrank import analysis
from crossbar_lowrank.analysis import (
    EULER_MASCHERONI,
    AsymptoticParams,
    InfeasibleBudgetError,
    asymptotic_bound,
    baseline_error_analytic,
    budget_feasible,
    lambda_max,
    optimal_beta,
    optimize_each_rank,
    optimize_rank,
    optimize_repetitions,
    scaled_choices,
    two_step_error_analytic,
)
from crossbar_lowrank.core import DeviceParams, check_nonnegative
from crossbar_lowrank.experiments import ExperimentConfig, run_scaling, target
from crossbar_lowrank.lowrank import svd
from crossbar_lowrank.matrixgen import check_spectrum, harmonic_spectrum
from crossbar_lowrank.schemes import NoiseSpec


class TestBaselineError:
    def test_unit_case(self):
        assert baseline_error_analytic(1, 1, 1.0, 1.0) == 1.0

    def test_standard_case(self):
        assert baseline_error_analytic(100, 100, 0.05, 3.0) == pytest.approx(1500.0, rel=1e-12)

    def test_linearity_in_n(self):
        one = baseline_error_analytic(8, 16, 0.07, 2.0)
        two = baseline_error_analytic(8, 32, 0.07, 2.0)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            baseline_error_analytic(0, 4, 0.1, 1.0)


class TestTwoStepError:
    def test_hand_case(self):
        bd = two_step_error_analytic([2.0], 4, 4, 1, 2, 2, 0.05, 0.05, 3.0)
        assert bd.truncation == 0.0
        assert bd.stage1_noise == pytest.approx(0.6, rel=1e-12)
        assert bd.stage2_noise == pytest.approx(0.6, rel=1e-12)
        assert bd.accumulated == pytest.approx(0.03, rel=1e-12)
        assert bd.total == pytest.approx(1.23, rel=1e-12)

    def test_total_is_component_sum(self):
        bd = two_step_error_analytic([3.0, 1.0, 0.5], 6, 8, 2, 2, 3, 0.02, 0.07, 1.5)
        assert bd.total == bd.truncation + bd.stage1_noise + bd.stage2_noise + bd.accumulated

    def test_zero_noise_is_pure_truncation(self):
        singulars = [5.0, 2.0, 1.0]
        bd = two_step_error_analytic(singulars, 8, 8, 1, 1, 1, 0.0, 0.0, 2.0)
        assert bd.total == bd.truncation == pytest.approx(2.0 * (4.0 + 1.0), rel=1e-12)
        assert bd.stage1_noise == bd.stage2_noise == bd.accumulated == 0.0

    def test_monotone_decreasing_in_repetitions(self):
        singulars = [4.0, 2.0, 1.0, 0.5]
        prev = math.inf
        for t in range(1, 8):
            total = two_step_error_analytic(singulars, 16, 16, 2, t, 3, 0.05, 0.05, 3.0).total
            assert total < prev
            prev = total
        prev = math.inf
        for t in range(1, 8):
            total = two_step_error_analytic(singulars, 16, 16, 2, 3, t, 0.05, 0.05, 3.0).total
            assert total < prev
            prev = total

    def test_truncation_nonincreasing_in_k(self):
        singulars = [4.0, 2.0, 1.0, 0.5]
        vals = [two_step_error_analytic(singulars, 8, 8, k, 1, 1, 0.05, 0.05, 1.0).truncation
                for k in range(1, 6)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_large_repetitions_full_rank_vanishes(self):
        singulars = [2.0, 1.0]
        totals = [two_step_error_analytic(singulars, 64, 64, 2, t, t, 0.05, 0.05, 3.0).total
                  for t in (1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(totals, totals[1:]))
        assert totals[-1] < 0.05 * totals[0]

    def test_rejects_bad_repetitions(self):
        with pytest.raises(ValueError):
            two_step_error_analytic([1.0], 4, 4, 1, 0, 1, 0.05, 0.05, 1.0)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            two_step_error_analytic([1.0], 4, 4, 5, 1, 1, 0.05, 0.05, 1.0)


class TestTruncationTail:
    """The tail and trace every optimizer and two_step_error_analytic sum."""

    def test_single_tail_term(self):
        tail, trace = analysis._tail_and_trace(svd(np.diag([3.0, 1.0])).singulars, 1)
        assert tail == pytest.approx(1.0)
        assert trace == pytest.approx(3.0)

    def test_beyond_rank_is_exact_zero(self):
        s = svd(np.diag([3.0, 1.0])).singulars
        assert analysis._tail_and_trace(s, 2)[0] == 0.0
        assert analysis._tail_and_trace(s, 5)[0] == 0.0

    def test_harmonic_pair(self):
        s = svd(np.diag([1.0, 0.5])).singulars
        assert analysis._tail_and_trace(s, 1)[0] == pytest.approx(0.25, rel=1e-12)

    def test_monotone_in_k(self):
        s = svd(np.random.default_rng(17).standard_normal((9, 9))).singulars
        tails, traces = zip(*(analysis._tail_and_trace(s, k) for k in range(10)))
        assert all(a >= b for a, b in zip(tails, tails[1:]))
        assert all(a <= b for a, b in zip(traces, traces[1:]))

    def test_tail_is_the_residual_of_numpy_truncation(self):
        A = np.random.default_rng(18).standard_normal((12, 8))
        s = svd(A).singulars
        U, sv, Vt = np.linalg.svd(A, full_matrices=False)
        fro2 = np.linalg.norm(A) ** 2
        for k in range(0, 9):
            direct = np.linalg.norm(A - (U[:, :k] * sv[:k]) @ Vt[:k]) ** 2
            assert abs(direct - analysis._tail_and_trace(s, k)[0]) <= 1e-8 * fro2


class TestBudgetFeasible:
    def test_examples(self):
        assert budget_feasible(100, 100, 16, 3, 3)
        assert not budget_feasible(100, 100, 16, 4, 4)

    def test_square_full_rank_never_fits(self):
        assert not budget_feasible(4, 4, 4, 1, 1)
        assert not budget_feasible(7, 7, 7, 1, 1)


class TestOptimizeRepetitions:
    def test_standard_sweep_point(self):
        singulars = 10.0 / np.arange(1, 17)
        noise = NoiseSpec(sigma_L_sq=0.05, sigma_R_sq=0.05)
        t_L, t_R, bd = optimize_repetitions(singulars, 100, 100, 16, noise, 3.0)
        assert (t_L, t_R) == (3, 3)
        assert budget_feasible(100, 100, 16, t_L, t_R)

    def test_boundary_rank_returns_single_repetitions(self):
        noise = NoiseSpec(sigma_L_sq=0.05, sigma_R_sq=0.05)
        t_L, t_R, _ = optimize_repetitions(np.ones(50), 100, 100, 50, noise, 3.0)
        assert (t_L, t_R) == (1, 1)

    def test_infeasible_rank_raises(self):
        noise = NoiseSpec(sigma_L_sq=0.05, sigma_R_sq=0.05)
        with pytest.raises(InfeasibleBudgetError):
            optimize_repetitions(np.ones(51), 100, 100, 51, noise, 3.0)

    def test_a_rank_past_the_array_is_the_fit_rules_refusal(self):
        # k > min(m, n) cannot fit at t_L = t_R = 1: t_L_max's message, as mc reports it
        with pytest.raises(InfeasibleBudgetError) as refusal:
            analysis.t_L_max(8, 8, 9)
        with pytest.raises(InfeasibleBudgetError) as got:
            optimize_repetitions([2.0, 1.0], 8, 8, 9, NoiseSpec(), 1.0)
        assert str(got.value) == str(refusal.value)
        assert str(got.value).startswith("rank 9 does not fit")

    def test_square_symmetric_case_nearly_balanced(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(8, 64))
            k = int(rng.integers(1, max(2, n // 4)))
            sig = float(rng.uniform(0.01, 0.1))
            singulars = np.sort(rng.uniform(0.5, 5.0, size=min(n, 2 * k)))[::-1]
            noise = NoiseSpec(sigma_L_sq=sig, sigma_R_sq=sig)
            t_L, t_R, _ = optimize_repetitions(singulars, n, n, k, noise, 2.0)
            assert abs(t_L - t_R) <= 1

    def test_round_off_never_breaks_an_exact_tie(self):
        # m = n and sigma_L_sq = sigma_R_sq make (12, 13) and (13, 12) tie
        # exactly at k=4 on the default config; the SVD's round-off used to
        # pick (13, 12) at seeds 0, 1, 7, 8, 18, 23, 31 and 38
        for seed in (0, 1, 2, 7, 8, 18, 23, 31, 38):
            cfg = ExperimentConfig(master_seed=seed)
            A, _ = target(cfg)
            t_L, t_R, _ = optimize_repetitions(svd(A).singulars, cfg.m, cfg.n, 4,
                                               cfg.noise(), cfg.sigma_b_sq)
            assert (t_L, t_R) == (12, 13), seed

    def test_matches_brute_force(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            m = int(rng.integers(4, 40))
            n = int(rng.integers(4, 40))
            k_hi = (m * n) // (m + n)
            if k_hi < 1:
                continue
            k = int(rng.integers(1, k_hi + 1))
            singulars = np.sort(rng.uniform(0.2, 4.0, size=min(m, n)))[::-1]
            noise = NoiseSpec(sigma_L_sq=float(rng.uniform(0.01, 0.2)),
                              sigma_R_sq=float(rng.uniform(0.01, 0.2)))
            sb = float(rng.uniform(0.5, 4.0))
            got = optimize_repetitions(singulars, m, n, k, noise, sb)
            best = None
            t_L = 1
            while budget_feasible(m, n, k, t_L, 1):
                t_R = 1
                while budget_feasible(m, n, k, t_L, t_R + 1):
                    t_R += 1
                bd = two_step_error_analytic(singulars, m, n, k, t_L, t_R,
                                             noise.sigma_L_sq, noise.sigma_R_sq, sb)
                if best is None or bd.total < best[2].total:
                    best = (t_L, t_R, bd)
                t_L += 1
            assert (got[0], got[1]) == (best[0], best[1])
            assert got[2].total == best[2].total


@pytest.mark.parametrize("k", [0, -1])
def test_a_rank_below_1_is_refused_by_name(k):
    # t_L_max refuses it before any arithmetic, so no entry point dies in
    # its division (k = 0) or in numpy's negative dimensions (k = -1)
    noise = NoiseSpec(sigma_L_sq=0.05, sigma_R_sq=0.05)
    for call in (lambda: analysis.t_L_max(8, 8, k),
                 lambda: optimize_repetitions([2.0, 1.0], 8, 8, k, noise, 1.0),
                 lambda: optimize_each_rank([2.0, 1.0], 8, 8, [k], noise),
                 lambda: optimize_each_rank([2.0, 1.0], 8, 8, [1, k], noise)):
        with pytest.raises(ValueError) as refusal:
            call()
        assert type(refusal.value) is ValueError
        assert str(refusal.value) == (
            f"rank {k} of a 8x8 array: the rank and dimensions must be >= 1")


@pytest.mark.parametrize("m,n", [(0, 0), (-1, -1), (0, 5)])
def test_a_dimension_below_1_is_refused_before_the_scan(m, n):
    # 0x0 and -1x-1 would pass the fit rule (0 <= 0, -2 <= 1) into the scan
    with pytest.raises(ValueError, match=f"rank 1 of a {m}x{n} array: .* must be >= 1"):
        optimize_repetitions([1.0], m, n, 1, NoiseSpec(), 1.0)



def _optimize_repetitions_by_loop(singulars, m, n, k, noise, sigma_b_sq):
    """optimize_repetitions as one scalar unit _breakdown call per t_L, the
    winner being the smallest t_L that the least total does not undercut by
    a relative TIE_RTOL, and its breakdown the closed form there: the
    reference its array pass must equal."""
    tail_sq, trace_k = analysis._tail_and_trace(np.asarray(singulars, dtype=float), k)
    candidates = []
    for t_L in range(1, analysis.t_L_max(m, n, k) + 1):
        t_R = (m * n - t_L * m * k) // (n * k)
        unit = analysis._breakdown(tail_sq, trace_k, m, n, k, t_L, t_R,
                                   noise.sigma_L_sq, noise.sigma_R_sq)
        candidates.append((t_L, t_R, unit.total))
    least_total = min(total for _, _, total in candidates)
    t_L, t_R = next((t_L, t_R) for t_L, t_R, total in candidates
                    if total * (1.0 - analysis.TIE_RTOL) <= least_total)
    return t_L, t_R, two_step_error_analytic(singulars, m, n, k, t_L, t_R, noise.sigma_L_sq,
                                             noise.sigma_R_sq, sigma_b_sq)


def test_optimize_repetitions_equals_the_scalar_loop():
    rng = np.random.default_rng(25)
    for case in range(2_000):
        m = int(rng.integers(2, 120))
        # every fourth case is square with equal stage noise, where exact
        # ties between (t_L, t_R) and (t_R, t_L) are common
        n = m if case % 4 == 0 else int(rng.integers(2, 120))
        k_hi = min(m, n, (m * n) // (m + n))
        if k_hi < 1:
            continue
        k = int(rng.integers(1, k_hi + 1))
        sl = float(rng.choice([0.0, rng.uniform(0.001, 0.5)]))
        sr = sl if case % 4 == 0 else float(rng.choice([0.0, rng.uniform(0.001, 0.5)]))
        noise = NoiseSpec(sigma_L_sq=sl, sigma_R_sq=sr)
        singulars = np.sort(rng.uniform(0.0, 5.0, size=int(rng.integers(1, min(m, n) + 1))))[::-1]
        if case % 8 == 1:
            # a flat tail that dwarfs the noise parts puts totals within
            # TIE_RTOL of each other
            singulars = np.full(singulars.size, 1e10)
        sb = float(rng.uniform(0.1, 4.0))
        got = optimize_repetitions(singulars, m, n, k, noise, sb)
        assert got == _optimize_repetitions_by_loop(singulars, m, n, k, noise, sb)
        assert all(type(v) is int for v in got[:2])
        assert all(type(v) is float for v in dataclasses.astuple(got[2]))


def test_the_argmin_does_not_depend_on_the_input_variance():
    # the optimizers score totals per unit input variance and multiply
    # sigma_b_sq into the winner's parts only
    rng = np.random.default_rng(26)
    for case in range(300):
        m = int(rng.integers(2, 60))
        n = m if case % 4 == 0 else int(rng.integers(2, 60))
        k_max = min(m, n, (m * n) // (m + n))
        if k_max < 1:
            continue
        sl = float(rng.uniform(0.001, 0.5))
        noise = NoiseSpec(sigma_L_sq=sl, sigma_R_sq=sl if case % 4 == 0
                          else float(rng.uniform(0.001, 0.5)))
        singulars = np.sort(rng.uniform(0.1, 5.0, size=min(m, n)))[::-1]
        k = int(rng.integers(1, k_max + 1))
        unit_rep = optimize_repetitions(singulars, m, n, k, noise, 1.0)
        unit_rank = optimize_rank(singulars, m, n, noise, 1.0, k_max)
        for sb in (1e-200, 1.0, 1e200):
            for got, unit in ((optimize_repetitions(singulars, m, n, k, noise, sb), unit_rep),
                              (optimize_rank(singulars, m, n, noise, sb, k_max), unit_rank)):
                assert got[:-1] == unit[:-1]
                for part, unit_part in zip(dataclasses.astuple(got[-1]),
                                           dataclasses.astuple(unit[-1])):
                    assert part == pytest.approx(sb * unit_part, rel=2e-15, abs=0)


class TestOptimizeRank:
    def test_noiseless_prefers_max_rank(self):
        singulars = np.array([4.0, 3.0, 2.0, 1.0])
        noise = NoiseSpec()
        k, t_L, t_R, bd = optimize_rank(singulars, 16, 16, noise, 1.0, 4)
        assert k == 4
        assert bd.truncation == 0.0

    def test_flat_spectrum_huge_noise_prefers_rank_one(self):
        singulars = np.ones(6)
        noise = NoiseSpec(sigma_L_sq=5.0, sigma_R_sq=5.0)
        k, _, _, _ = optimize_rank(singulars, 24, 24, noise, 1.0, 6)
        assert k == 1

    def test_result_is_feasible(self):
        singulars = 10.0 / np.arange(1, 17)
        noise = NoiseSpec(sigma_L_sq=0.05, sigma_R_sq=0.05)
        k, t_L, t_R, _ = optimize_rank(singulars, 100, 100, noise, 3.0, 16)
        assert budget_feasible(100, 100, k, t_L, t_R)
        assert k == 4  # interior optimum for the harmonic spectrum

    def test_no_feasible_rank(self):
        with pytest.raises(InfeasibleBudgetError):
            optimize_rank([1.0], 1, 1, NoiseSpec(), 1.0, 1)

    def test_no_feasible_rank_is_refused_as_rank_1(self):
        # the budget grows with k, so the refusal is the fit rule's own at k = 1
        with pytest.raises(InfeasibleBudgetError) as refusal:
            analysis.t_L_max(1, 5, 1)
        with pytest.raises(InfeasibleBudgetError) as got:
            optimize_rank([1.0], 1, 5, NoiseSpec(), 1.0, 1)
        assert str(got.value) == str(refusal.value)

    def test_rejects_bad_k_max(self):
        with pytest.raises(ValueError):
            optimize_rank([1.0], 4, 4, NoiseSpec(), 1.0, 5)


class TestBudgetPastInt64:
    """The optimizers scan t_L in int64, so a budget m*n over 2**63 - 1 is a
    ValueError, raised before the scan; 3037000500 is the least n with
    n*n past it."""

    N = 3_037_000_500

    def test_refused(self):
        n = self.N
        with pytest.raises(ValueError, match="int64"):
            optimize_repetitions([1.0], n, n, n // 2, NoiseSpec(), 1.0)
        with pytest.raises(ValueError, match="int64"):
            optimize_rank([1.0], n, n, NoiseSpec(), 1.0, 1)
        with pytest.raises(ValueError, match="int64"):
            optimize_rank([1.0], 2 ** 62, 2, NoiseSpec(), 1.0, 1)

    def test_computes_just_below(self):
        # k = (n - 1) / 2 leaves one t_L to scan
        n = self.N - 1
        t_L, t_R, bd = optimize_repetitions([1.0], n, n, (n - 1) // 2, NoiseSpec(), 1.0)
        assert (t_L, t_R) == (1, 1) and bd.truncation == 0.0
        # m*n = 2**63 - 2: k = 1 and one t_L again
        k, t_L, t_R, bd = optimize_rank([1.0], 2 ** 62 - 1, 2, NoiseSpec(), 1.0, 1)
        assert (k, t_L, t_R) == (1, 1, (2 ** 62 - 1) // 2)


class TestScanCap:
    """t_L_max refuses a scan longer than MAX_SCAN = 2**20 values of t_L,
    before any candidate is allocated; rank 1 scans n - 1 of them."""

    TOP = 2 ** 20 + 1

    def test_cap_is_inclusive(self):
        assert analysis.MAX_SCAN == 2 ** 20
        assert analysis.t_L_max(self.TOP, self.TOP, 1) == 2 ** 20
        n = self.TOP + 1
        with pytest.raises(ValueError) as refusal:
            analysis.t_L_max(n, n, 1)
        assert str(refusal.value) == (
            f"rank 1 would scan {2 ** 20 + 1} t_L values, over the cap of {2 ** 20}")

    def test_optimizers_refuse_just_over(self):
        n = self.TOP + 1
        with pytest.raises(ValueError, match="rank 1 would scan 1048577 t_L values"):
            optimize_repetitions([1.0], n, n, 1, NoiseSpec(), 1.0)
        with pytest.raises(ValueError, match="rank 1 would scan 1048577 t_L values"):
            optimize_rank([1.0], n, n, NoiseSpec(), 1.0, 1)

    def test_budget_under_int64_with_a_long_scan(self):
        # n*n fits int64, but rank 1 would scan n - 1 values (22.6 GiB of
        # candidates); checked on t_L_max alone, so a lost check cannot
        # allocate them
        n = 3_037_000_499
        with pytest.raises(ValueError, match=f"rank 1 would scan {n - 1} t_L values"):
            analysis.t_L_max(n, n, 1)


class TestNonFiniteInput:
    """A non-finite spectrum or variance is refused at the entry point, not
    turned into a NaN breakdown or a made-up argmin."""

    NOISE = NoiseSpec(sigma_L_sq=0.05, sigma_R_sq=0.05)

    @pytest.mark.parametrize("singulars", [[math.nan, 1.0], [math.inf, 1.0], [2.0, -1.0],
                                           [1.0, 5.0], [[2.0, 1.0], [4.0, 3.0]], 2.0])
    def test_rejects_bad_spectrum(self, singulars):
        with pytest.raises(ValueError, match="singular values"):
            optimize_repetitions(singulars, 40, 40, 1, self.NOISE, 3.0)
        with pytest.raises(ValueError, match="singular values"):
            optimize_rank(singulars, 40, 40, self.NOISE, 3.0, 2)
        with pytest.raises(ValueError, match="singular values"):
            two_step_error_analytic(singulars, 40, 40, 1, 1, 1, 0.05, 0.05, 3.0)

    @pytest.mark.parametrize("sigma_b_sq", [math.nan, math.inf])
    def test_rejects_bad_input_variance(self, sigma_b_sq):
        named = f"^sigma_b_sq must be finite and nonnegative, got {sigma_b_sq}$"
        with pytest.raises(ValueError, match=named):
            optimize_repetitions([2.0, 1.0], 40, 40, 1, self.NOISE, sigma_b_sq)
        with pytest.raises(ValueError, match=named):
            optimize_rank([2.0, 1.0], 40, 40, self.NOISE, sigma_b_sq, 2)
        with pytest.raises(ValueError, match=named):
            two_step_error_analytic([2.0, 1.0], 40, 40, 1, 1, 1, 0.05, 0.05, sigma_b_sq)
        with pytest.raises(ValueError, match=named):
            baseline_error_analytic(40, 40, 0.05, sigma_b_sq)

    @pytest.mark.parametrize("sigma_sq", [math.nan, math.inf, -0.1])
    def test_rejects_bad_noise_variance(self, sigma_sq):
        # each refusal names the variance it refuses
        def named(name):
            return f"^{name} must be finite and nonnegative, got {sigma_sq}$"
        with pytest.raises(ValueError, match=named("sigma_L_sq")):
            two_step_error_analytic([1.0], 4, 4, 1, 1, 1, sigma_sq, 0.05, 1.0)
        with pytest.raises(ValueError, match=named("sigma_R_sq")):
            two_step_error_analytic([1.0], 4, 4, 1, 1, 1, 0.05, sigma_sq, 1.0)
        with pytest.raises(ValueError, match=named("sigma_e_sq")):
            baseline_error_analytic(4, 4, sigma_sq, 1.0)


    def test_optimizers_at_zero_input_variance(self):
        # the argmin of the unit totals, with every part 0
        noise = NoiseSpec(0.05, 0.05, 0.05)
        zero = analysis.ErrorBreakdown(0.0, 0.0, 0.0, 0.0, 0.0)
        spectrum = harmonic_spectrum(3, 3)
        assert optimize_repetitions(spectrum, 8, 8, 2, noise, 0.0) == (
            *optimize_repetitions(spectrum, 8, 8, 2, noise, 1.0)[:2], zero)
        assert optimize_rank(spectrum, 8, 8, noise, 0.0, 3) == (
            *optimize_rank(spectrum, 8, 8, noise, 1.0, 3)[:3], zero)
        # the closed forms keep their value at zero input variance
        assert two_step_error_analytic([3.0, 1.5], 8, 8, 1, 1, 1, 0.05, 0.05, 0.0).total == 0.0
        assert baseline_error_analytic(8, 8, 0.05, 0.0) == 0.0

    def test_overflowing_closed_forms_are_refused(self):
        with pytest.raises(ValueError, match="baseline error is inf"):
            baseline_error_analytic(100, 100, 0.05, 1e308)
        spectrum = harmonic_spectrum(10.0, 4)
        with pytest.raises(ValueError, match="two-step error is inf"):
            two_step_error_analytic(spectrum, 100, 100, 1, 1, 1, 0.05, 0.05, 1e307)
        with pytest.raises(ValueError, match="two-step error is inf"):
            two_step_error_analytic([1e200, 1e200], 4, 4, 1, 1, 1, 0.05, 0.05, 1.0)
        with pytest.raises(ValueError, match="least two-step error is inf"):
            optimize_repetitions(spectrum, 100, 100, 1, self.NOISE, 1e307)
        with pytest.raises(ValueError, match="least two-step error is inf"):
            optimize_rank(spectrum, 100, 100, self.NOISE, 1e307, 1)
        # optimize_rank scales only its winner, so ranks 1 and 2, whose least
        # totals overflow at this sigma_b_sq, lose harmlessly to rank 4
        k, _, _, bd = optimize_rank(spectrum, 100, 100, self.NOISE, 1e307, 4)
        assert k == 4 and math.isfinite(bd.total)

    def _assert_the_balanced_split_wins(self, spectrum, sigma_b_sq):
        noise = NoiseSpec(sigma_L_sq=1.0, sigma_R_sq=1.0)
        t_L, t_R, bd = optimize_repetitions(spectrum, 100, 100, 1, noise, sigma_b_sq)
        assert (t_L, t_R) == (50, 50)
        assert bd == two_step_error_analytic(spectrum, 100, 100, 1, 50, 50, 1.0, 1.0,
                                             sigma_b_sq)
        assert math.isfinite(bd.total)

    def test_an_overflowing_losing_candidate_is_harmless(self):
        # at t_L = 1 stage 1 overflows (1e302 * 100 * 1e5); the winner does not
        self._assert_the_balanced_split_wins([1e5], 1e302)

    def test_a_losing_candidate_overflowing_per_unit_variance_is_harmless(self):
        # at t_L = 1 stage 1 overflows even per unit input variance
        # (100 * 1e307); the winner does not
        self._assert_the_balanced_split_wins([1e307], 1.0)

    def test_a_large_input_variance_does_not_overflow_an_intermediate(self):
        # the accumulated part is (m sigma_L^2 / t_L)(n sigma_R^2 / t_R) k times
        # sigma_b_sq, never the raw product sigma_b_sq m k n sigma_L^2 sigma_R^2
        noise = NoiseSpec(sigma_L_sq=1.0, sigma_R_sq=1.0)
        assert optimize_repetitions([1.0], 100, 100, 1, noise, 1e306) == (
            50, 50, analysis.ErrorBreakdown(0.0, 2e306, 2e306, 4e306, 8e306))

    def test_underflowing_closed_forms_are_refused(self):
        with pytest.raises(ValueError, match="baseline error underflows"):
            baseline_error_analytic(8, 8, 1e-200, 1e-200)
        with pytest.raises(ValueError, match="two-step error underflows"):
            two_step_error_analytic([1.0], 8, 8, 1, 1, 1, 0.05, 0.05, 1e-320)
        # a subnormal unit total: the truncation tail (1e-160)^2
        with pytest.raises(ValueError, match="least two-step error underflows"):
            optimize_repetitions([1.0, 1e-160], 8, 8, 1, NoiseSpec(), 1e200)
        with pytest.raises(ValueError, match="least two-step error underflows"):
            optimize_rank(harmonic_spectrum(1.0, 2), 8, 8, self.NOISE, 1e-320, 2)
        # a total that is exactly 0 is not an underflow
        assert two_step_error_analytic([1.0], 8, 8, 1, 1, 1, 0.0, 0.0, 1e-300).total == 0.0


def _harmonic(k: int) -> Fraction:
    """The exact harmonic number sum_{i<=k} 1/i."""
    return sum((Fraction(1, i) for i in range(1, k + 1)), Fraction(0))


def _inverse_squares(k: int, r: int) -> Fraction:
    """The exact tail sum_{i=k+1..r} 1/i^2."""
    return sum((Fraction(1, i * i) for i in range(k + 1, r + 1)), Fraction(0))


class TestTraceBound:
    """analysis._trace_bound, lam (ln k + gamma + 1/(2k)), against the
    exact trace sum_{i<=k} lam/i that asymptotic_bound stands it for."""

    def test_single_term(self):
        bound = analysis._trace_bound(1.0, 1)
        assert bound == pytest.approx(EULER_MASCHERONI + 0.5, rel=1e-15)
        assert Fraction(bound) >= _harmonic(1)

    def test_four_terms(self):
        bound = analysis._trace_bound(1.0, 4)
        assert _harmonic(4) == Fraction(25, 12)
        assert bound == pytest.approx(math.log(4) + EULER_MASCHERONI + 0.125, rel=1e-14)
        assert Fraction(bound) >= _harmonic(4)

    def test_scales_with_lambda(self):
        assert analysis._trace_bound(2.5, 10) == pytest.approx(
            2.5 * analysis._trace_bound(1.0, 10), rel=1e-14)
        assert Fraction(analysis._trace_bound(2.5, 10)) >= Fraction(2.5) * _harmonic(10)

    def test_bound_dominates_up_to_one_million(self):
        # Neumaier-compensated running harmonic sum: the true margin
        # gamma - (H_k - ln k - 1/(2k)) ~ 1/(12 k^2) shrinks to ~8e-14
        # at k = 1e6, far above the compensated error (~3e-15)
        total = 0.0
        comp = 0.0
        for k in range(1, 1_000_001):
            term = 1.0 / k
            t = total + term
            if abs(total) >= abs(term):
                comp += (total - t) + term
            else:
                comp += (term - t) + total
            total = t
            h_k = total + comp
            bound = math.log(k) + EULER_MASCHERONI + 0.5 / k
            assert bound >= h_k, f"harmonic bound fails at k={k}"


class TestTailBound:
    """analysis._tail_bound, lam^2 (1/k - 1/r), against the exact tail
    sum_{i=k+1..r} (lam/i)^2 that asymptotic_bound stands it for."""

    def test_single_term(self):
        assert _inverse_squares(1, 2) == Fraction(1, 4)
        assert analysis._tail_bound(1.0, 1, 2) == 0.5

    def test_k_equals_r(self):
        assert _inverse_squares(4, 4) == 0
        assert analysis._tail_bound(1.0, 4, 4) == 0.0

    def test_summation_oracle(self):
        bound = analysis._tail_bound(2.0, 4, 16)
        assert bound == pytest.approx(0.75, rel=1e-14)
        assert Fraction(4) * _inverse_squares(4, 16) <= Fraction(bound)

    @given(
        st.integers(min_value=1, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_dominance_property(self, r, k_offset, lam):
        k = max(1, r - k_offset)
        exact = lam * lam * math.fsum(1.0 / (i * i) for i in range(k + 1, r + 1))
        assert exact <= analysis._tail_bound(lam, k, r)


class TestAsymptoticBound:
    # scaling's default grid at alpha = 1, 0.4 and 0.25, and a grid of
    # larger sizes at alpha = 0.4 and 0.25
    LARGE = (16384, 32768, 65536, 131072, 262144, 524288, 1048576)
    GRIDS = [(1.0, ExperimentConfig().n_grid), (0.4, ExperimentConfig().n_grid),
             (0.25, ExperimentConfig().n_grid), (0.4, LARGE), (0.25, LARGE)]

    def _params(self):
        return AsymptoticParams(alpha=1.0, beta=0.5, c1=0.5, c2=1.0)

    @pytest.mark.parametrize("variances", [(-0.05, 0.05, 1.0), (0.05, 0.05, -1.0),
                                           (0.05, 0.05, math.nan), (math.inf, 0.05, 1.0)])
    def test_rejects_bad_variances(self, variances):
        # the message names the first bad variance, in parameter order
        [(name, value), *_] = [(name, v) for name, v in zip(
            ("sigma_L_sq", "sigma_R_sq", "sigma_b_sq"), variances) if not 0 <= v < math.inf]
        with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative, got {value}$"):
            asymptotic_bound(1024, self._params(), 10.0, *variances)

    @pytest.mark.parametrize("lam,message", [
        (0.0, "lam must be finite and positive"), (math.inf, "lam must be finite and positive"),
        (1e308, "the asymptotic bound is inf in float64")])
    def test_rejects_bad_lam(self, lam, message):
        with pytest.raises(ValueError, match=message):
            asymptotic_bound(1024, self._params(), lam, 0.05, 0.05, 3.0)

    def test_refuses_a_rank_that_does_not_fit(self):
        # c1 = beta = 1 gives k = r = n, and 2nk > n^2
        with pytest.raises(InfeasibleBudgetError, match="rank 8 does not fit"):
            asymptotic_bound(8, AsymptoticParams(1.0, 1.0, 1.0, 1.0), 1.0, 0.05, 0.05, 3.0)

    def test_zero_noise_reduction(self):
        # without write noise only the tail bound is left, at the floored (r, k)
        p = self._params()
        r, k = p.ranks(4096)
        assert (r, k) == (4096, 32)
        got = asymptotic_bound(4096, p, 10.0, 0.0, 0.0, 2.0)
        assert got == pytest.approx(2.0 * 10.0 ** 2 * (1.0 / k - 1.0 / r), rel=1e-14)

    def test_four_parts_by_hand(self):
        # n = 16: r = 16, k = floor(0.5 * 4) = 2, t_L = t_R = 16 // 4 = 4, so
        # m sigma_L^2 / t_L = n sigma_R^2 / t_R = 4 at unit variances
        trace = math.log(2) + EULER_MASCHERONI + 0.25
        want = (1 / 2 - 1 / 16) + 4 * trace + 4 * trace + 4 * 4 * 2
        assert asymptotic_bound(16, self._params(), 1.0, 1.0, 1.0, 1.0) == pytest.approx(
            want, rel=1e-15)

    def test_dominates_exact_total_at_proof_repetitions(self):
        # with t_L = t_R = floor(n / (2k)) the closed-form bound lies
        # above the exact four-term total for the harmonic class
        dev = DeviceParams()
        p = self._params()
        for n in (256, 1024):
            lam = lambda_max(n, n, dev)
            r, k = p.ranks(n)
            t = n // (2 * k)
            exact = two_step_error_analytic(harmonic_spectrum(lam, r), n, n, k, t, t,
                                            0.05, 0.05, 3.0).total
            assert asymptotic_bound(n, p, lam, 0.05, 0.05, 3.0) >= exact

    @pytest.mark.parametrize("alpha,grid", GRIDS)
    def test_bounds_every_scaling_row(self, alpha, grid):
        # the bound is evaluated at each row's own (r, k) and lam; the
        # optimizer's winner may lie within TIE_RTOL above the least total
        cfg = ExperimentConfig(alpha=alpha, n_grid=grid)
        p = cfg.growth()
        for row in run_scaling(cfg).rows:
            assert p.ranks(row.n) == (row.r, row.k)
            bound = asymptotic_bound(row.n, p, lambda_max(row.n, row.n, DeviceParams()),
                                     cfg.sigma_L_sq, cfg.sigma_R_sq, cfg.sigma_b_sq)
            assert row.analytic_total <= bound * (1 + 1e-12), (row.n, row.analytic_total, bound)

    def test_bounds_the_scaling_row_at_alpha_quarter(self):
        # scaling's default grid at alpha = 0.25 (beta = 1): at n = 1024,
        # r = 5, k = 2 and t_L = t_R = 256; a growth law in real-valued
        # (r, k) put the exact total at 1.19 times its value
        res = run_scaling(ExperimentConfig(alpha=0.25))
        row = next(row for row in res.rows if row.n == 1024)
        p = AsymptoticParams(alpha=0.25, beta=res.beta_resolved, c1=0.5, c2=1.0)
        assert (row.r, row.k) == p.ranks(1024) == (5, 2)
        lam = lambda_max(1024, 1024, DeviceParams())
        assert row.analytic_total <= asymptotic_bound(1024, p, lam, 0.05, 0.05, 3.0)

    def test_unit_repetitions_can_exceed_the_bound(self):
        # the bound holds for the optimized split, not for every split: at
        # t_L = t_R = 1 the stage terms lie above it
        n = 256
        lam = lambda_max(n, n, DeviceParams())
        p = self._params()
        r, k = p.ranks(n)
        exact = two_step_error_analytic(harmonic_spectrum(lam, r), n, n, k, 1, 1,
                                        0.05, 0.05, 3.0).total
        assert asymptotic_bound(n, p, lam, 0.05, 0.05, 3.0) < exact

    def test_growth_factor_near_eight(self):
        # alpha=1, beta=1/2, lam proportional to n: quadrupling n scales the
        # dominant zero-noise term by 4**1.5 = 8
        dev = DeviceParams()
        vals = {n: asymptotic_bound(n, self._params(), lambda_max(n, n, dev), 0.0, 0.0, 1.0)
                for n in (1024, 4096)}
        ratio = vals[4096] / vals[1024]
        assert ratio == pytest.approx(8.0, rel=0.10)

    def test_stays_closed_form_at_large_n(self):
        # O(1) in n: no sum over r = 2**26 values
        p = self._params()
        seconds = min(timeit.repeat(lambda: asymptotic_bound(2 ** 26, p, 10.0, 0.05, 0.05, 3.0),
                                    number=1, repeat=5))
        assert seconds < 1e-3

    @pytest.mark.parametrize("n,message", [(0, "n must be positive, got 0"),
                                           (-3, "n must be positive, got -3"),
                                           (10 ** 400, "n is too large for float64")])
    def test_ranks_refuses_n_outside_its_domain(self, n, message):
        # ranks owns n's domain, and asymptotic_bound asks it
        with pytest.raises(ValueError, match=message):
            self._params().ranks(n)
        with pytest.raises(ValueError, match=message):
            asymptotic_bound(n, self._params(), 10.0, 0.05, 0.05, 3.0)

    def test_ranks_holds_up_to_the_largest_float(self):
        # every n that float64 holds keeps the bits of n ** alpha
        top = int(sys.float_info.max)
        p = AsymptoticParams(alpha=0.5, beta=0.5, c1=1.0, c2=1.0)
        r = math.floor(top ** 0.5)
        assert p.ranks(top) == (r, math.floor(r ** 0.5))
        with pytest.raises(ValueError, match="n is too large for float64"):
            p.ranks(top + 1)

    def test_param_validation(self):
        for bad in [dict(alpha=0.0), dict(beta=1.5), dict(c1=0.0), dict(c2=math.nan)]:
            with pytest.raises(ValueError, match=f"{next(iter(bad))} must lie in"):
                AsymptoticParams(**{**dict(alpha=1.0, beta=0.5, c1=0.5, c2=1.0), **bad})


class TestOptimalBeta:
    def test_examples(self):
        assert optimal_beta(1.0) == (0.5, 1.5)
        assert optimal_beta(0.25) == (1.0, 1.75)
        assert optimal_beta(0.5) == (1.0, 1.5)

    def test_rejects_out_of_range(self):
        for alpha in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                optimal_beta(alpha)


class TestClosedFormsStayFinite:
    """Over the whole float64 range, a closed form returns finite values or
    raises ValueError; it never returns inf or NaN."""

    WIDE = st.floats(min_value=1e-300, max_value=1e300)

    @staticmethod
    def _finite_or_refused(f, *args):
        try:
            out = f(*args)
        except ValueError:
            return
        assert math.isfinite(out), (args, out)

    @given(WIDE, WIDE, WIDE, WIDE, WIDE, st.integers(1, 300), st.integers(1, 300))
    @example(1e300, 1e300, 1e-300, 1e300, 1e300, 300, 300)
    @example(1e-300, 1e-300, 1e300, 1e-300, 1e-300, 1, 1)
    def test_finite_or_value_error(self, lam, rho, r_T, sigma_e_sq, sigma_b_sq, m, n):
        self._finite_or_refused(lambda_max, m, n, DeviceParams(r_T=r_T, rho=rho))
        self._finite_or_refused(baseline_error_analytic, m, n, sigma_e_sq, sigma_b_sq)
        self._finite_or_refused(asymptotic_bound, n, AsymptoticParams(1.0, 0.5, 0.5, 1.0), lam,
                                sigma_e_sq, sigma_e_sq, sigma_b_sq)


class TestLambdaMax:
    def test_inverse_basel(self):
        dev = DeviceParams(r_T=1.0, rho=math.pi ** 2 / 6.0)
        assert lambda_max(1, 1, dev) == pytest.approx(1.0, rel=1e-12)

    def test_standard_case(self):
        assert lambda_max(100, 100, DeviceParams()) == pytest.approx(
            math.sqrt(60000.0) / math.pi, rel=1e-14)
        assert lambda_max(100, 100, DeviceParams()) == pytest.approx(77.9697, abs=1e-4)

    def test_r_T_halves(self):
        one = lambda_max(10, 20, DeviceParams(r_T=1.0))
        two = lambda_max(10, 20, DeviceParams(r_T=2.0))
        assert two == pytest.approx(one / 2.0, rel=1e-14)

    @pytest.mark.parametrize("device,shown", [(DeviceParams(rho=1e308), "inf"),
                                              (DeviceParams(r_T=1e308, rho=1e-300), "0.0")],
                             ids=["rho=1e308", "r_T=1e308 rho=1e-300"])
    def test_refuses_what_float64_cannot_hold(self, device, shown):
        with pytest.raises(ValueError) as refusal:
            lambda_max(8, 8, device)
        assert str(refusal.value) == (
            f"lambda_max = sqrt(6*m*n*rho)/(pi*r_T) at 8x8 is {shown} in float64: "
            f"rho or r_T is out of range")

    @pytest.mark.parametrize("m,n", [(10 ** 400, 4), (4, 10 ** 400)], ids=["huge-m", "huge-n"])
    def test_refuses_dimensions_past_float64(self, m, n):
        # 6.0 * m cannot convert such an m: refused before any float arithmetic
        with pytest.raises(ValueError) as refusal:
            lambda_max(m, n, DeviceParams())
        assert str(refusal.value) == (
            "lambda_max = sqrt(6*m*n*rho)/(pi*r_T): m or n is too large for float64")


class TestLeast:
    """One argmin rule: the first total that the least total does not
    undercut by a relative TIE_RTOL."""

    def test_exact_minimum_and_first_of_exact_ties(self):
        assert analysis.least([3.0, 1.0, 2.0]) == 1
        assert analysis.least([3.0, 1.0, 1.0]) == 1
        assert analysis.least([0.0, 0.0]) == 0

    def test_the_tie_band_does_not_depend_on_the_scan_order(self):
        # the band is measured from the least total, so 1 + 0.9e-12 ties with
        # 1 wherever it stands; a sequential scan measured it from the best
        # so far (1 + 1.8e-12) and picked index 2 in the second list
        assert analysis.least([1.0 + 0.9e-12, 1.0 + 1.8e-12, 1.0]) == 0
        assert analysis.least([1.0 + 1.8e-12, 1.0 + 0.9e-12, 1.0]) == 1
        assert analysis.least([1.0 + 3e-12, 1.0]) == 1

    def test_a_nan_never_beats_a_number(self):
        assert analysis.least([math.nan, 2.0, 1.0]) == 2
        assert analysis.least([math.nan, math.inf]) == 1
        assert analysis.least([math.inf, 1e308, math.nan]) == 1
        assert analysis.least([math.nan, math.nan]) == 0

    def test_each_segment_gets_its_own_winner(self):
        # segments [3, 1, 2], [1 + 0.9e-12, 1], [nan, nan] and [inf]: each
        # winner is a global index, the all-NaN segment's its first
        totals = [3.0, 1.0, 2.0, 1.0 + 0.9e-12, 1.0, math.nan, math.nan, math.inf]
        best = analysis.least(totals, [0, 3, 5, 7], [3, 2, 2, 1])
        assert best.tolist() == [1, 3, 5, 7]
        assert [analysis.least(totals[lo:lo + count])[0] + lo
                for lo, count in ((0, 3), (3, 2), (5, 2), (7, 1))] == best.tolist()

    def test_an_all_nan_scan_is_refused_as_nan(self):
        # sigma_L_sq = 0 times a trace that overflows makes every stage-1
        # part, and so every total, NaN
        noise = NoiseSpec(sigma_L_sq=0.0, sigma_R_sq=0.05)
        with pytest.raises(ValueError, match="the least two-step error is nan"):
            optimize_repetitions([1e308, 1e308], 40, 40, 2, noise, 1.0)


class TestOneRuleRegressions:
    NOISE = NoiseSpec(0.05, 0.05, 0.05)

    def test_a_tie_band_winner_is_the_smallest_t_L(self):
        # t_L = 16 totals 1.0000000000208334e20, 6.3e-13 relative above the
        # least (t_L = 18, 1.0000000000202021e20): tied, so 16 wins; a
        # sequential scan kept 18
        t_L, t_R, bd = optimize_repetitions([1e10, 1e10], 40, 40, 1, self.NOISE, 1.0)
        assert (t_L, t_R) == (16, 24)
        assert bd.total == 1.0000000000208334e20

    def test_an_overflowing_losing_rank_is_harmless(self):
        # k = 1's unit truncation (1e200)^2 overflows; k = 2 has none
        assert optimize_rank([1e200, 1e200], 40, 40, self.NOISE, 1.0, 2) == (
            2, 10, 10, analysis.ErrorBreakdown(0.0, 4e199, 4e199, 0.08000000000000002, 8e199))


def _scalar_least(totals) -> int:
    """The tie rule as a scalar loop, kept as the oracle of analysis.least:
    the first total within a relative TIE_RTOL of the least number, or 0
    where all are NaN."""
    low = min((t for t in totals if t == t), default=math.inf)  # NaN != NaN
    return next((i for i, t in enumerate(totals) if t * (1.0 - analysis.TIE_RTOL) <= low), 0)


def _best_split_oracle(s, m, n, k, noise):
    """The per-rank scan that the one-pass scan replaced, kept as its
    oracle: the t_L_max(m, n, k) values of t_L of rank k alone in one array
    pass, the tail and trace by np.sum, and the scalar least over the totals
    as a list."""
    t_L = np.arange(1, analysis.t_L_max(m, n, k) + 1)
    t_R = (m * n - t_L * m * k) // (n * k)
    kk = min(k, s.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        unit = analysis._breakdown(float(np.sum(s[kk:] ** 2)), float(np.sum(s[:kk])), m, n, k,
                                   t_L, t_R, noise.sigma_L_sq, noise.sigma_R_sq)
    best = _scalar_least(unit.total.tolist())
    return int(t_L[best]), int(t_R[best]), [
        float(unit.truncation), float(unit.stage1_noise[best]),
        float(unit.stage2_noise[best]), float(unit.accumulated[best])]


def _oracle_repetitions(singulars, m, n, k, noise, sigma_b_sq):
    check_nonnegative(sigma_b_sq=sigma_b_sq)
    t_L, t_R, unit = _best_split_oracle(check_spectrum(singulars), m, n, k, noise)
    return t_L, t_R, analysis.ErrorBreakdown(
        *analysis._scaled(sigma_b_sq, unit, f"rank {k}: the least two-step error"))


def _oracle_rank(singulars, m, n, noise, sigma_b_sq, k_max):
    if not 1 <= k_max <= min(m, n):
        raise ValueError(f"k_max must be in [1, min(m, n)]=[1, {min(m, n)}], got {k_max}")
    check_nonnegative(sigma_b_sq=sigma_b_sq)
    s = check_spectrum(singulars)
    analysis._check_fits(m, n, 1)
    choices = [(k, *_best_split_oracle(s, m, n, k, noise))
               for k in range(1, k_max + 1) if budget_feasible(m, n, k, 1, 1)]
    k, t_L, t_R, unit = choices[_scalar_least([sum(choice[3]) for choice in choices])]
    return k, t_L, t_R, analysis.ErrorBreakdown(
        *analysis._scaled(sigma_b_sq, unit, f"rank {k}: the least two-step error"))


def _outcome(optimizer, *args):
    """The result with each float as its bits (float.hex), or the refusal's
    type and message."""
    try:
        *ints, bd = optimizer(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    parts = dataclasses.astuple(bd)
    assert all(type(v) is int for v in ints) and all(type(v) is float for v in parts)
    return (*ints, *(v.hex() for v in parts))


def _random_spectrum(rng, size, kind):
    if kind == 0:  # a flat spectrum puts totals within TIE_RTOL of each other
        return np.full(size, float(rng.choice([1.0, 1e10])))
    if kind == 1:  # tails past 1e154 square to inf, traces past 1e308 sum to it, and
        # at zero stage noise 0 * inf turns a rank's every total NaN
        return np.full(size, float(rng.choice([1e200, 1e308, 1e300])))
    if kind == 2:
        return harmonic_spectrum(float(rng.uniform(0.5, 20.0)), size)
    return np.sort(rng.uniform(0.0, 5.0, size) * (rng.random(size) < 0.8))[::-1]


def test_the_one_pass_scan_equals_the_per_rank_scans(monkeypatch):
    """Both optimizers against the per-rank oracle on 2000 random configs:
    every fourth square with equal stage noise (exact ties), spectra whose
    totals overflow to inf or, at zero or subnormal stage noise, turn NaN
    for all or some of a rank's t_L, a sigma_b_sq that overflows a winner,
    k and k_max out of range, budgets that do not fit, and a third of the
    configs under a MAX_SCAN at or below 1.5 times rank 1's scan, so that
    their passes or ranks hit the cap. Each result must match to the bit,
    and each refusal in type and message, except that a pass whose ranks'
    scans add up past the cap is refused, naming them and their sum."""
    rng = np.random.default_rng(27)
    outcomes, real_cap = collections.Counter(), analysis.MAX_SCAN
    for case in range(2_000):
        m = int(rng.integers(1, 48))
        n = m if case % 4 == 0 else int(rng.integers(1, 48))
        # 5e-324 * m / t_L rounds to 0 past t_L = 2m, so next to an inf trace
        # some of a rank's totals are NaN and some inf
        sl = float(rng.choice([0.0, 0.05, 5e-324, rng.uniform(0.001, 0.5)]))
        sr = sl if case % 4 == 0 else float(rng.choice([0.0, 0.05, 5e-324,
                                                         rng.uniform(0.001, 0.5)]))
        noise = NoiseSpec(sigma_L_sq=sl, sigma_R_sq=sr)
        singulars = _random_spectrum(rng, int(rng.integers(1, min(m, n) + 1)), case % 5)
        sb = float(rng.choice([0.0, 1.0, rng.uniform(0.1, 4.0), 1e300]))
        k_max = int(rng.integers(1, min(m, n) + 2))
        k = int(rng.integers(1, min(m, n) + 2))
        cap = real_cap
        if case % 3 == 0 and m + n <= m * n:
            first = (m * n - n) // m  # rank 1's scan, the longest
            cap = int(rng.integers(max(1, first * 2 // 3), first + first // 2 + 1))
        monkeypatch.setattr(analysis, "MAX_SCAN", cap)
        got = _outcome(optimize_rank, singulars, m, n, noise, sb, k_max)
        want = _outcome(_oracle_rank, singulars, m, n, noise, sb, k_max)
        if got == want:
            outcomes["refusal" if len(got) == 2 else "bits"] += 1
        else:  # every rank's scan fits the cap, but not their sum
            ranks = [r for r in range(1, k_max + 1) if budget_feasible(m, n, r, 1, 1)]
            size = sum(analysis.t_L_max(m, n, r) for r in ranks)
            assert size > cap and got == (ValueError, (
                f"the {len(ranks)} ranks 1 to {ranks[-1]} would scan {size} t_L values "
                f"in all, over the cap of {cap} for one pass")), case
            outcomes["pass cap"] += 1
        assert _outcome(optimize_repetitions, singulars, m, n, k, noise, sb) == \
            _outcome(_oracle_repetitions, singulars, m, n, k, noise, sb), case
    assert outcomes["bits"] > 700 and outcomes["refusal"] > 500 and \
        outcomes["pass cap"] > 200, outcomes


def test_optimize_each_rank_is_one_call_per_rank():
    """Against one optimize_repetitions call per rank, each the one-rank
    optimize_each_rank call scaled by scaled_choices to the bit, and the
    same pair over the whole rank list, on random configs whose rank lists
    may hold ranks that do not fit or whose totals are refused: every rank
    with its result to the bit, or the first refusal in rank order, a rank
    that does not fit (t_L_max's) ahead of any total's, which names its rank."""
    rng = np.random.default_rng(35)
    outcomes = collections.Counter()
    for case in range(500):
        m, n = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        noise = NoiseSpec(sigma_L_sq=float(rng.choice([0.0, 0.05, 5e-324])),
                          sigma_R_sq=float(rng.uniform(0.001, 0.5)))
        singulars = _random_spectrum(rng, int(rng.integers(1, min(m, n) + 1)), case % 5)
        sb = float(rng.choice([1.0, 1e300]))
        # at most one rank past the last that fits, mk + nk <= mn
        top = min(m, n, m * n // (m + n) + 1)
        ranks = sorted(set(rng.integers(1, top + 1, 4).tolist()))
        want = [_outcome(optimize_repetitions, singulars, m, n, k, noise, sb) for k in ranks]
        assert want == [_outcome(lambda k: scaled_choices(
            optimize_each_rank(singulars, m, n, [k], noise), sb)[0][1:], k) for k in ranks], case
        refusals = [(k, w) for k, w in zip(ranks, want) if len(w) == 2]
        misfits = [w for k, w in refusals if w[0] is InfeasibleBudgetError]
        if misfits:
            outcome = "misfit after a refused total" if refusals[0][1] != misfits[0] else "misfit"
            want = misfits[0]
        elif refusals:
            outcome, (k, want) = "refused total", refusals[0]
            assert want[1].startswith(f"rank {k}: "), case
        else:
            outcome = "results"
        try:
            choices = scaled_choices(optimize_each_rank(singulars, m, n, ranks, noise), sb)
        except ValueError as exc:
            got = type(exc), str(exc)
        else:
            assert [choice[0] for choice in choices] == ranks, case
            got = [_outcome(lambda: choice[1:]) for choice in choices]
        assert got == want, case
        outcomes[outcome] += 1
    assert len(outcomes) == 4 and min(outcomes.values()) > 25, outcomes


def test_a_pass_over_the_cap_is_refused_before_any_allocation():
    """At m = n = 2**18 the 64 ranks scan about 1.25M candidates, more than
    MAX_SCAN, though each rank's scan fits it: the pass is refused, naming
    its ranks and their sum, before any candidate is allocated (a pass would
    hold 11 arrays of 1.25M, about 100 MiB)."""
    n = 2 ** 18
    spectrum, noise = harmonic_spectrum(10.0, 64), NoiseSpec(sigma_L_sq=0.02, sigma_R_sq=0.08)
    size = sum(analysis.t_L_max(n, n, k) for k in range(1, 65))
    assert size > 1.18 * analysis.MAX_SCAN
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as refusal:
            optimize_rank(spectrum, n, n, noise, 3.0, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert str(refusal.value) == (f"the 64 ranks 1 to 64 would scan {size} t_L values in all, "
                                  f"over the cap of {analysis.MAX_SCAN} for one pass")


def test_a_nan_total_ahead_of_an_inf_one_does_not_win():
    # the trace 2 * 1e308 overflows; at t_L = 1, t_R = 10 and the stage-2
    # factor 5 * 5e-324 / 10 rounds to 0, so stage 2 is 0 * inf, NaN; at
    # t_L = 2 (t_R = 3) it is inf. least skips the NaN, so the refusal names inf
    noise = NoiseSpec(sigma_L_sq=0.05, sigma_R_sq=5e-324)
    with pytest.raises(ValueError, match="the least two-step error is inf"):
        optimize_repetitions([1e308] * 5, 34, 5, 2, noise, 1.0)
