import dataclasses
import math
import os
import re
import time
import tracemalloc

import numpy as np
import pytest

from crossbar_lowrank import experiments, lanes, montecarlo, schemes
from crossbar_lowrank.analysis import InfeasibleBudgetError, two_step_error_analytic
from crossbar_lowrank.cli import main
from crossbar_lowrank.core import iid_entries
from crossbar_lowrank.experiments import ExperimentConfig, mc_csv, run_mc, run_sweep, sweep_csv
from crossbar_lowrank.lowrank import LrFactors, SvdResult, factor_lr, svd
from crossbar_lowrank.matrixgen import prescribed_factors
from crossbar_lowrank.montecarlo import (
    SUM_BLOCK,
    TrialBatchResult,
    _exact_sum,
    _floor,
    _frobenius,
    _reduce,
    _run_blocks,
    check_target,
    compare,
    run_baseline_trials,
    run_two_step_trials,
)
from crossbar_lowrank.rng import child_stream
from crossbar_lowrank.schemes import NOISE_CELLS, NoiseSpec, baseline_noisy_vmm, two_step_vmm


def prescribed(m, n, values, rng):
    """U diag(sigma) V' of prescribed_factors, as harmonic_matrix forms it."""
    U, sigma, V = prescribed_factors(m, n, values, rng)
    return (U * sigma) @ V.T


def small_matrix(seed=17):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(4, 4))


class TestBaselineTrials:
    def test_zero_noise_mean_is_exactly_zero(self):
        res = run_baseline_trials(small_matrix(), NoiseSpec(sigma_e_sq=0.0), 3.0,
                                  trials=50, rng=np.random.default_rng(1))
        assert res.mean_sq_error == 0.0
        assert res.std_error == 0.0
        assert compare(res, 0.0) == (0.0, True)

    def test_matches_analytic_expectation(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(8, 8))
        noise = NoiseSpec(sigma_e_sq=0.05)
        res = run_baseline_trials(A, noise, 3.0, trials=20_000, rng=np.random.default_rng(77))
        z, ok = compare(res, 8 * 8 * 0.05 * 3.0)
        assert ok, f"z={z:.2f}"

    def test_metadata_fields(self):
        res = run_baseline_trials(small_matrix(), NoiseSpec(sigma_e_sq=0.01), 1.0,
                                  trials=10, rng=np.random.default_rng(42))
        assert res.trials == 10

    def test_reproducible_and_seed_sensitive(self):
        A = small_matrix()
        noise = NoiseSpec(sigma_e_sq=0.05)
        a = run_baseline_trials(A, noise, 3.0, trials=200, rng=np.random.default_rng(5))
        b = run_baseline_trials(A, noise, 3.0, trials=200, rng=np.random.default_rng(5))
        c = run_baseline_trials(A, noise, 3.0, trials=200, rng=np.random.default_rng(6))
        assert a == b
        assert a.mean_sq_error != c.mean_sq_error

    def test_rejects_tiny_trial_counts(self):
        with pytest.raises(ValueError):
            run_baseline_trials(small_matrix(), NoiseSpec(), 1.0, trials=1,
                                rng=np.random.default_rng(0))

    @pytest.mark.parametrize("dist", ["gaussian", "uniform"])
    @pytest.mark.parametrize("sigma_b_sq", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_input_variance(self, dist, sigma_b_sq):
        with pytest.raises(ValueError, match="input variance"):
            run_baseline_trials(small_matrix(), NoiseSpec(sigma_e_sq=0.05, dist=dist),
                                sigma_b_sq, trials=10, rng=np.random.default_rng(0))

    def test_standard_error_shrinks_as_root_trials(self):
        # the errors are c chi^2_m chi^2_n; at m = n = 64 their kurtosis
        # kappa is about 3.7, and a sample SD over T trials has a relative
        # SD of about sqrt((kappa - 1) / (4 T)). The SE ratio of T and 100 T
        # trials is 10 up to both SDs' errors, so the bound is 5 SDs of
        # their difference: a false fail about once in 10^6 seeds, where an
        # SE that scaled as 1/T or T^-1/4 would read 100 or 3.2
        m = n = 64
        coarse_trials, fine_trials = 4_000, 400_000

        def chi2_moment(v, j):
            return math.prod(v + 2 * i for i in range(j))

        raw = [chi2_moment(m, j) * chi2_moment(n, j) for j in range(5)]
        var = raw[2] - raw[1] ** 2
        kappa = (raw[4] - 4 * raw[3] * raw[1] + 6 * raw[2] * raw[1] ** 2
                 - 3 * raw[1] ** 4) / var ** 2
        rel_sd = math.sqrt((kappa - 1) / 4 * (1 / coarse_trials + 1 / fine_trials))
        A, noise = np.zeros((m, n)), NoiseSpec(sigma_e_sq=0.05)
        coarse = run_baseline_trials(A, noise, 3.0, coarse_trials, rng=np.random.default_rng(31))
        fine = run_baseline_trials(A, noise, 3.0, fine_trials, rng=np.random.default_rng(31))
        ratio = coarse.std_error / fine.std_error
        assert ratio == pytest.approx(10.0, rel=5 * rel_sd)


def two_step_setup(values, m, n, k, t_L, t_R, noise, sigma_b_sq, seed=21):
    """A, its SVD s, its rank-k factors f, and run_two_step_trials'
    arguments after the target: (k, t_L, t_R, noise, sigma_b_sq)."""
    A = prescribed(m, n, values, np.random.default_rng(seed))
    s = svd(A)
    return A, s, factor_lr(s, k), (k, t_L, t_R, noise, sigma_b_sq)


class TestTwoStepTrials:
    def test_full_rank_zero_noise_error_is_roundoff(self):
        A, s, f, scheme = two_step_setup([3.0, 1.0], 6, 6, 2, 1, 1, NoiseSpec(), 2.0)
        res = run_two_step_trials(check_target(s, A), *scheme, trials=100,
                                  rng=np.random.default_rng(4))
        assert res.mean_sq_error <= 1e-18

    def test_zero_noise_truncation_only(self):
        noise = NoiseSpec()
        A, s, f, scheme = two_step_setup([3.0, 2.0, 1.0], 8, 8, 1, 1, 1, noise, 2.0)
        res = run_two_step_trials(check_target(s, A), *scheme, trials=20_000,
                                  rng=np.random.default_rng(13))
        analytic = two_step_error_analytic([3.0, 2.0, 1.0], 8, 8, 1, 1, 1,
                                           0.0, 0.0, 2.0).total
        z, ok = compare(res, analytic)
        assert ok, f"z={z:.2f}"

    def test_rank_one_hand_case(self):
        noise = NoiseSpec(sigma_L_sq=0.05, sigma_R_sq=0.05)
        A, s, f, scheme = two_step_setup([2.0], 4, 4, 1, 2, 2, noise, 3.0)
        analytic = two_step_error_analytic([2.0], 4, 4, 1, 2, 2, 0.05, 0.05, 3.0).total
        assert analytic == pytest.approx(1.23, rel=1e-10)
        res = run_two_step_trials(check_target(s, A), *scheme, trials=20_000,
                                  rng=np.random.default_rng(555))
        z, ok = compare(res, analytic)
        assert ok, f"z={z:.2f}"

    def test_rejects_mismatched_factors(self):
        # the factors come from s, so an SVD of another matrix of the same
        # shape is refused: A lies outside the span of its U[:, :rank]
        other = svd(prescribed(4, 4, [2.0], np.random.default_rng(22)))
        for dist in ("gaussian", "uniform"):
            A, s, f, scheme = two_step_setup([2.0], 4, 4, 1, 2, 2, NoiseSpec(dist=dist), 1.0)
            with pytest.raises(ValueError, match="not its SVD"):
                run_two_step_trials(check_target(other, A), *scheme, trials=5,
                                    rng=np.random.default_rng(0))
            with pytest.raises(ValueError, match="matrix shape"):
                run_two_step_trials(check_target(s, np.zeros((5, 4))), *scheme, trials=5,
                                    rng=np.random.default_rng(0))

    @pytest.mark.parametrize("dist", ["gaussian", "uniform"])
    @pytest.mark.parametrize("wrong_V", ["swapped", "sign_flipped", "other_matrix"])
    def test_rejects_an_svd_that_is_wrong_on_the_right(self, dist, wrong_V):
        # U and the singular values are A's, so A lies in span(U[:, :rank]);
        # a V that keeps span(V[:, :rank]) but pairs its columns wrongly, or
        # spans another space, fails Q'A = diag(s) V'
        A, s, f, scheme = two_step_setup([3.0, 1.5, 0.5], 12, 20, 2, 2, 3,
                                         NoiseSpec(dist=dist), 1.0)
        V = s.V.copy()
        if wrong_V == "swapped":
            V[:, [0, 1]] = V[:, [1, 0]]
        elif wrong_V == "sign_flipped":
            V[:, 1] *= -1.0
        else:
            V = svd(prescribed(12, 20, [3.0, 1.5, 0.5], np.random.default_rng(22))).V
        with pytest.raises(ValueError, match="diag\\(s\\) V'.*not its SVD"):
            run_two_step_trials(check_target(dataclasses.replace(s, V=V), A), *scheme, trials=5,
                                rng=np.random.default_rng(0))

    @pytest.mark.parametrize("dist", ["gaussian", "uniform"])
    @pytest.mark.parametrize("spoiled,message", [
        ("U", "3 left singular vectors are off orthonormal"),
        ("V", "3 right singular vectors are off orthonormal"),
        ("singulars", "diag\\(s\\) V'.*not its SVD")])
    def test_rejects_factors_that_are_not_an_svd(self, dist, spoiled, message):
        # a column of U or of V off unit length by 1e-6, with A built on the
        # spoiled factor, or singular values 0.1% off those A is built on;
        # the spoiled V leaves both span residuals at 0, so only the
        # orthonormality check refuses it
        U, sigma, V = prescribed_factors(24, 20, [3.0, 1.5, 0.5], np.random.default_rng(9))
        if spoiled == "U":
            U[:, 1] *= 1 + 1e-6
        elif spoiled == "V":
            V[:, 1] *= 1 + 1e-6
        A = (U * sigma) @ V.T
        if spoiled == "singulars":
            sigma = 1.001 * sigma
        s = SvdResult(U=U, singulars=sigma, V=V, rank=3)
        with pytest.raises(ValueError, match=message):
            run_two_step_trials(check_target(s, A), 2, 1, 1, NoiseSpec(dist=dist), 1.0, trials=5,
                                rng=np.random.default_rng(0))

    @pytest.mark.parametrize("m,n,rank", [(30, 30, 30), (50, 20, 20), (20, 50, 7),
                                          (64, 64, 5), (400, 300, 300), (8, 3, 1),
                                          (2, 2, 1)])
    def test_accepts_the_svd_of_random_and_rank_deficient_matrices(self, m, n, rank):
        rng = np.random.default_rng(m * n + rank)
        A = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        s = svd(A)
        assert s.rank == rank
        noise = NoiseSpec(sigma_L_sq=0.05, sigma_R_sq=0.05)
        res = run_two_step_trials(check_target(s, A), 1, 1, 1, noise, 1.0, trials=5,
                                  rng=np.random.default_rng(0))
        assert res.trials == 5

    def test_a_scaled_R_fails_the_verdict(self, monkeypatch):
        # R meets the trials only as R V: scaling it must show in the mean
        noise = NoiseSpec(sigma_L_sq=0.05, sigma_R_sq=0.08)
        A, s, f, scheme = two_step_setup([3.0, 1.5, 0.5], 12, 20, 2, 2, 3, noise, 2.0)
        analytic = two_step_error_analytic(s.singulars, 12, 20, 2, 2, 3, 0.05, 0.08,
                                           2.0).total
        res = run_two_step_trials(check_target(s, A), *scheme, trials=20_000,
                                  rng=np.random.default_rng(7))
        assert compare(res, analytic)[1]
        monkeypatch.setattr(montecarlo, "factor_lr", lambda *args: LrFactors(f.L, 1.1 * f.R))
        res = run_two_step_trials(check_target(s, A), *scheme, trials=20_000,
                                  rng=np.random.default_rng(7))
        z, ok = compare(res, analytic)
        assert not ok, f"z={z:.2f}"

    def test_accepts_a_tail_below_the_rank_tolerance(self):
        # s has rank 1; A strays from span(U[:, :1]) by its 1e-12 tail only
        A, s, f, scheme = two_step_setup([2.0, 1e-12], 6, 6, 1, 2, 2, NoiseSpec(), 1.0)
        assert s.rank == 1
        res = run_two_step_trials(check_target(s, A), *scheme, trials=5,
                                  rng=np.random.default_rng(0))
        assert res.trials == 5

    def test_accepts_the_svd_of_huge_entries(self):
        # the span check's residuals are about 1e154 here, so their plain
        # sum of squares overflows (a RuntimeWarning fails the test); the
        # SVD is A's, and the truncation-only run matches sigma_b^2 s_3^2,
        # formed as (s_3 sigma_b)^2 since s_3^2 alone overflows
        A, s, f, scheme = two_step_setup([3e170, 1.5e170, 0.5e170], 12, 12, 2, 1, 1,
                                         NoiseSpec(), 1e-300)
        res = run_two_step_trials(check_target(s, A), *scheme, trials=2000,
                                  rng=np.random.default_rng(5))
        analytic = (0.5e170 * 1e-150) ** 2
        z, ok = compare(res, analytic)
        assert ok, f"z={z:.2f}"

    def test_rejects_k_beyond_the_rank(self):
        A, s, f, scheme = two_step_setup([2.0], 8, 8, 1, 1, 1, NoiseSpec(), 1.0)
        with pytest.raises(ValueError, match="rank"):
            run_two_step_trials(check_target(s, A), 2, 1, 1, NoiseSpec(), 1.0, trials=5,
                                rng=np.random.default_rng(0))

    def test_rejects_any_k_for_the_zero_matrix(self):
        # rank 0: the SVD check passes on empty factors, and k = 1 is refused
        # by the rank rule, not by a reduction over an empty array
        A = np.zeros((4, 4))
        with pytest.raises(ValueError, match=r"k must be in \[1, rank\]=\[1, 0\]"):
            run_two_step_trials(check_target(svd(A), A), 1, 1, 1, NoiseSpec(), 1.0, trials=5,
                                rng=np.random.default_rng(0))

    def test_rejects_mismatched_matrix(self):
        A, s, f, scheme = two_step_setup([2.0], 4, 4, 1, 2, 2, NoiseSpec(), 1.0)
        with pytest.raises(ValueError, match="matrix shape"):
            run_two_step_trials(check_target(s, np.zeros((4, 5))), *scheme, trials=5,
                                rng=np.random.default_rng(0))

    def test_rejects_tiny_trial_counts(self):
        A, s, f, scheme = two_step_setup([2.0], 4, 4, 1, 2, 2, NoiseSpec(), 1.0)
        with pytest.raises(ValueError):
            run_two_step_trials(check_target(s, A), *scheme, trials=1,
                                rng=np.random.default_rng(0))

    @pytest.mark.parametrize("dist", ["gaussian", "uniform"])
    def test_a_trial_count_past_the_cap_draws_nothing(self, dist):
        # both entry points refuse it before the first draw, or any allocation
        noise = NoiseSpec(sigma_e_sq=0.05, sigma_L_sq=0.05, sigma_R_sq=0.05, dist=dist)
        A, s, f, scheme = two_step_setup([2.0, 1.0], 6, 6, 1, 2, 2, noise, 1.0)
        drawn = []
        spy = _DrawSpy(np.random.default_rng(0), lambda name, out: drawn.append(name))
        for run in (lambda n: run_baseline_trials(A, noise, 1.0, n, rng=spy),
                    lambda n: run_two_step_trials(check_target(s, A), *scheme, n, rng=spy)):
            with pytest.raises(ValueError, match="^trials must be at most 16777216, got 16777217"):
                run(montecarlo.MAX_TRIALS + 1)
            assert drawn == []
            assert run(2).trials == 2
            assert drawn != []
            drawn.clear()


class TestCompare:
    def test_zero_se_requires_exact_match(self):
        res = TrialBatchResult(10, 5.0, 0.0)
        assert compare(res, 5.0) == (0.0, True)
        z, ok = compare(res, 4.0)
        assert math.isinf(z) and z > 0 and not ok

    def test_z_inside_limit_passes(self):
        res = TrialBatchResult(10, 1.0, 0.1)
        z, ok = compare(res, 0.7)
        assert z == pytest.approx(3.0, rel=1e-12)
        assert ok

    def test_z_outside_limit_fails(self):
        res = TrialBatchResult(10, 1.0, 0.1)
        z, ok = compare(res, 0.5)
        assert z == pytest.approx(5.0, rel=1e-12)
        assert not ok

    def test_discrepancy_within_roundoff_floor_passes(self):
        # only an analytic 0 passes on the floor: a positive analytic value at
        # or below it is one the trials cannot resolve, and gets no verdict
        res = TrialBatchResult(2000, 6e-29, 2e-30, roundoff=1e-27)
        assert compare(res, 0.0) == (0.0, True)
        for analytic in (1e-30, 9e-28, 1e-27):
            with pytest.raises(ValueError, match="cannot resolve"):
                compare(res, analytic)
        z, ok = compare(res, 2e-27)
        assert z < -4 and not ok

    def test_floor_scales_with_signal_and_dimensions(self):
        A = np.full((2, 3), 2.0)
        eps = np.finfo(float).eps
        assert _floor(A.shape, _frobenius(A), 3.0) == pytest.approx(
            (5 * eps) ** 2 * 3.0 * 24.0, rel=1e-15)

    def test_floor_of_huge_entries_does_not_overflow(self):
        # sum(A * A) overflows past |a| ~ 1.3e154; the floor itself is finite
        A = np.full((40, 40), 1e160)
        A[0, 0] = -3e160
        eps = np.finfo(float).eps
        exact = (80 * eps) ** 2 * (1599 + 9) * 1e-100 * 1e160 * 1e160
        floor = _floor(A.shape, _frobenius(A), 1e-100)  # a RuntimeWarning fails the test
        assert math.isfinite(floor)
        assert floor == pytest.approx(exact, rel=1e-12)
        assert _floor((3, 2), _frobenius(np.zeros((3, 2))), 2.0) == 0.0

    def test_runs_carry_their_floor(self):
        # a Gaussian baseline run forms no product with A: its floor is 0
        A = small_matrix()
        uniform = _floor(A.shape, _frobenius(A), 3.0)
        for dist, floor in (("gaussian", 0.0), ("uniform", uniform)):
            res = run_baseline_trials(A, NoiseSpec(sigma_e_sq=0.05, dist=dist), 3.0,
                                      trials=10, rng=np.random.default_rng(1))
            assert res.roundoff == floor
        A, s, f, scheme = two_step_setup([2.0], 4, 4, 1, 2, 2, NoiseSpec(), 3.0)
        res = run_two_step_trials(check_target(s, A), *scheme, trials=10,
                                  rng=np.random.default_rng(1))
        assert res.roundoff == _floor(A.shape, _frobenius(A), 3.0) > 0


def _negative_peak():
    """A matrix whose largest |x| is an entry below zero."""
    X = np.random.default_rng(29).standard_normal((6, 5))
    X[4, 1] = -7.25
    return X


class TestNorms:
    """_frobenius reads max|x| as max(max x, -min x) and squares one scaled
    temporary in place; its floats, and _floor's on them, are pinned."""

    @pytest.mark.parametrize("X,norm,sigma_b_sq,floor", [
        (_negative_peak(), "0x1.364cf6b9039b4p+3", 2.5, "0x1.bc700650a72f8p-90"),
        (np.zeros((4, 3)), "0x0.0p+0", 2.5, "0x0.0p+0"),
        # a plain sum of squares overflows here; the norm and floor are finite
        (1e200 * np.random.default_rng(30).standard_normal((8, 6)),
         "0x1.09b69dbc588cbp+667", 1e-300, "0x1.1ad1a88eddf6cp+241"),
    ], ids=["negative_peak", "zeros", "near_1e200"])
    def test_pinned(self, X, norm, sigma_b_sq, floor):
        before = X.copy()
        assert _frobenius(X) == float.fromhex(norm)
        assert _floor(X.shape, _frobenius(X), sigma_b_sq) == float.fromhex(floor)
        assert np.array_equal(X, before)
        # the in-place path gives the same float and spends its argument
        assert _frobenius(X.copy(), overwrite=True) == float.fromhex(norm)

    def test_negative_peak_is_the_largest_magnitude(self):
        X = _negative_peak()
        assert -X.min() == 7.25 > X.max()

    def test_empty_is_zero(self):
        for overwrite in (False, True):
            assert _frobenius(np.zeros((0, 3)), overwrite=overwrite) == 0.0

    def test_floor_adds_one_array_of_the_matrix_size(self):
        A = np.random.default_rng(0).standard_normal((1024, 1024))
        tracemalloc.start()
        try:
            _floor(A.shape, _frobenius(A), 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * A.nbytes

    @pytest.mark.parametrize("spoiled,message", [
        ("U", "the SVD's 3 left singular vectors are off orthonormal by 2e-06 > 4.47e-09: "
              "not an SVD"),
        ("V", "the SVD's 3 right singular vectors are off orthonormal by 2e-06 > 4.47e-09: "
              "not an SVD"),
        ("singulars", "the matrix has coordinates off diag(s) V' in the SVD's 3 left "
                      "singular vectors by 0.00339 > 1.34e-08: not its SVD"),
        ("other", "the matrix lies outside the span of the SVD's 3 left singular "
                  "vectors by 3.21 > 1.34e-08: not its SVD")])
    def test_span_check_messages_are_pinned(self, spoiled, message):
        # the residuals are normed in place; each refusal's figures stay put
        U, sigma, V = prescribed_factors(24, 20, [3.0, 1.5, 0.5], np.random.default_rng(9))
        if spoiled == "U":
            U[:, 1] *= 1 + 1e-6
        elif spoiled == "V":
            V[:, 1] *= 1 + 1e-6
        A = (U * sigma) @ V.T
        s = SvdResult(U=U, singulars=1.001 * sigma if spoiled == "singulars" else sigma,
                      V=V, rank=3)
        if spoiled == "other":
            s = svd(prescribed(24, 20, [3.0, 1.5, 0.5], np.random.default_rng(22)))
        with pytest.raises(ValueError) as err:
            check_target(s, A)
        assert str(err.value) == message


def test_reduce_sums_exactly_as_the_scalar_loop():
    errors = 10.0 ** np.random.default_rng(5).uniform(-30, 5, 2_000)
    n = errors.size
    mean = math.fsum(e for e in errors) / n
    var = math.fsum((e - mean) ** 2 for e in errors) / (n - 1)
    res = _reduce(errors, 0.0)
    assert res.mean_sq_error == mean
    assert res.std_error == math.sqrt(var / n)


def _reduce_by_fsum(errors):
    """_reduce's mean and SE with both sums by math.fsum, as _reduce formed
    them before _exact_sum: the oracle for their bits."""
    trials = errors.shape[0]
    e = math.frexp(float(errors.max()))[1]
    x = np.ldexp(errors, -e)
    mean = math.fsum(memoryview(x)) / trials
    var = math.fsum(memoryview((x - mean) ** 2)) / (trials - 1)
    return math.ldexp(mean, e), math.ldexp(math.sqrt(var / trials), e)


def _sum_cases(rng, small=830):
    """Arrays of the kinds _exact_sum must sum as fsum does, at `small` random
    small lengths and at 1, 2, one block +- 1 and past 2^16; the signed kinds
    give remainders of both signs, tiny values give a subnormal sigma, and the
    negatives of one binade sum past sigma when 2^M < len(p)."""
    def kinds(n):
        sign = rng.choice([-1.0, 1.0], n)
        half_zero = 10.0 ** rng.uniform(-300, 0, n) * (rng.random(n) < 0.5)
        return {
            "uniform": rng.random(n),
            "negative_binade": -rng.uniform(0.5, 1.0, n),
            "chi2_products": rng.chisquare(12, n) * rng.chisquare(20, n),
            "exponents_to_subnormal": sign * np.ldexp(rng.random(n), rng.integers(-1074, 8, n)),
            "all_tiny": sign * np.ldexp(rng.random(n), rng.integers(-1074, -1020, n)),
            "half_zeros": half_zero,
            "near_constant": 0.3 * (1.0 + rng.integers(-3, 4, n) * 2.0 ** -52),
        }
    for n in rng.integers(1, 48, small):
        yield from kinds(int(n)).items()
    for n in (1, 2, SUM_BLOCK - 1, SUM_BLOCK, SUM_BLOCK + 1, 2 ** 16 + 3):
        yield from kinds(n).items()
    for ties in ([0.5, 2.0 ** -54], [1.0, 2.0 ** -53, 2.0 ** -100], [2.0 ** 53, 1.0],
                 [2.0 ** 53, 1.0, 2.0 ** -60], [1.0, -(2.0 ** -54), -(2.0 ** -120)],
                 [1.5, 2.0 ** -53], [2.0 ** -1074, 2.0 ** -1074], [3.0, -3.0]):
        yield "halfway", np.array(ties)
    # a tie whose parts lie in different blocks
    spread = np.zeros(2 * SUM_BLOCK + 1)
    spread[[0, SUM_BLOCK, 2 * SUM_BLOCK]] = 1.0, 2.0 ** -53, 2.0 ** -100
    yield "halfway_across_blocks", spread


def test_exact_sum_equals_fsum_bit_for_bit():
    cases = list(_sum_cases(np.random.default_rng(33)))
    assert len(cases) >= 5000
    wrong = [(kind, x.size) for kind, x in cases
             if _exact_sum(x).hex() != math.fsum(memoryview(x)).hex()]
    assert wrong == []


def test_reduce_equals_its_fsum_form_bit_for_bit():
    # the mean and SE of nonnegative errors, via the squared deviations too
    for kind, x in _sum_cases(np.random.default_rng(34), small=200):
        errors = np.abs(x)
        if errors.size > 1 and errors.max() > 0:
            res = _reduce(errors, 0.0)
            assert (res.mean_sq_error, res.std_error) == _reduce_by_fsum(errors), kind


def test_reduce_holds_no_copy_of_the_errors_as_a_list():
    # _exact_sum copies one block of the scaled errors at a time, and the
    # squared deviations overwrite the scaled copy; a list of the values
    # would add 32 B a value (a pointer and a float object)
    errors = np.random.default_rng(6).chisquare(10, 2 ** 16)
    tracemalloc.start()
    try:
        _reduce(errors, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * errors.nbytes


@pytest.mark.parametrize("errors", [[math.inf, 1.0], [math.nan, 1.0], [0.0, math.inf],
                                    [math.inf, math.nan]])
def test_reduce_refuses_a_non_finite_mean_or_variance(errors):
    # an inf or NaN trial, first or not, and both: the largest error that
    # sets the scaling is inf or NaN
    with pytest.raises(ValueError, match="not finite"):
        _reduce(np.array(errors), 0.0)


@pytest.mark.parametrize("errors,mean", [([math.inf, 1e308, 1e308], "inf"),
                                         ([1e308, math.nan, math.inf], "nan")])
def test_reduce_refuses_a_non_finite_trial_before_the_sum(errors, mean):
    # an inf trial leaves the scaling at 2^0, so a scaled sum of the finite
    # trials would overflow in fsum (an OverflowError once)
    with pytest.raises(ValueError, match=f"^the trials' mean squared error is {mean}: "
                                         f"a trial's error is not finite in float64$"):
        _reduce(np.array(errors), 0.0)


@pytest.mark.parametrize("scale", [2.0 ** -700, 1e-200, 1e200, 2.0 ** 700])
def test_reduce_scales_exactly_by_powers_of_two(scale):
    # the sums run on errors scaled by a power of two, so the results move
    # by exactly that power, and the tiny or huge errors whose squared
    # deviations used to leave float64 keep a finite, positive SE
    errors = 10.0 ** np.random.default_rng(6).uniform(-3, 3, 500)
    base, res = _reduce(errors, 0.0), _reduce(errors * scale, 0.0)
    if math.frexp(scale)[0] == 0.5:
        assert res.mean_sq_error == base.mean_sq_error * scale
        assert res.std_error == base.std_error * scale
    assert res.mean_sq_error == pytest.approx(base.mean_sq_error * scale, rel=1e-15)
    assert res.std_error == pytest.approx(base.std_error * scale, rel=1e-14)


@pytest.mark.parametrize("errors,mean,std_error", [([1e308, 1e308], 1e308, 0.0),
                                                   ([3e300, 0.0, 1.0], 1e300, 1e300)])
def test_reduce_keeps_a_finite_mean_whose_raw_sums_overflow(errors, mean, std_error):
    # the raw sum of the errors, or of their squared deviations, overflows
    res = _reduce(np.array(errors), 0.0)
    assert res.mean_sq_error == pytest.approx(mean, rel=1e-15)
    assert res.std_error == pytest.approx(std_error, rel=1e-15)


class TestLanes:
    """`lanes` (>= 1) on run_sweep and run_mc runs whole MC estimates in
    forked processes, dealt round-robin over at most one lane per estimate
    and per usable core; the output, and the error a failing estimate
    raises, are those of a serial run. Within an estimate, the trials run
    block by block, in order, on its one Generator."""

    @pytest.fixture(autouse=True)
    def three_cores(self, monkeypatch):
        # lane counts up to 3 fork as asked, whatever this host has
        monkeypatch.setattr(lanes, "_usable_cores", lambda: 3)

    @pytest.mark.parametrize("lanes", [0, -1])
    def test_count_rejects_nonpositive(self, lanes):
        for trials in (0, 300):
            cfg = ExperimentConfig(m=8, n=8, r=4, lam=3.0, trials=trials)
            with pytest.raises(ValueError, match="lanes"):
                run_sweep(cfg, lanes=lanes)
            with pytest.raises(ValueError, match="lanes"):
                run_mc(cfg, lanes=lanes)

    def test_lane_count_is_capped_by_jobs_and_cores(self):
        assert lanes._lane_count(10 ** 6, 8, 2) == 2
        assert lanes._lane_count(10 ** 6, 3, 64) == 3
        assert lanes._lane_count(10 ** 6, 0, 64) == 1
        assert lanes._lane_count(2, 8, 64) == 2
        assert lanes._lane_count(1, 8, 64) == 1

    def test_jobs_are_dealt_round_robin_to_forked_lanes(self):
        pids = lanes.in_lanes(list(range(7)), lambda job: (job, os.getpid()), 3)
        assert [job for job, _ in pids] == list(range(7))
        lane_pids = [{pid for job, pid in pids if job % 3 == lane} for lane in range(3)]
        assert lane_pids[0] == {os.getpid()}
        assert all(len(p) == 1 for p in lane_pids) and len(set.union(*lane_pids)) == 3

    @pytest.mark.parametrize("setting", ["no fork", "threads"])
    def test_without_fork_or_beside_threads_the_caller_runs_every_job(
            self, monkeypatch, setting):
        if setting == "no fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(lanes.threading, "active_count", lambda: 2)
        pids = lanes.in_lanes(list(range(4)), lambda job: os.getpid(), 3)
        assert pids == [os.getpid()] * 4

    @pytest.mark.parametrize("dist", ["gaussian", "uniform"])
    def test_output_is_the_same_at_every_lane_count(self, dist):
        cfg = ExperimentConfig(m=12, n=12, r=5, lam=3.0, dist=dist, trials=200,
                               k_range=(1, 2, 4))
        sweep = {lanes: sweep_csv(run_sweep(cfg, lanes=lanes)) for lanes in (1, 2, 3)}
        mc = {lanes: mc_csv(run_mc(cfg, lanes=lanes)) for lanes in (1, 2, 3)}
        assert sweep[1] == sweep[2] == sweep[3]
        assert mc[1] == mc[2] == mc[3]
        assert mc[1].count("two_step") == 3

    @pytest.mark.parametrize("failing", [{2, 3}, {1, 2}, {3}])
    @pytest.mark.parametrize("lanes", [1, 2, 3])
    def test_the_earliest_failing_estimate_names_the_error(self, monkeypatch, failing, lanes):
        # at 2 lanes k=1 and k=3 run in the caller and k=2 in a child
        real = experiments._two_step_mc

        def two_step_mc(config, checked, k, t_L, t_R):
            if k in failing:
                raise ValueError(f"estimate {k} fails")
            return real(config, checked, k, t_L, t_R)

        monkeypatch.setattr(experiments, "_two_step_mc", two_step_mc)
        cfg = ExperimentConfig(m=12, n=12, r=3, lam=3.0, trials=100)
        with pytest.raises(ValueError, match=rf"^rank {min(failing)}: estimate {min(failing)} fails$"):
            run_sweep(cfg, lanes=lanes)
        with pytest.raises(ValueError, match=rf"^two_step k={min(failing)}: estimate "):
            run_mc(dataclasses.replace(cfg, k_range=(1, 2, 3)), lanes=lanes)

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_a_refused_plan_costs_nothing(self, monkeypatch, lanes):
        # every rank's repetitions are chosen, and any refusal raised,
        # before the target is built or any estimate runs, in sweep as in mc
        def never(*args):
            raise AssertionError("the run went past a refused plan")

        monkeypatch.setattr(experiments, "target", never)
        monkeypatch.setattr(experiments, "_two_step_mc", never)
        # rank 2's truncation per unit input variance, (1e160/3)^2, is inf
        huge = ExperimentConfig(m=40, n=40, r=3, lam=1e160, sigma_b_sq=1e-100, trials=100,
                                k_range=(2, 3))
        for run in (run_sweep, run_mc):
            with pytest.raises(ValueError, match=r"^rank 2: the least two-step error is inf "):
                run(huge, lanes=lanes)
        # rank 1's total, 1.2e21, over a baseline of 1.92e-298 is inf: a sweep
        # row's normalized column is part of the plan
        tiny = ExperimentConfig(m=8, n=8, r=2, sigma_e_sq=1e-300, sigma_L_sq=1e10,
                                sigma_R_sq=1e10, k_range=(1, 2), trials=50)
        with pytest.raises(ValueError, match=r"^rank 1: the normalized error "):
            run_sweep(tiny, lanes=lanes)
        # rank 5 at 8x8 needs mk + nk = 80 > 64 devices
        wide = ExperimentConfig(m=8, n=8, r=6, lam=3.0, trials=50, k_range=(1, 5))
        with pytest.raises(InfeasibleBudgetError, match=r"^rank 5 does not fit the budget"):
            run_mc(wide, lanes=lanes)

    def test_an_estimate_that_overflows_in_a_child_lane(self, tmp_path, capsys):
        path = tmp_path / "inf.cfg"
        path.write_text("m=12\nn=12\nr=3\nlambda=3e169\ntrials=200\n")
        errors = []
        for lanes in ("1", "2"):
            assert main(["mc", "--config", str(path), "--lanes", lanes]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert re.fullmatch(r"error: two_step k=3: [^\n]* inf[^\n]*\n", errors[1])

    def test_a_child_that_dies_is_one_error_line(self, monkeypatch, tmp_path, capsys):
        parent, real = os.getpid(), experiments._two_step_mc

        def two_step_mc(*args):
            if os.getpid() != parent:
                os._exit(9)
            return real(*args)

        monkeypatch.setattr(experiments, "_two_step_mc", two_step_mc)
        path = tmp_path / "small.cfg"
        path.write_text("m=12\nn=12\nr=3\nlambda=3\ntrials=100\nk_range=1,2\n")
        assert main(["mc", "--config", str(path), "--lanes", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: MC lane 1 \(pid \d+\) ended without a result, "
                            r"exit code 9\n", captured.err)

    def test_a_caller_that_raises_kills_and_reaps_its_children(self):
        # the children would sleep for half a minute; the caller's
        # interrupt ends them
        def job(job):
            if job == 0:
                raise KeyboardInterrupt
            time.sleep(30)

        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            lanes.in_lanes([0, 1, 2], job, 3)
        assert time.perf_counter() - t0 < 15

    def test_blocks_tile_the_trials_once(self, monkeypatch):
        # blocks of max(1, NOISE_CELLS // width) trials, all on the run's
        # one Generator
        run_rng = np.random.default_rng(9)
        for width, size in ((1, NOISE_CELLS), (7, NOISE_CELLS // 7), (NOISE_CELLS, 1),
                            (NOISE_CELLS + 1, 1)):
            seen, rngs = [], []

            def block(rng, count):
                seen.append(count)
                rngs.append(rng)
                return np.full(count, float(len(seen)))

            trials = 3 * size + size // 2 + 1  # three full blocks and a short one
            out = _run_blocks(run_rng, trials, width, block)
            assert seen == [size] * 3 + [size // 2 + 1]
            assert all(rng is run_rng for rng in rngs) and len(rngs) == 4
            assert np.array_equal(out, np.repeat([1.0, 2.0, 3.0, 4.0], seen))


class TestBlockRule:
    """Blocks hold max(1, NOISE_CELLS // width) trials, width being 1 for
    the Gaussian baseline, the rank for the Gaussian two-step and max(m, n)
    for uniform noise."""

    def test_noise_cells_bound_every_draw_and_block_array(self, monkeypatch):
        # at NOISE_CELLS = 256, with no row of a uniform stack over 256 noise
        # cells, nothing a block draws, or sums by rows, holds more; each
        # run, of 3 blocks or more on every path, draws from the one
        # Generator it is given
        for module in (montecarlo, schemes):
            monkeypatch.setattr(module, "NOISE_CELLS", 256)
        sizes, rngs, blocks = [], [], []
        real_row_sq = montecarlo._row_sq
        real_run_blocks = montecarlo._run_blocks

        def row_sq(X):
            sizes.append(X.size)
            return real_row_sq(X)

        def run_blocks(rng, trials, width, block_fn):
            def block(rng, count):
                blocks.append(count)
                rngs.append(rng)
                return block_fn(rng, count)
            return real_run_blocks(rng, trials, width, block)

        monkeypatch.setattr(montecarlo, "_row_sq", row_sq)
        monkeypatch.setattr(montecarlo, "_run_blocks", run_blocks)
        for dist in ("gaussian", "uniform"):
            noise = NoiseSpec(sigma_e_sq=0.05, sigma_L_sq=0.05, sigma_R_sq=0.08, dist=dist)
            A, s, f, scheme = two_step_setup([3.0, 1.5, 0.5], 8, 12, 2, 2, 2, noise, 2.0)
            spy = _DrawSpy(np.random.default_rng(1),
                           lambda name, out: sizes.append(np.size(out)))
            for run in (lambda: run_baseline_trials(A, noise, 2.0, 600, rng=spy),
                        lambda: run_two_step_trials(check_target(s, A), *scheme, 600, rng=spy)):
                sizes.clear()
                rngs.clear()
                blocks.clear()
                run()
                assert max(sizes) <= 256
                assert all(rng is spy for rng in rngs)
                assert len(blocks) >= 3 and sum(blocks) == 600

    def test_blocks_continue_one_stream(self, monkeypatch):
        # 600 Gaussian baseline trials at NOISE_CELLS = 256 are blocks of 256,
        # 256 and 88, each drawing where the one before it stopped
        monkeypatch.setattr(montecarlo, "NOISE_CELLS", 256)
        cap = _Capture(monkeypatch)
        run_baseline_trials(np.ones((12, 20)), NoiseSpec(sigma_e_sq=0.05), 2.0, 600,
                            rng=np.random.default_rng(8))
        rng = child_stream(8)
        want = [0.05 * 2.0 * rng.chisquare(12, size) * rng.chisquare(20, size)
                for size in (256, 256, 88)]
        assert np.array_equal(cap.errors, np.concatenate(want))

    @pytest.mark.parametrize("seed", [8, 2 ** 64 + 3])
    def test_a_run_draws_from_its_seeds_own_stream(self, seed):
        # the run's draws are those of the Generator it is given
        res = run_baseline_trials(np.ones((12, 20)), NoiseSpec(sigma_e_sq=0.05), 2.0, 64,
                                  rng=np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        assert res == _reduce(0.05 * 2.0 * rng.chisquare(12, 64) * rng.chisquare(20, 64), 0.0)

    def test_one_block_runs_keep_their_draws(self, monkeypatch):
        # 64 trials at m, n <= 256 are one block under this rule and under
        # the fixed 64-trial blocks before it: the baseline and uniform
        # errors are those of the run's one stream's draws
        noise = NoiseSpec(sigma_e_sq=0.05, sigma_L_sq=0.05, sigma_R_sq=0.08, dist="uniform")
        A, s, f, scheme = two_step_setup([3.0, 1.5, 0.5], 12, 20, 2, 2, 3, noise, 2.0)
        cap = _Capture(monkeypatch)
        run_baseline_trials(A, dataclasses.replace(noise, dist="gaussian"), 2.0, 64,
                            rng=np.random.default_rng(8))
        rng = child_stream(8)
        assert np.array_equal(cap.errors,
                              0.05 * 2.0 * rng.chisquare(12, 64) * rng.chisquare(20, 64))
        for run, vmm in ((lambda: run_baseline_trials(A, noise, 2.0, 64,
                                                      rng=np.random.default_rng(8)),
                          lambda B, g: baseline_noisy_vmm(B, A, noise, g)),
                         (lambda: run_two_step_trials(check_target(s, A), *scheme, 64,
                                                      rng=np.random.default_rng(8)),
                          lambda B, g: two_step_vmm(B, f, 2, 3, noise, g))):
            run()
            rng = child_stream(8)
            B = iid_entries((64, 12), 2.0, "uniform", rng)
            D = vmm(B, rng) - B @ A
            assert np.array_equal(cap.errors, np.einsum("ij,ij->i", D, D))


def _ks_statistic(x, y):
    """Two-sample Kolmogorov-Smirnov statistic sup |F_x - F_y|."""
    x, y = np.sort(x), np.sort(y)
    pts = np.concatenate([x, y])
    fx = np.searchsorted(x, pts, side="right") / x.size
    fy = np.searchsorted(y, pts, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


def _ks_critical(n1, n2, alpha):
    return math.sqrt(-math.log(alpha / 2) / 2) * math.sqrt((n1 + n2) / (n1 * n2))


def _device_errors(trials, seed, vmm, A, sigma_b_sq, dist="gaussian"):
    """Per-trial squared errors of the per-cell device model, all drawn from
    the stream child_stream(seed, 0). Gaussian trials, whose block sampler
    calls no scheme function, run as one stacked call; uniform trials, whose
    block path is that stacked call, run one row at a time."""
    rng = child_stream(seed, 0)
    if dist == "gaussian":
        B = iid_entries((trials, A.shape[0]), sigma_b_sq, dist, rng)
        D = vmm(B, rng) - B @ A
        return np.einsum("ij,ij->i", D, D)
    out = np.empty(trials)
    for t in range(trials):
        b = iid_entries(A.shape[0], sigma_b_sq, dist, rng)
        d = vmm(b, rng) - b @ A
        out[t] = d @ d
    return out


class _Capture:
    """Wraps _reduce to keep the per-trial errors a run produced."""

    def __init__(self, monkeypatch):
        self.errors = None
        real = montecarlo._reduce

        def spy(errors, *args):
            self.errors = errors.copy()
            return real(errors, *args)

        monkeypatch.setattr(montecarlo, "_reduce", spy)


def _check_same_law(block, device, analytic, alpha=0.001):
    """Both error samples meet the analytic mean at |z| <= 4, and a
    two-sample KS test cannot tell them apart at level alpha."""
    for label, errs in (("block", block), ("device", device)):
        se = errs.std(ddof=1) / math.sqrt(errs.size)
        z = (errs.mean() - analytic) / se
        assert abs(z) <= 4.0, f"{label}: z={z:.2f}"
    d = _ks_statistic(block, device)
    assert d < _ks_critical(block.size, device.size, alpha), f"KS D={d:.4f}"


class TestEffectSamplerMatchesDevice:
    """The Gaussian block sampler draws each trial's squared error from its
    law: a two-step input as its coordinates w = bQ in the span of A and
    ||b||^2 = ||w||^2 + sigma_b^2 chi^2_{m-rank}, stage 1's b E_L as
    ||b|| sigma z, then stage 2 as (||y|| + a g)^2 + a^2 chi^2_{n-1}, and
    the baseline as sigma_e^2 sigma_b^2 chi^2_m chi^2_n. It must agree
    with the per-cell device model in mean and in the per-trial error
    law, with the rank below m and n or equal to m."""

    TRIALS = 20_000

    def test_two_step(self, monkeypatch):
        noise = NoiseSpec(sigma_L_sq=0.05, sigma_R_sq=0.08)
        A, s, f, scheme = two_step_setup([3.0, 1.5, 0.5], 12, 12, 2, 2, 3, noise, 2.0)
        analytic = two_step_error_analytic(svd(A).singulars, 12, 12, 2, 2, 3,
                                           0.05, 0.08, 2.0).total
        cap = _Capture(monkeypatch)
        res = run_two_step_trials(check_target(s, A), *scheme, self.TRIALS,
                                  rng=np.random.default_rng(71))
        assert res.mean_sq_error == math.fsum(cap.errors) / self.TRIALS
        device = _device_errors(self.TRIALS, 72,
                                lambda b, g: two_step_vmm(b, f, 2, 3, noise, g), A, 2.0)
        _check_same_law(cap.errors, device, analytic)

    @pytest.mark.parametrize("m,n,seed", [(20, 12, 91), (12, 20, 93), (24, 20, 101)])
    def test_two_step_rectangular(self, monkeypatch, m, n, seed):
        # stage-2 noise and ||y|| are of one order here, so the cross term
        # 2 a g ||y|| shapes the law (dropping it keeps the mean)
        noise = NoiseSpec(sigma_L_sq=0.05, sigma_R_sq=0.08)
        A, s, f, scheme = two_step_setup([3.0, 1.5, 0.5], m, n, 2, 2, 3, noise, 2.0)
        analytic = two_step_error_analytic(svd(A).singulars, m, n, 2, 2, 3,
                                           0.05, 0.08, 2.0).total
        cap = _Capture(monkeypatch)
        run_two_step_trials(check_target(s, A), *scheme, self.TRIALS,
                            rng=np.random.default_rng(seed))
        device = _device_errors(self.TRIALS, seed + 1,
                                lambda b, g: two_step_vmm(b, f, 2, 3, noise, g), A, 2.0)
        _check_same_law(cap.errors, device, analytic)

    def test_two_step_at_full_row_rank(self, monkeypatch):
        # m = rank: ||b||^2 = ||w||^2, with no chi^2_{m-rank} term
        noise = NoiseSpec(sigma_L_sq=0.05, sigma_R_sq=0.08)
        values = [3.0, 2.0, 1.5, 1.0, 0.7, 0.5]
        A, s, f, scheme = two_step_setup(values, 6, 14, 2, 2, 2, noise, 2.0)
        assert s.rank == 6
        analytic = two_step_error_analytic(s.singulars, 6, 14, 2, 2, 2,
                                           0.05, 0.08, 2.0).total
        cap = _Capture(monkeypatch)
        run_two_step_trials(check_target(s, A), *scheme, self.TRIALS,
                            rng=np.random.default_rng(103))
        device = _device_errors(self.TRIALS, 104,
                                lambda b, g: two_step_vmm(b, f, 2, 2, noise, g), A, 2.0)
        _check_same_law(cap.errors, device, analytic)

    def test_baseline(self, monkeypatch):
        A = small_matrix()
        noise = NoiseSpec(sigma_e_sq=0.05)
        cap = _Capture(monkeypatch)
        run_baseline_trials(A, noise, 3.0, self.TRIALS, rng=np.random.default_rng(73))
        device = _device_errors(self.TRIALS, 74,
                                lambda b, g: baseline_noisy_vmm(b, A, noise, g), A, 3.0)
        _check_same_law(cap.errors, device, 4 * 4 * 0.05 * 3.0)

    def test_baseline_rectangular(self, monkeypatch):
        A = np.random.default_rng(9).normal(size=(20, 12))
        noise = NoiseSpec(sigma_e_sq=0.05)
        cap = _Capture(monkeypatch)
        run_baseline_trials(A, noise, 3.0, self.TRIALS, rng=np.random.default_rng(95))
        device = _device_errors(self.TRIALS, 96,
                                lambda b, g: baseline_noisy_vmm(b, A, noise, g), A, 3.0)
        _check_same_law(cap.errors, device, 20 * 12 * 0.05 * 3.0)

    @pytest.mark.parametrize("shape", [(1, 7), (7, 1), (1, 1)])
    def test_baseline_single_row_or_column(self, shape):
        # chi^2 with one degree of freedom on either side
        m, n = shape
        res = run_baseline_trials(np.ones(shape), NoiseSpec(sigma_e_sq=0.05), 3.0,
                                  trials=50_000, rng=np.random.default_rng(97))
        z, ok = compare(res, m * n * 0.05 * 3.0)
        assert ok, f"z={z:.2f}"

    def test_noiseless_stage_two_is_the_exact_norm(self, monkeypatch):
        # sigma_R^2 = 0: the error is ||(c R - b A) V||^2 of the run's own
        # w = bQ, ||b|| and c, with nothing drawn for stage 2; V keeps the
        # norm, which the unprojected product matches to round-off
        noise = NoiseSpec(sigma_L_sq=0.05)
        A, s, f, scheme = two_step_setup([3.0, 1.5, 0.5], 20, 12, 2, 2, 3, noise, 2.0)
        trials = NOISE_CELLS // 3  # one block, rank 3 wide
        cap = _Capture(monkeypatch)
        run_two_step_trials(check_target(s, A), *scheme, trials, rng=np.random.default_rng(5))
        rng = child_stream(5)
        Q, V = s.U[:, :3], s.V[:, :3]
        W = iid_entries((trials, 3), 2.0, "gaussian", rng)
        b_sq = np.einsum("ij,ij->i", W, W) + 2.0 * rng.chisquare(20 - 3, trials)
        C = W @ (Q.T @ f.L) + montecarlo._noise_effect(b_sq, math.sqrt(0.05 / 2), 2, rng)
        Y = C @ (f.R @ V) - W @ (Q.T @ A @ V)
        assert np.array_equal(cap.errors, np.einsum("ij,ij->i", Y, Y))
        Y_full = C @ f.R - W @ (Q.T @ A)
        np.testing.assert_allclose(cap.errors, np.einsum("ij,ij->i", Y_full, Y_full),
                                   rtol=1e-12)


class _DrawSpy:
    """A Generator that reports each draw as on_draw(method name, result)."""

    def __init__(self, rng, on_draw):
        self._rng, self._on_draw = rng, on_draw

    def __getattr__(self, name):
        fn = getattr(self._rng, name)

        def draw(*args, **kwargs):
            out = fn(*args, **kwargs)
            self._on_draw(name, out)
            return out

        return draw


class TestGaussianDrawCounts:
    """Numbers drawn per trial: rank + k + 3 for two-step (rank normals
    for w = bQ, chi^2_{m-rank} for ||b||, k normals for stage 1, a normal
    and chi^2_{n-1} for stage 2). A noiseless stage draws nothing, and a
    noiseless stage 1 needs no ||b||; m = rank needs no chi^2_{m-rank}.
    A baseline trial draws 2."""

    TRIALS = 2_000  # two blocks of the 12-wide two-step, one of the baseline

    @pytest.fixture
    def counts(self):
        counts = {}

        def tally(name, out):
            counts[name] = counts.get(name, 0) + np.size(out)

        self.rng = _DrawSpy(np.random.default_rng(3), tally)
        return counts

    @staticmethod
    def _expected(trials, normals, chisquares):
        expected = {"standard_normal": trials * normals}
        if chisquares:
            expected["chisquare"] = trials * chisquares
        return expected

    # a 12 x 20 target of rank 12 = m, at k = 2
    @pytest.mark.parametrize("sigma_L_sq,sigma_R_sq,normals,chisquares", [
        (0.05, 0.08, 12 + 2 + 1, 1),
        (0.05, 0.0, 12 + 2, 0),
        (0.0, 0.08, 12 + 1, 1),
        (0.0, 0.0, 12, 0),
    ])
    def test_two_step(self, counts, sigma_L_sq, sigma_R_sq, normals, chisquares):
        noise = NoiseSpec(sigma_L_sq=sigma_L_sq, sigma_R_sq=sigma_R_sq)
        values = np.linspace(3.0, 0.5, 12)
        A, s, f, scheme = two_step_setup(values, 12, 20, 2, 2, 3, noise, 2.0)
        assert s.rank == 12
        run_two_step_trials(check_target(s, A), *scheme, self.TRIALS, rng=self.rng)
        assert counts == self._expected(self.TRIALS, normals, chisquares)

    # a 12 x 20 target of rank 3 < m, at k = 2
    @pytest.mark.parametrize("sigma_L_sq,sigma_R_sq,normals,chisquares", [
        (0.05, 0.08, 3 + 2 + 1, 2),
        (0.05, 0.0, 3 + 2, 1),
        (0.0, 0.08, 3 + 1, 1),
        (0.0, 0.0, 3, 0),
    ])
    def test_two_step_below_full_rank(self, counts, sigma_L_sq, sigma_R_sq, normals,
                                      chisquares):
        noise = NoiseSpec(sigma_L_sq=sigma_L_sq, sigma_R_sq=sigma_R_sq)
        A, s, f, scheme = two_step_setup([3.0, 1.5, 0.5], 12, 20, 2, 2, 3, noise, 2.0)
        run_two_step_trials(check_target(s, A), *scheme, self.TRIALS, rng=self.rng)
        assert counts == self._expected(self.TRIALS, normals, chisquares)

    def test_baseline_draws_no_input(self, counts):
        run_baseline_trials(np.ones((20, 12)), NoiseSpec(sigma_e_sq=0.05), 3.0,
                            self.TRIALS, rng=self.rng)
        assert counts == {"chisquare": 2 * self.TRIALS}


class TestPlusIsotropic:
    """_plus_isotropic(||y||^2, a, dim) has the law of ||y + a z||^2."""

    @pytest.mark.parametrize("dim", [1, 2, 12])
    def test_matches_the_direct_draw_in_law(self, dim):
        T = 20_000
        rng = np.random.default_rng(dim)
        Y = rng.normal(size=(T, dim)) * rng.uniform(0.0, 2.0, size=(T, 1))
        a = rng.uniform(0.2, 1.5, size=T)
        direct = np.sum((Y + a[:, None] * rng.standard_normal((T, dim))) ** 2, axis=1)
        drawn = montecarlo._plus_isotropic(np.sum(Y * Y, axis=1), a, dim, rng)
        _check_same_law(drawn, direct, float(np.mean(np.sum(Y * Y, axis=1) + dim * a * a)))

    def test_one_dimension_draws_one_normal(self):
        y_sq, a = np.array([0.0, 4.0, 2.25]), np.array([1.0, 0.5, 2.0])
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        out = montecarlo._plus_isotropic(y_sq, a, 1, rng)
        g = ref.standard_normal(3)
        assert np.array_equal(out, (np.sqrt(y_sq) + a * g) ** 2)
        assert rng.random() == ref.random()


class TestUniformBlockPath:
    """Uniform trials run the per-cell model, one call of the public scheme
    function per block, which runs the block's rows in chunks; they must
    agree in law with one trial at a time on private streams and bound
    their noise buffers."""

    TRIALS = 20_000

    @staticmethod
    def _spy_scheme_calls(monkeypatch):
        """Rows per call of the scheme functions montecarlo calls, by name."""
        rows = {"two_step_vmm": [], "baseline_noisy_vmm": []}
        for name, calls in rows.items():
            def spy(B, *args, _real=getattr(montecarlo, name), _calls=calls):
                _calls.append(B.shape[0])
                return _real(B, *args)
            monkeypatch.setattr(montecarlo, name, spy)
        return rows

    # blocks of NOISE_CELLS // max(m, n) = 2048 trials at 8 x 8
    def test_run_mc_calls_the_schemes_once_a_block(self, monkeypatch):
        cfg = ExperimentConfig(m=8, n=8, r=4, lam=3.0, dist="uniform", trials=4_200)
        want = mc_csv(run_mc(cfg))
        rows = self._spy_scheme_calls(monkeypatch)
        assert mc_csv(run_mc(cfg)) == want
        assert rows == {"two_step_vmm": [2048, 2048, 104],
                        "baseline_noisy_vmm": [2048, 2048, 104]}

    def test_run_sweep_calls_the_schemes_once_a_block(self, monkeypatch):
        cfg = ExperimentConfig(m=8, n=8, r=4, lam=3.0, dist="uniform", trials=2_100,
                               k_range=(1, 2))
        want = sweep_csv(run_sweep(cfg))
        rows = self._spy_scheme_calls(monkeypatch)
        assert sweep_csv(run_sweep(cfg)) == want
        assert rows == {"two_step_vmm": [2048, 52, 2048, 52], "baseline_noisy_vmm": []}

    def test_two_step_matches_device(self, monkeypatch):
        noise = NoiseSpec(sigma_L_sq=0.05, sigma_R_sq=0.08, dist="uniform")
        A, s, f, scheme = two_step_setup([3.0, 1.5, 0.5], 12, 12, 2, 2, 3, noise, 2.0)
        analytic = two_step_error_analytic(svd(A).singulars, 12, 12, 2, 2, 3,
                                           0.05, 0.08, 2.0).total
        cap = _Capture(monkeypatch)
        run_two_step_trials(check_target(s, A), *scheme, self.TRIALS,
                            rng=np.random.default_rng(81))
        device = _device_errors(self.TRIALS, 82,
                                lambda b, g: two_step_vmm(b, f, 2, 3, noise, g), A, 2.0,
                                "uniform")
        _check_same_law(cap.errors, device, analytic)

    def test_baseline_matches_device(self, monkeypatch):
        # 1,600 cells a trial: each block spans several chunks
        A = np.random.default_rng(8).normal(size=(40, 40)) / 4
        noise = NoiseSpec(sigma_e_sq=0.05, dist="uniform")
        cap = _Capture(monkeypatch)
        run_baseline_trials(A, noise, 3.0, self.TRIALS, rng=np.random.default_rng(83))
        device = _device_errors(self.TRIALS, 84,
                                lambda b, g: baseline_noisy_vmm(b, A, noise, g), A, 3.0,
                                "uniform")
        _check_same_law(cap.errors, device, 40 * 40 * 0.05 * 3.0)

    @staticmethod
    def _spy_noise_draws(monkeypatch):
        sizes = []
        real = schemes.unit_cells

        def spy(shape, *args):
            sizes.append(math.prod(shape))
            return real(shape, *args)

        monkeypatch.setattr(schemes, "unit_cells", spy)
        return sizes

    def test_two_step_noise_draws_stay_within_a_chunk(self, monkeypatch):
        # one block of 100 trials, in chunks of NOISE_CELLS // (64 * 4) = 64
        # and 36 rows, each drawing one slab per replica
        noise = NoiseSpec(sigma_L_sq=0.05, sigma_R_sq=0.05, dist="uniform")
        A, s, f, scheme = two_step_setup([3.0, 2.0, 1.0, 0.5], 64, 64, 4, 8, 8, noise, 1.0)
        sizes = self._spy_noise_draws(monkeypatch)
        run_two_step_trials(check_target(s, A), *scheme, trials=100, rng=np.random.default_rng(3))
        assert max(sizes) <= NOISE_CELLS
        assert sum(sizes) == 100 * (8 * 64 + 8 * 64) * 4
        assert sizes == [64 * 64 * 4] * 16 + [36 * 64 * 4] * 16

    def test_oversized_trial_draws_one_trial_at_a_time(self, monkeypatch):
        side = math.isqrt(NOISE_CELLS) + 1
        A = np.zeros((side, side))
        sizes = self._spy_noise_draws(monkeypatch)
        run_baseline_trials(A, NoiseSpec(sigma_e_sq=0.05, dist="uniform"), 1.0,
                            trials=3, rng=np.random.default_rng(3))
        assert sizes == [A.size] * 3


# Gaussian MC values depend on numpy's normal sampler; they were stored
# with this numpy version. CHANGES.md lists each regeneration of the three
# pins below and which columns moved
PINNED_NUMPY = "2.4.6"

PINNED_MC_GAUSSIAN = """\
# crossbar-lowrank mc v1
# config m=8 n=8 r=4 lambda=3.0 sigma_e_sq=0.05 sigma_L_sq=0.05 sigma_R_sq=0.05 \
sigma_b_sq=3.0 dist=gaussian rho=1.0 r_T=1.0 trials=300 seed=12345
scheme,k,t_L,t_R,trials,mean_sq_error,std_error,analytic,z,pass
baseline,,,,300,9.375954397493366,0.4088520749446653,9.600000000000001,-0.5479869523395663,true
two_step,2,2,2,300,9.525935236141423,0.43693428993406924,10.3275,-1.8345201608679615,true
# all_passed=true
"""

# the optimizer's (k, t_L, t_R) at k_range=all, recorded before its per-rank
# scans became one pass: at 64x160 with sigma_L_sq != sigma_R_sq no symmetry
# hides a swap of the stages, and at 28x28 with equal noise (3, 4) and
# (4, 3) tie exactly at k=4, so the pin fixes which one wins
PINNED_MC_64X160 = """\
# crossbar-lowrank mc v1
# config m=64 n=160 r=16 lambda=10.0 sigma_e_sq=0.05 sigma_L_sq=0.02 sigma_R_sq=0.08 \
sigma_b_sq=3.0 dist=gaussian rho=1.0 r_T=1.0 trials=200 seed=12345
scheme,k,t_L,t_R,trials,mean_sq_error,std_error,analytic,z,pass
baseline,,,,200,1520.6613299379421,23.384725490576272,1536.0,-0.655926881341376,true
two_step,3,8,18,200,117.43543224584272,3.683049980039539,115.9057378112739,0.4153336074338048,true
# all_passed=true
"""

PINNED_MC_TIE = """\
# crossbar-lowrank mc v1
# config m=28 n=28 r=8 lambda=10.0 sigma_e_sq=0.05 sigma_L_sq=0.05 sigma_R_sq=0.05 \
sigma_b_sq=3.0 dist=gaussian rho=1.0 r_T=1.0 trials=200 seed=12345
scheme,k,t_L,t_R,trials,mean_sq_error,std_error,analytic,z,pass
baseline,,,,200,114.6516686264451,3.2676635493937285,117.60000000000001,-0.902275074831964,true
two_step,4,3,4,200,86.56177288737756,3.4048706418583703,84.14494897959183,0.709813723339172,true
# all_passed=true
"""

# uniform noise runs the per-cell model over row chunks of each block's
# stream, each chunk drawing one slab of U[0, 1) cells per replica; these
# values depend on numpy's uniform sampler, on that draw order and on
# float64 round-off, not on numpy's normal sampler
PINNED_SWEEP_UNIFORM = """\
# crossbar-lowrank sweep v1
# config m=12 n=12 r=3 lambda=3.0 sigma_e_sq=0.05 sigma_L_sq=0.05 sigma_R_sq=0.05 \
sigma_b_sq=3.0 dist=uniform rho=1.0 r_T=1.0 trials=300 seed=12345
k,t_L,t_R,feasible,analytic_total,analytic_truncation,analytic_stage1,analytic_stage2,\
analytic_accumulated,mc_mean,mc_stderr,baseline_analytic,normalized
1,6,6,true,11.58,9.75,0.9000000000000001,0.9000000000000001,\
0.030000000000000013,11.820033592575346,0.643739574674355,21.6,0.5361111111111111
2,3,3,true,8.64,3.0,2.7,2.7,\
0.2400000000000001,8.812494955648617,0.3455333902772612,21.6,0.4
3,2,2,true,10.710000000000003,0.0,4.950000000000001,4.950000000000001,\
0.8100000000000003,11.200240715621215,0.5170826863910708,21.6,0.4958333333333334
# argmin k=2 t_L=3 t_R=3 normalized=0.4
"""

PINNED_MC_UNIFORM = """\
# crossbar-lowrank mc v1
# config m=8 n=8 r=4 lambda=3.0 sigma_e_sq=0.05 sigma_L_sq=0.05 sigma_R_sq=0.05 \
sigma_b_sq=3.0 dist=uniform rho=1.0 r_T=1.0 trials=300 seed=12345
scheme,k,t_L,t_R,trials,mean_sq_error,std_error,analytic,z,pass
baseline,,,,300,9.312509628202976,0.32604537814365364,9.600000000000001,-0.8817495694429339,true
two_step,2,2,2,300,10.199919469724172,0.4308834305093176,10.3275,-0.2960905925879407,true
# all_passed=true
"""

# pins past one block of _reduce's sums (2^14 trials): a Gaussian and a
# uniform mc whose errors it sums over several blocks
PINNED_MC_GAUSSIAN_50K = """\
# crossbar-lowrank mc v1
# config m=12 n=12 r=3 lambda=3.0 sigma_e_sq=0.05 sigma_L_sq=0.05 sigma_R_sq=0.05 \
sigma_b_sq=3.0 dist=gaussian rho=1.0 r_T=1.0 trials=50000 seed=12345
scheme,k,t_L,t_R,trials,mean_sq_error,std_error,analytic,z,pass
baseline,,,,50000,21.623311741935673,0.05847867522123614,21.6,0.39863662860827165,true
two_step,2,3,3,50000,8.65666320284906,0.03344690553297798,8.64,0.4981986400096134,true
# all_passed=true
"""

PINNED_MC_UNIFORM_40K = """\
# crossbar-lowrank mc v1
# config m=8 n=8 r=4 lambda=3.0 sigma_e_sq=0.05 sigma_L_sq=0.05 sigma_R_sq=0.05 \
sigma_b_sq=3.0 dist=uniform rho=1.0 r_T=1.0 trials=40000 seed=12345
scheme,k,t_L,t_R,trials,mean_sq_error,std_error,analytic,z,pass
baseline,,,,40000,9.615886761955881,0.027996129533005627,9.600000000000001,0.5674627964965774,true
two_step,2,2,2,40000,10.35657877954056,0.036295571167659725,10.3275,0.8011660542890201,true
# all_passed=true
"""


class TestPinnedOutputs:
    @pytest.mark.skipif(np.__version__ != PINNED_NUMPY,
                        reason=f"Gaussian MC values pinned with numpy {PINNED_NUMPY}")
    @pytest.mark.parametrize("lanes", [1, 2])
    def test_gaussian_mc(self, lanes):
        cfg = ExperimentConfig(m=8, n=8, r=4, lam=3.0, trials=300)
        assert mc_csv(run_mc(cfg, lanes=lanes)) == PINNED_MC_GAUSSIAN

    @pytest.mark.skipif(np.__version__ != PINNED_NUMPY,
                        reason=f"Gaussian MC values pinned with numpy {PINNED_NUMPY}")
    @pytest.mark.parametrize("cfg,pinned", [
        (ExperimentConfig(m=64, n=160, sigma_L_sq=0.02, sigma_R_sq=0.08, trials=200),
         PINNED_MC_64X160),
        (ExperimentConfig(m=28, n=28, r=8, trials=200), PINNED_MC_TIE)])
    def test_gaussian_mc_argmin(self, cfg, pinned):
        assert mc_csv(run_mc(cfg)) == pinned

    @pytest.mark.skipif(np.__version__ != PINNED_NUMPY,
                        reason=f"MC values pinned with numpy {PINNED_NUMPY}")
    @pytest.mark.parametrize("cfg,pinned", [
        (ExperimentConfig(m=12, n=12, r=3, lam=3.0, trials=50000), PINNED_MC_GAUSSIAN_50K),
        (ExperimentConfig(m=8, n=8, r=4, lam=3.0, dist="uniform", trials=40000),
         PINNED_MC_UNIFORM_40K)])
    def test_mc_past_one_sum_block(self, cfg, pinned):
        assert mc_csv(run_mc(cfg)) == pinned

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_uniform_mc(self, lanes):
        cfg = ExperimentConfig(m=8, n=8, r=4, lam=3.0, dist="uniform", trials=300)
        assert mc_csv(run_mc(cfg, lanes=lanes)) == PINNED_MC_UNIFORM

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_uniform_sweep(self, lanes):
        cfg = ExperimentConfig(m=12, n=12, r=3, lam=3.0, dist="uniform", trials=300)
        assert sweep_csv(run_sweep(cfg, lanes=lanes)) == PINNED_SWEEP_UNIFORM
