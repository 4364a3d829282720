import math

import numpy as np
import pytest

from crossbar_lowrank import schemes
from crossbar_lowrank.core import iid_entries
from crossbar_lowrank.lowrank import factor_lr, svd, truncate
from crossbar_lowrank.matrixgen import prescribed_matrix
from crossbar_lowrank.montecarlo import run_two_step_trials
from crossbar_lowrank.rng import child_stream
from crossbar_lowrank.schemes import (
    NOISE_CELLS,
    NoiseSpec,
    baseline_noisy_vmm,
    budget_feasible,
    two_step_vmm,
)
from crossbar_lowrank.analysis import (
    InfeasibleBudgetError,
    optimize_repetitions,
    two_step_error_analytic,
)

# the many-trial moment tests draw their trials as this many (T, ...)
# stacks, each from its own stream
CHUNKS = 4


class TestNoiseSpec:
    def test_defaults_are_noiseless_gaussian(self):
        ns = NoiseSpec()
        assert ns.sigma_e_sq == 0.0 and ns.dist == "gaussian"

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma_L_sq=-0.1)

    def test_rejects_unknown_dist(self):
        with pytest.raises(ValueError):
            NoiseSpec(dist="cauchy")

    @pytest.mark.parametrize("name", ["sigma_e_sq", "sigma_L_sq", "sigma_R_sq"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_variance(self, name, bad):
        with pytest.raises(ValueError, match="finite"):
            NoiseSpec(**{name: bad})


def _run_scheme(m, n, k, t_L, t_R, sigma_b_sq=1.0):
    """Two trials of run_two_step_trials at rank k on a random m x n
    matrix."""
    A = np.random.default_rng(0).normal(size=(m, n))
    noise = NoiseSpec(sigma_L_sq=0.05, sigma_R_sq=0.05)
    return run_two_step_trials(svd(A), A, k, t_L, t_R, noise, sigma_b_sq,
                               trials=2, master_seed=0)


class TestSchemeConfig:
    """run_two_step_trials checks the configuration of a two-step scheme
    where the factors, the matrix and the repetitions meet."""

    def test_budget_guard(self):
        with pytest.raises(ValueError, match="budget"):
            _run_scheme(100, 100, 16, 4, 4)
        # t_L*m*k + t_R*n*k = 3*2 + 5*2 = 16 = m*n + 1
        with pytest.raises(ValueError, match="budget"):
            _run_scheme(3, 5, 2, 1, 1)

    def test_boundary_budget_allowed(self):
        assert _run_scheme(100, 100, 50, 1, 1).trials == 2

    def test_rejects_oversized_k(self):
        with pytest.raises(ValueError, match="budget"):
            _run_scheme(4, 8, 5, 1, 1)

    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError, match="rank k >= 1"):
            _run_scheme(4, 4, 0, 1, 1)
        with pytest.raises(ValueError, match="repetition"):
            _run_scheme(4, 4, 1, 0, 1)
        with pytest.raises(ValueError, match="repetition"):
            _run_scheme(4, 4, 1, 1, 0)

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_rejects_bad_input_variance(self, bad):
        with pytest.raises(ValueError, match="input variance"):
            _run_scheme(4, 4, 1, 1, 1, sigma_b_sq=bad)

    # (m, n, k) at t_L = t_R = 1 with (m + n) k = m n, then m n + 1
    @pytest.mark.parametrize("m, n, k, fits", [(100, 100, 50, True), (3, 5, 2, False)])
    def test_budget_boundary_agrees_everywhere(self, m, n, k, fits):
        assert budget_feasible(m, n, k, 1, 1) is fits
        singulars = np.linspace(2.0, 1.0, min(m, n))
        noise = NoiseSpec(sigma_L_sq=0.05, sigma_R_sq=0.05)
        if fits:
            assert optimize_repetitions(singulars, m, n, k, noise, 1.0)[:2] == (1, 1)
            assert _run_scheme(m, n, k, 1, 1).trials == 2
        else:
            with pytest.raises(InfeasibleBudgetError):
                optimize_repetitions(singulars, m, n, k, noise, 1.0)
            with pytest.raises(ValueError, match="budget"):
                _run_scheme(m, n, k, 1, 1)


class TestSampleNoise:
    """One rows x cols write-noise realization is drawn as
    iid_entries((rows, cols), sigma_sq, dist, rng)."""

    def test_zero_variance_zero_matrix(self):
        rng = np.random.default_rng(1)
        E = iid_entries((3, 4), 0.0, "gaussian", rng)
        assert np.array_equal(E, np.zeros((3, 4)))

    @pytest.mark.parametrize("dist", ["gaussian", "uniform"])
    def test_variance_moment(self, dist):
        E = iid_entries((1000, 1000), 0.05, dist, np.random.default_rng(2))
        assert E.var() == pytest.approx(0.05, rel=0.02)
        assert abs(E.mean()) < 5 * math.sqrt(0.05 / E.size)

    def test_same_seed_identical(self):
        a = iid_entries((5, 6), 0.3, "uniform", np.random.default_rng(3))
        b = iid_entries((5, 6), 0.3, "uniform", np.random.default_rng(3))
        assert np.array_equal(a, b)


class TestBaselineNoisyVmm:
    def test_noiseless_equals_exact(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((6, 5))
        b = rng.standard_normal(6)
        out = baseline_noisy_vmm(b, A, NoiseSpec(sigma_e_sq=0.0), rng)
        assert np.array_equal(out, b @ A)

    def test_single_cell_noise_moments(self):
        # b=[1], A=[[0]]: each output row is one sample of its own write
        # noise; 100k rows in CHUNKS stacks, one stream per stack
        ns = NoiseSpec(sigma_e_sq=0.05)
        ones = np.ones((100_000 // CHUNKS, 1))
        vals = np.concatenate([
            baseline_noisy_vmm(ones, [[0.0]], ns, child_stream(77, j))[:, 0]
            for j in range(CHUNKS)
        ])
        assert abs(vals.mean()) < 5 * math.sqrt(0.05 / vals.size)
        assert vals.var() == pytest.approx(0.05, rel=0.05)

    def test_fixed_seed_reproducible(self):
        A = np.eye(3)
        b = np.array([1.0, 2.0, 3.0])
        ns = NoiseSpec(sigma_e_sq=0.1)
        out1 = baseline_noisy_vmm(b, A, ns, np.random.default_rng(5))
        out2 = baseline_noisy_vmm(b, A, ns, np.random.default_rng(5))
        assert np.array_equal(out1, out2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            baseline_noisy_vmm([1.0, 2.0], np.eye(3), NoiseSpec(), np.random.default_rng(0))


class TestTwoStepVmm:
    def test_noiseless_full_rank_collapses(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((7, 7))
        s = svd(A)
        f = factor_lr(s, s.rank)
        b = rng.standard_normal(7)
        out = two_step_vmm(b, f, 3, 2, NoiseSpec(), rng)
        assert np.allclose(out, b @ A, rtol=1e-9, atol=1e-12)

    def test_noiseless_truncation_path_is_deterministic(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((6, 8))
        s = svd(A)
        f = factor_lr(s, 2)
        b = rng.standard_normal(6)
        out = two_step_vmm(b, f, 4, 4, NoiseSpec(), rng)
        # exact staged product, and the rank-2 approximation numerically
        assert np.array_equal(out, (b @ f.L) @ f.R)
        want = b @ truncate(s, 2)
        assert np.allclose(out, want, rtol=1e-12, atol=1e-12)

    def test_rejects_zero_repetitions(self):
        f = factor_lr(svd(np.diag([2.0, 1.0])), 1)
        with pytest.raises(ValueError):
            two_step_vmm([1.0, 0.0], f, 0, 1, NoiseSpec(), np.random.default_rng(0))

    def test_rejects_dimension_mismatch(self):
        f = factor_lr(svd(np.diag([2.0, 1.0])), 1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            two_step_vmm([1.0, 0.0, 0.0], f, 1, 1, NoiseSpec(), np.random.default_rng(0))

    def test_fixed_seed_reproducible(self):
        f = factor_lr(svd(np.diag([3.0, 2.0, 1.0])), 2)
        ns = NoiseSpec(sigma_L_sq=0.1, sigma_R_sq=0.2)
        b = np.array([0.5, -1.0, 2.0])
        out1 = two_step_vmm(b, f, 2, 3, ns, np.random.default_rng(8))
        out2 = two_step_vmm(b, f, 2, 3, ns, np.random.default_rng(8))
        assert np.array_equal(out1, out2)

    def test_monte_carlo_matches_analytic_hand_case(self):
        # m=n=4, k=1, singulars=[2], t_L=t_R=2, variances 0.05, input var 3
        gen = child_stream(1234, 0)
        A = prescribed_matrix(4, 4, [2.0], gen)
        s = svd(A)
        f = factor_lr(s, 1)
        ns = NoiseSpec(sigma_L_sq=0.05, sigma_R_sq=0.05)
        analytic = two_step_error_analytic(s.singulars, 4, 4, 1, 2, 2,
                                           0.05, 0.05, 3.0).total
        assert analytic == pytest.approx(1.23, rel=1e-10)
        trials = 100_000
        errs = []
        for j in range(CHUNKS):
            B = iid_entries((trials // CHUNKS, 4), 3.0, "gaussian", child_stream(555, j, 0))
            d = two_step_vmm(B, f, 2, 2, ns, child_stream(555, j, 1)) - B @ A
            errs.append(np.einsum("ij,ij->i", d, d))
        errs = np.concatenate(errs)
        assert errs.size == trials
        se = errs.std(ddof=1) / math.sqrt(trials)
        assert abs(errs.mean() - analytic) <= 3 * se

    @pytest.mark.parametrize("dist", ["gaussian", "uniform"])
    def test_distribution_invariance(self, dist):
        gen = child_stream(4321, 0)
        A = prescribed_matrix(8, 8, [3.0, 2.0, 1.0], gen)
        s = svd(A)
        f = factor_lr(s, 2)
        ns = NoiseSpec(sigma_L_sq=0.04, sigma_R_sq=0.06, dist=dist)
        analytic = two_step_error_analytic(s.singulars, 8, 8, 2, 2, 2,
                                           0.04, 0.06, 2.0).total
        trials = 20_000
        errs = []
        for j in range(CHUNKS):
            B = iid_entries((trials // CHUNKS, 8), 2.0, dist, child_stream(99, j, 0))
            d = two_step_vmm(B, f, 2, 2, ns, child_stream(99, j, 1)) - B @ A
            errs.append(np.einsum("ij,ij->i", d, d))
        errs = np.concatenate(errs)
        assert errs.size == trials
        se = errs.std(ddof=1) / math.sqrt(trials)
        assert abs(errs.mean() - analytic) <= 4 * se


class TestBatchedRows:
    """A (T, m) stack of inputs meets one independent set of replica arrays
    per row; row i must equal the replica-average product on its own noise
    slices, and a single row must draw the cells of the 1-D model."""

    T = 5

    def _setup(self):
        rng = np.random.default_rng(30)
        f = factor_lr(svd(rng.standard_normal((7, 6))), 3)
        return f, rng.standard_normal((self.T, 7))

    @pytest.mark.parametrize("dist", ["gaussian", "uniform"])
    def test_two_step_rows_use_their_own_noise(self, dist):
        f, B = self._setup()
        ns = NoiseSpec(sigma_L_sq=0.1, sigma_R_sq=0.2, dist=dist)
        out = two_step_vmm(B, f, 2, 3, ns, np.random.default_rng(9))
        # one chunk: each L replica as a (T, 7, 3) slab, then each R replica
        # as a (T, 3, 6) slab
        g = np.random.default_rng(9)
        E_L = iid_entries((2, self.T, 7, 3), 0.1, dist, g)
        E_R = iid_entries((3, self.T, 3, 6), 0.2, dist, g)
        assert out.shape == (self.T, 6)
        for i, b in enumerate(B):
            c_mid = np.matmul(b, f.L + E_L[:, i]).mean(axis=0)
            want = np.matmul(c_mid, f.R + E_R[:, i]).mean(axis=0)
            np.testing.assert_allclose(out[i], want, rtol=1e-12)

    def test_two_step_single_row_draws_the_replica_cells(self):
        f, B = self._setup()
        ns = NoiseSpec(sigma_L_sq=0.1, sigma_R_sq=0.2, dist="uniform")
        out = two_step_vmm(B[0], f, 2, 3, ns, np.random.default_rng(10))
        g = np.random.default_rng(10)
        E_L = iid_entries((2, 7, 3), 0.1, "uniform", g)
        E_R = iid_entries((3, 3, 6), 0.2, "uniform", g)
        c_mid = np.matmul(B[0], f.L + E_L).mean(axis=0)
        want = np.matmul(c_mid, f.R + E_R).mean(axis=0)
        np.testing.assert_allclose(out, want, rtol=1e-12)

    def test_baseline_rows_use_their_own_noise(self):
        _, B = self._setup()
        A = np.random.default_rng(31).standard_normal((7, 6))
        ns = NoiseSpec(sigma_e_sq=0.1, dist="uniform")
        out = baseline_noisy_vmm(B, A, ns, np.random.default_rng(11))
        E = iid_entries((self.T, 1, 7, 6), 0.1, "uniform", np.random.default_rng(11))
        for i, b in enumerate(B):
            np.testing.assert_allclose(out[i], b @ (A + E[i, 0]), rtol=1e-12)
        single = baseline_noisy_vmm(B[0], A, ns, np.random.default_rng(11))
        np.testing.assert_allclose(single, B[0] @ (A + E[0, 0]), rtol=1e-12)

    @pytest.mark.parametrize("bad", [np.ones((2, 2, 7)), np.full((2, 7), np.nan)])
    def test_rejects_malformed_stacks(self, bad):
        f, _ = self._setup()
        with pytest.raises(ValueError):
            two_step_vmm(bad, f, 1, 1, NoiseSpec(), np.random.default_rng(0))


class TestChunkedStacks:
    """A stack runs in consecutive chunks of max(1, NOISE_CELLS // cells)
    rows, cells being one row's largest replica slab: m n for the baseline,
    max(m, n) k for two-step. Each chunk draws its L replicas, then its R
    replicas, one slab each, so a call draws at most max(cells, NOISE_CELLS)
    noise cells at once."""

    NOISE = NoiseSpec(sigma_e_sq=0.1, sigma_L_sq=0.1, sigma_R_sq=0.2, dist="uniform")

    @staticmethod
    def _setup(m=8, n=8, k=2):
        rng = np.random.default_rng(40)
        A = rng.standard_normal((m, n))
        return A, factor_lr(svd(A), k)

    @staticmethod
    def _spy_noise_draws(monkeypatch):
        sizes = []
        real = schemes.unit_cells

        def spy(shape, *args):
            sizes.append(math.prod(shape))
            return real(shape, *args)

        monkeypatch.setattr(schemes, "unit_cells", spy)
        return sizes

    @pytest.mark.parametrize("scheme", ["two_step", "baseline"])
    def test_noise_draws_stay_within_a_chunk(self, monkeypatch, scheme):
        A, f = self._setup()
        if scheme == "two_step":
            cells, row_cells, slabs = 8 * 2, (2 * 8 + 3 * 8) * 2, 2 + 3

            def call(B):
                return two_step_vmm(B, f, 2, 3, self.NOISE, np.random.default_rng(1))
        else:
            cells, row_cells, slabs = 8 * 8, 8 * 8, 1

            def call(B):
                return baseline_noisy_vmm(B, A, self.NOISE, np.random.default_rng(1))
        rows = 3 * NOISE_CELLS // cells + 5  # three full chunks and a short one
        sizes = self._spy_noise_draws(monkeypatch)
        out = call(np.ones((rows, 8)))
        assert out.shape == (rows, 8)
        assert max(sizes) <= max(cells, NOISE_CELLS)
        assert sum(sizes) == rows * row_cells
        assert len(sizes) == 4 * slabs

    def test_oversized_row_is_its_own_chunk(self, monkeypatch):
        # max(m, n) k = 18,000 > NOISE_CELLS, at (2 + 3) * 60 = 300 = m
        A, f = self._setup(m=300, n=300, k=60)
        sizes = self._spy_noise_draws(monkeypatch)
        two_step_vmm(np.ones((3, 300)), f, 2, 3, self.NOISE, np.random.default_rng(2))
        assert sizes == [300 * 60] * (2 + 3) * 3

    def test_stack_is_its_chunks_in_order(self):
        # 2 * 1024 + 7 rows at 1024 rows a chunk: each chunk draws its L
        # replicas as (rows, 8, 2) slabs, then its R replicas as (rows, 2, 8)
        A, f = self._setup()
        rows = NOISE_CELLS // (8 * 2)
        B = np.random.default_rng(3).standard_normal((2 * rows + 7, 8))
        out = two_step_vmm(B, f, 2, 3, self.NOISE, np.random.default_rng(4))
        g = np.random.default_rng(4)
        want = []
        for lo in range(0, B.shape[0], rows):
            X = B[lo:lo + rows]
            E_L = iid_entries((2, X.shape[0], 8, 2), 0.1, "uniform", g)
            E_R = iid_entries((3, X.shape[0], 2, 8), 0.2, "uniform", g)
            for i, b in enumerate(X):
                c_mid = np.matmul(b, f.L + E_L[:, i]).mean(axis=0)
                want.append(np.matmul(c_mid, f.R + E_R[:, i]).mean(axis=0))
        assert len(want) == B.shape[0] and lo == 2 * rows
        # rowwise, since among 16k entries some cancel to near zero
        want = np.array(want)
        assert np.all(np.linalg.norm(out - want, axis=1)
                      <= 1e-12 * np.linalg.norm(want, axis=1))
        # and bit for bit the chunks' own calls, in order on one stream
        g = np.random.default_rng(4)
        parts = [two_step_vmm(B[i:i + rows], f, 2, 3, self.NOISE, g)
                 for i in range(0, B.shape[0], rows)]
        assert np.array_equal(out, np.concatenate(parts))


def test_averaging_law_variance_shrinks():
    # mean of t i.i.d. draws has variance sigma_sq / t
    t = 4
    sigma_sq = 0.05
    draws = iid_entries((100_000, t), sigma_sq, "gaussian", np.random.default_rng(12))
    bar = draws.mean(axis=1)
    assert bar.var() == pytest.approx(sigma_sq / t, rel=0.05)


def test_cross_term_cancellation():
    # the two single-stage noise components of the error are uncorrelated:
    # E[<b EbarL R, b L EbarR>] = 0
    rng = np.random.default_rng(20)
    m, k, n = 4, 2, 4
    t_L = t_R = 2
    sL, sR = 0.05, 0.05
    A = prescribed_matrix(m, n, [2.0, 1.0], rng)
    f = factor_lr(svd(A), k)
    trials = 100_000
    T = trials // CHUNKS
    vals = []
    for j in range(CHUNKS):
        B = iid_entries((T, m), 3.0, "gaussian", child_stream(31, j, 0))
        noise_rng = child_stream(31, j, 1)
        ebar_L = iid_entries((T, t_L, m, k), sL, "gaussian", noise_rng).mean(axis=1)
        ebar_R = iid_entries((T, t_R, k, n), sR, "gaussian", noise_rng).mean(axis=1)
        c2 = np.einsum("tm,tmk->tk", B, ebar_L) @ f.R
        c3 = np.einsum("tk,tkn->tn", B @ f.L, ebar_R)
        vals.append(np.einsum("tn,tn->t", c2, c3))
    vals = np.concatenate(vals)
    assert vals.size == trials
    se = vals.std(ddof=1) / math.sqrt(trials)
    assert abs(vals.mean()) <= 4 * se
