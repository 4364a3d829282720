import numpy as np
import pytest

from crossbar_lowrank.lowrank import (
    factor_lr,
    factors_svd,
    numerical_rank,
    singular_values,
    svd,
)
from crossbar_lowrank.matrixgen import prescribed_factors


def random_matrix(rng, m, n):
    return rng.standard_normal((m, n))


def numpy_truncation(A, k):
    """The best rank-k approximation A_k of A, from numpy's SVD."""
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    return (U[:, :k] * s[:k]) @ Vt[:k]


class TestSvd:
    def test_diagonal(self):
        s = svd(np.diag([3.0, 1.0]))
        assert np.allclose(s.singulars, [3.0, 1.0])
        assert s.rank == 2

    def test_zero_matrix(self):
        s = svd(np.zeros((2, 2)))
        assert np.array_equal(s.singulars, [0.0, 0.0])
        assert s.rank == 0

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(21)
        u = rng.standard_normal(8)
        v = rng.standard_normal(5)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        s = svd(7.0 * np.outer(u, v))
        assert s.singulars[0] == pytest.approx(7.0, abs=1e-9)
        assert s.rank == 1

    def test_orthonormal_columns_and_reconstruction(self):
        rng = np.random.default_rng(8)
        A = random_matrix(rng, 8, 6)
        s = svd(A)
        p = s.singulars.shape[0]
        assert np.max(np.abs(s.U.T @ s.U - np.eye(p))) <= 1e-10
        assert np.max(np.abs(s.V.T @ s.V - np.eye(p))) <= 1e-10
        recon = (s.U * s.singulars) @ s.V.T
        assert np.linalg.norm(recon - A) <= 1e-10 * max(1.0, np.linalg.norm(A))

    def test_singulars_nonincreasing(self):
        s = svd(np.random.default_rng(2).standard_normal((10, 7)))
        assert np.all(np.diff(s.singulars) <= 0)
        assert np.all(s.singulars >= 0)

    def test_deterministic_output(self):
        A = np.random.default_rng(33).standard_normal((9, 9))
        s1, s2 = svd(A), svd(A)
        assert np.array_equal(s1.U, s2.U)
        assert np.array_equal(s1.V, s2.V)

    def test_sign_convention(self):
        s = svd(np.random.default_rng(4).standard_normal((12, 12)))
        lead = np.argmax(np.abs(s.U), axis=0)
        assert np.all(s.U[lead, np.arange(s.U.shape[1])] > 0)


class TestFactorsSvd:
    def test_signs_follow_svd_and_flip_jointly(self):
        U, s, V = prescribed_factors(12, 9, [3.0, 2.0, 1.0], np.random.default_rng(4))
        flipped = U * [-1.0, 1.0, -1.0], V * [-1.0, 1.0, -1.0]
        a, b = factors_svd(U, s, V), factors_svd(flipped[0], s, flipped[1])
        assert np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)
        lead = np.argmax(np.abs(a.U), axis=0)
        assert np.all(a.U[lead, np.arange(3)] > 0)
        # each column pair is U's and V's, negated together or kept
        assert np.array_equal(np.abs(a.U), np.abs(U))
        assert np.array_equal(np.sign(a.U * U)[0], np.sign(a.V * V)[0])
        assert a.shape == (12, 9) and a.singulars is s and a.rank == 3

    def test_rank_counts_values_above_the_tolerance(self):
        U, s, V = prescribed_factors(6, 6, [2.0, 1e-11], np.random.default_rng(0))
        assert factors_svd(U, s, V).rank == 1


def _low_rank(rng, m, n, r):
    return random_matrix(rng, m, r) @ random_matrix(rng, r, n)


class TestSingularValues:
    """The values-only path must agree with svd() to round-off, with one
    rank rule for both."""

    @pytest.mark.parametrize("m,n,r", [(1, 1, 1), (6, 6, 6), (9, 4, 4), (4, 9, 4),
                                       (12, 12, 5), (30, 17, 3), (17, 30, 1),
                                       (64, 48, 8)])
    def test_matches_svd(self, m, n, r):
        rng = np.random.default_rng(100 * m + n + r)
        A = _low_rank(rng, m, n, r)
        full = svd(A)
        vals = singular_values(A)
        assert vals.shape == full.singulars.shape
        assert numerical_rank(vals) == full.rank == r
        np.testing.assert_allclose(vals[:r], full.singulars[:r], rtol=1e-12)
        # values past the rank are round-off of zero in both
        np.testing.assert_allclose(vals[r:], full.singulars[r:], rtol=0,
                                   atol=1e-12 * full.singulars[0])

    def test_zero_matrix(self):
        vals = singular_values(np.zeros((3, 5)))
        assert np.array_equal(vals, np.zeros(3))
        assert numerical_rank(vals) == 0

    def test_rank_rule(self):
        assert numerical_rank(np.array([1.0, 1e-9, 1e-11])) == 2
        assert numerical_rank(np.array([0.0, 0.0])) == 0
        assert numerical_rank(np.array([])) == 0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            singular_values(np.array([[1.0, np.nan]]))

    @pytest.mark.parametrize("fn", [svd, singular_values])
    def test_non_convergence_is_a_decomposition_error(self, fn, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")
        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            fn(np.eye(2))


class TestEckartYoung:
    def test_full_rank_reconstructs(self):
        A = np.random.default_rng(9).standard_normal((6, 6))
        s = svd(A)
        f = factor_lr(s, s.rank)
        assert np.linalg.norm(f.L @ f.R - A) <= 1e-10 * np.linalg.norm(A)

    def test_residual_is_the_tail(self):
        rng = np.random.default_rng(14)
        A = random_matrix(rng, 8, 6)
        s = svd(A)
        f = factor_lr(s, 2)
        err = np.linalg.norm(A - f.L @ f.R) ** 2
        tail = float(np.sum(s.singulars[2:] ** 2))
        assert err == pytest.approx(tail, rel=1e-9)


class TestFactorLr:
    def test_scalar_sqrt_split(self):
        f = factor_lr(svd(np.array([[4.0]])), 1)
        assert np.allclose(f.L, [[2.0]])
        assert np.allclose(f.R, [[2.0]])

    def test_trace_identity(self):
        rng = np.random.default_rng(15)
        A = random_matrix(rng, 10, 7)
        s = svd(A)
        for k in (1, 3, 7):
            f = factor_lr(s, k)
            trace = float(np.sum(s.singulars[:k]))
            assert np.sum(f.L ** 2) == pytest.approx(trace, rel=1e-8)
            assert np.sum(f.R ** 2) == pytest.approx(trace, rel=1e-8)

    def test_reconstructs_truncation(self):
        rng = np.random.default_rng(16)
        # rank-5 matrix in 10x10
        B = random_matrix(rng, 10, 5)
        C = random_matrix(rng, 5, 10)
        A = B @ C
        s = svd(A)
        f = factor_lr(s, 3)
        assert np.linalg.norm(f.L @ f.R - numpy_truncation(A, 3)) <= 1e-9 * np.linalg.norm(A)

    def test_rejects_out_of_range(self):
        s = svd(np.diag([2.0, 1.0]))
        with pytest.raises(ValueError):
            factor_lr(s, 0)
        with pytest.raises(ValueError):
            factor_lr(s, 3)

    def test_rejects_beyond_numerical_rank(self):
        s = svd(np.outer([1.0, 2.0], [3.0, 4.0]))  # rank 1
        with pytest.raises(ValueError):
            factor_lr(s, 2)


def test_sign_flip_invariance():
    rng = np.random.default_rng(19)
    A = rng.standard_normal((7, 6))
    s = svd(A)
    flips = np.where(rng.uniform(size=s.singulars.shape[0]) < 0.5, -1.0, 1.0)
    U2 = s.U * flips
    V2 = s.V * flips
    # joint sign flips leave every reconstruction unchanged
    k = 3
    recon_flipped = (U2[:, :k] * s.singulars[:k]) @ V2[:, :k].T
    assert np.allclose(recon_flipped, numpy_truncation(A, k), rtol=1e-12, atol=1e-12)
    root = np.sqrt(s.singulars[:k])
    lr_flipped = (U2[:, :k] * root) @ (V2[:, :k] * root).T
    f = factor_lr(s, k)
    assert np.allclose(lr_flipped, f.L @ f.R, rtol=1e-12, atol=1e-12)
