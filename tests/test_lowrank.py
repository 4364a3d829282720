import numpy as np
import pytest

from crossbar_lowrank.lowrank import (
    factor_lr,
    numerical_rank,
    singular_values,
    svd,
    truncate,
    truncation_error_sq,
)


def random_matrix(rng, m, n):
    return rng.standard_normal((m, n))


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


class TestTruncate:
    def test_full_rank_reconstructs(self):
        A = np.random.default_rng(9).standard_normal((6, 6))
        s = svd(A)
        assert np.linalg.norm(truncate(s, s.rank) - A) <= 1e-10 * np.linalg.norm(A)

    def test_zero_rank(self):
        s = svd(np.ones((3, 4)))
        assert np.array_equal(truncate(s, 0), np.zeros((3, 4)))

    def test_negative_rank_rejected(self):
        s = svd(np.ones((2, 2)))
        with pytest.raises(ValueError):
            truncate(s, -1)

    def test_clamps_beyond_rank(self):
        A = np.random.default_rng(10).standard_normal((5, 4))
        s = svd(A)
        assert np.array_equal(truncate(s, 99), truncate(s, s.rank))

    def test_eckart_young(self):
        rng = np.random.default_rng(14)
        A = random_matrix(rng, 8, 6)
        s = svd(A)
        err = np.linalg.norm(A - truncate(s, 2)) ** 2
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
        assert np.linalg.norm(f.L @ f.R - truncate(s, 3)) <= 1e-9 * np.linalg.norm(A)

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


class TestTruncationErrorSq:
    def test_single_tail_term(self):
        assert truncation_error_sq(svd(np.diag([3.0, 1.0])), 1) == pytest.approx(1.0)

    def test_beyond_rank_is_exact_zero(self):
        s = svd(np.diag([3.0, 1.0]))
        assert truncation_error_sq(s, 2) == 0.0
        assert truncation_error_sq(s, 5) == 0.0

    def test_harmonic_pair(self):
        s = svd(np.diag([1.0, 0.5]))
        assert truncation_error_sq(s, 1) == pytest.approx(0.25, rel=1e-12)

    def test_monotone_nonincreasing(self):
        s = svd(np.random.default_rng(17).standard_normal((9, 9)))
        vals = [truncation_error_sq(s, k) for k in range(10)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_consistent_with_truncate(self):
        A = np.random.default_rng(18).standard_normal((12, 8))
        s = svd(A)
        fro2 = np.linalg.norm(A) ** 2
        for k in range(0, 9):
            direct = np.linalg.norm(A - truncate(s, k)) ** 2
            assert abs(direct - truncation_error_sq(s, k)) <= 1e-8 * fro2


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
    assert np.allclose(recon_flipped, truncate(s, k), rtol=1e-12, atol=1e-12)
    root = np.sqrt(s.singulars[:k])
    lr_flipped = (U2[:, :k] * root) @ (V2[:, :k] * root).T
    f = factor_lr(s, k)
    assert np.allclose(lr_flipped, f.L @ f.R, rtol=1e-12, atol=1e-12)
