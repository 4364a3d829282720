import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossbar_lowrank.analysis import lambda_max
from crossbar_lowrank.core import DeviceParams, magnitude_check
from crossbar_lowrank.lowrank import svd
from crossbar_lowrank.matrixgen import (
    SingularProfile,
    harmonic_matrix,
    prescribed_matrix,
    random_orthogonal,
)
from crossbar_lowrank.rng import child_stream


def _reference_prescribed_matrix(m, n, profile, rng):
    """The construction before the thin QR: QR of the full Gaussian
    squares, then their leading r columns."""
    def full_q(dim):
        Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        return Q * np.where(np.diag(Q) < 0, -1.0, 1.0)

    U = full_q(m)[:, :profile.r]
    V = full_q(n)[:, :profile.r]
    return (U * profile.resolve()) @ V.T


class TestRandomOrthogonal:
    def test_dim_one_is_identity(self):
        for seed in range(20):
            q = random_orthogonal(1, np.random.default_rng(seed))
            assert q.shape == (1, 1)
            assert q[0, 0] == 1.0

    def test_orthonormal_columns(self):
        q = random_orthogonal(16, np.random.default_rng(7))
        err = np.abs(q.T @ q - np.eye(16)).max()
        assert err <= 1e-10

    def test_nonnegative_diagonal(self):
        q = random_orthogonal(12, np.random.default_rng(3))
        assert (np.diag(q) >= 0).all()

    def test_deterministic(self):
        a = random_orthogonal(8, np.random.default_rng(99))
        b = random_orthogonal(8, np.random.default_rng(99))
        assert np.array_equal(a, b)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            random_orthogonal(0, np.random.default_rng(0))

    @pytest.mark.parametrize("cols", [0, 9])
    def test_rejects_bad_cols(self, cols):
        with pytest.raises(ValueError, match="cols"):
            random_orthogonal(8, np.random.default_rng(0), cols)

    def test_leading_columns_use_the_whole_square(self):
        # the thin factor is the full factor's leading block, and the
        # stream advances by the full square either way
        full_rng, thin_rng = np.random.default_rng(5), np.random.default_rng(5)
        full = random_orthogonal(30, full_rng)
        thin = random_orthogonal(30, thin_rng, 4)
        assert thin.shape == (30, 4)
        np.testing.assert_allclose(thin, full[:, :4], rtol=0, atol=1e-13)
        assert full_rng.standard_normal() == thin_rng.standard_normal()


class TestSingularProfile:
    def test_harmonic_values(self):
        prof = SingularProfile.harmonic(6.0, 4)
        np.testing.assert_allclose(prof.resolve(), [6.0, 3.0, 2.0, 1.5], rtol=1e-15)

    def test_explicit_passthrough(self):
        prof = SingularProfile.explicit([4.0, 2.0, 2.0, 0.5])
        np.testing.assert_array_equal(prof.resolve(), [4.0, 2.0, 2.0, 0.5])
        assert prof.r == 4

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            SingularProfile.explicit([1.0, 2.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SingularProfile.explicit([2.0, 0.0])
        with pytest.raises(ValueError):
            SingularProfile.harmonic(0.0, 3)

    def test_rejects_empty_or_bad_rank(self):
        with pytest.raises(ValueError):
            SingularProfile.explicit([])
        with pytest.raises(ValueError):
            SingularProfile.harmonic(1.0, 0)


class TestHarmonicMatrix:
    def test_one_by_one(self):
        a = harmonic_matrix(1, 1, 1, 5.0, np.random.default_rng(0))
        assert a.shape == (1, 1)
        # orthogonal factors in dim 1 are +1, so the entry is lam itself
        assert a[0, 0] == pytest.approx(5.0, abs=1e-12)

    def test_spectrum_round_trip(self):
        a = harmonic_matrix(100, 100, 16, 10.0, child_stream(12345, 0))
        res = svd(a)
        assert res.rank == 16
        np.testing.assert_allclose(res.singulars[:16], 10.0 / np.arange(1, 17),
                                   rtol=1e-8)

    def test_rejects_oversized_rank(self):
        with pytest.raises(ValueError):
            harmonic_matrix(4, 6, 5, 1.0, np.random.default_rng(0))


class TestPrescribedMatrix:
    def test_exact_spectrum(self):
        prof = SingularProfile.explicit([3.0, 1.0])
        a = prescribed_matrix(5, 4, prof, np.random.default_rng(11))
        got = svd(a).singulars[:2]
        np.testing.assert_allclose(got, [3.0, 1.0], rtol=1e-10)

    def test_rank_one_frobenius(self):
        prof = SingularProfile.explicit([7.0])
        a = prescribed_matrix(4, 3, prof, np.random.default_rng(2))
        assert np.linalg.norm(a) == pytest.approx(7.0, rel=1e-9)
        assert svd(a).rank == 1

    def test_random_profiles_round_trip(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            m = int(rng.integers(2, 24))
            n = int(rng.integers(2, 24))
            r = int(rng.integers(1, min(m, n) + 1))
            vals = np.sort(rng.uniform(0.1, 9.0, size=r))[::-1]
            prof = SingularProfile.explicit(vals)
            a = prescribed_matrix(m, n, prof, rng)
            res = svd(a)
            np.testing.assert_allclose(res.singulars[:r], vals, rtol=1e-8)
            assert np.linalg.norm(a) ** 2 == pytest.approx(float(vals @ vals), rel=1e-8)

    @pytest.mark.parametrize("m,n,r", [(1, 1, 1), (7, 3, 3), (3, 7, 2), (12, 12, 12),
                                       (40, 25, 6), (25, 40, 25), (64, 48, 8),
                                       (100, 100, 16)])
    def test_matches_full_square_reference(self, m, n, r):
        rng = np.random.default_rng(1000 * m + n)
        vals = np.sort(rng.uniform(0.1, 9.0, size=r))[::-1]
        prof = SingularProfile.explicit(vals)
        got_rng, ref_rng = child_stream(m, n, r), child_stream(m, n, r)
        got = prescribed_matrix(m, n, prof, got_rng)
        ref = _reference_prescribed_matrix(m, n, prof, ref_rng)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.linalg.norm(ref))
        np.testing.assert_allclose(svd(got).singulars[:r], svd(ref).singulars[:r],
                                   rtol=1e-12)
        # same stream use: the next draw agrees
        assert got_rng.standard_normal() == ref_rng.standard_normal()

    def test_rejects_rank_beyond_dims(self):
        prof = SingularProfile.explicit([2.0, 1.0])
        with pytest.raises(ValueError):
            prescribed_matrix(1, 5, prof, np.random.default_rng(0))


class TestMagnitudeStrictness:
    @given(st.floats(min_value=0.01, max_value=1.0), st.integers(min_value=1, max_value=12))
    def test_any_fraction_of_max_amplitude_fits(self, frac, r):
        dev = DeviceParams()
        m = n = 16
        lam = frac * lambda_max(m, n, dev)
        a = harmonic_matrix(m, n, r, lam, np.random.default_rng(1))
        assert magnitude_check(a, dev).satisfied

    def test_overscaled_amplitude_fails_at_high_rank(self):
        # sum_{i<=r} 1/i^2 exceeds pi^2 / (6 * 1.01^2) once r is in the
        # mid-30s, so a 1% overshoot of the max amplitude breaks the
        # constraint for r = 64
        dev = DeviceParams()
        lam = 1.01 * lambda_max(80, 80, dev)
        a = harmonic_matrix(80, 80, 64, lam, np.random.default_rng(8))
        assert not magnitude_check(a, dev).satisfied
