import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossbar_lowrank.analysis import lambda_max
from crossbar_lowrank.core import DeviceParams, magnitude_check
from crossbar_lowrank.lowrank import svd
from crossbar_lowrank.matrixgen import (
    check_spectrum,
    harmonic_matrix,
    harmonic_spectrum,
    prescribed_factors,
    random_orthogonal,
)
from crossbar_lowrank.rng import child_stream


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

    def test_draws_only_the_factored_columns(self):
        # dim*cols normals, factored by QR with nonnegative diagonal
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        q = random_orthogonal(30, rng, 4)
        Q, _ = np.linalg.qr(ref.standard_normal((30, 4)))
        assert rng.standard_normal() == ref.standard_normal()
        assert q.shape == (30, 4) and (np.diag(q) >= 0).all()
        assert np.array_equal(q, Q * np.where(np.diag(Q) < 0, -1.0, 1.0))
        assert np.abs(q.T @ q - np.eye(4)).max() <= 1e-14


class TestHarmonicSpectrum:
    def test_harmonic_values(self):
        np.testing.assert_array_equal(harmonic_spectrum(6.0, 4), [6.0, 3.0, 2.0, 1.5])

    @pytest.mark.parametrize("lam", [0.0, math.inf, math.nan])
    def test_rejects_bad_lam(self, lam):
        with pytest.raises(ValueError, match="lam"):
            harmonic_spectrum(lam, 3)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError, match="rank"):
            harmonic_spectrum(1.0, 0)


def _check_spectrum_in_turn(singulars):
    """check_spectrum as its three checks in turn, without the shortcut for
    a valid spectrum: the refusals and their order it must keep."""
    s = np.asarray(singulars, dtype=float)
    if s.ndim != 1:
        raise ValueError(f"singular values must be a 1-D array, got shape {s.shape}")
    if not (np.isfinite(s) & (s >= 0)).all():
        raise ValueError("singular values must be finite and nonnegative")
    if (np.diff(s) > 0).any():
        raise ValueError("singular values must be nonincreasing")
    return s


def test_check_spectrum_passes_and_refuses_as_its_checks_in_turn():
    rng = np.random.default_rng(8)
    specials = [math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 5e-324, 1e308]
    cases = [[], 2.0, [[2.0, 1.0]], [1.0, 5.0, math.nan], [math.nan], [math.inf, 1.0]]
    for _ in range(3_000):
        s = np.sort(rng.uniform(0.0, 5.0, int(rng.integers(1, 9))))[::-1]
        if rng.random() < 0.7:
            s[rng.integers(s.size)] = rng.choice(specials + [9.0])
        cases.append(s.tolist())
    for singulars in cases:
        try:
            want = _check_spectrum_in_turn(singulars).tolist()
        except ValueError as exc:
            with pytest.raises(ValueError) as refusal:
                check_spectrum(singulars)
            assert str(refusal.value) == str(exc)
        else:
            assert check_spectrum(singulars).tolist() == want


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

    def test_a_tall_target_is_cheap(self):
        # (m + n) r normals and no m x m square: under 16 MiB traced at
        # 8192 x 16, where a square would be 512 MiB
        tracemalloc.start()
        try:
            a = harmonic_matrix(8192, 16, 16, 2.0, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a.shape == (8192, 16)
        assert peak < 16 * 2 ** 20

    def test_rejects_oversized_rank(self):
        with pytest.raises(ValueError):
            harmonic_matrix(4, 6, 5, 1.0, np.random.default_rng(0))

    def test_rejects_infinite_lam(self):
        with pytest.raises(ValueError, match="lam"):
            harmonic_matrix(4, 4, 2, math.inf, np.random.default_rng(0))


def prescribed(m, n, values, rng):
    """U diag(sigma) V' of prescribed_factors, as harmonic_matrix forms it."""
    U, sigma, V = prescribed_factors(m, n, values, rng)
    return (U * sigma) @ V.T


class TestPrescribedFactors:
    def test_exact_spectrum(self):
        a = prescribed(5, 4, [3.0, 1.0], np.random.default_rng(11))
        got = svd(a).singulars[:2]
        np.testing.assert_allclose(got, [3.0, 1.0], rtol=1e-10)

    def test_rank_one_frobenius(self):
        a = prescribed(4, 3, [7.0], np.random.default_rng(2))
        assert np.linalg.norm(a) == pytest.approx(7.0, rel=1e-9)
        assert svd(a).rank == 1

    def test_random_profiles_round_trip(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            m = int(rng.integers(2, 24))
            n = int(rng.integers(2, 24))
            r = int(rng.integers(1, min(m, n) + 1))
            vals = np.sort(rng.uniform(0.1, 9.0, size=r))[::-1]
            a = prescribed(m, n, vals, rng)
            res = svd(a)
            np.testing.assert_allclose(res.singulars[:r], vals, rtol=1e-8)
            assert np.linalg.norm(a) ** 2 == pytest.approx(float(vals @ vals), rel=1e-8)

    @pytest.mark.parametrize("m,n,r", [(1, 1, 1), (7, 3, 3), (3, 7, 2), (12, 12, 12),
                                       (40, 25, 6), (25, 40, 25), (64, 48, 8),
                                       (100, 100, 16)])
    def test_spectrum_is_exact(self, m, n, r):
        # the singular values are the prescribed ones to round-off, and the
        # stream advances by U's m x r block, then V's n x r block
        rng = np.random.default_rng(1000 * m + n)
        vals = np.sort(rng.uniform(0.1, 9.0, size=r))[::-1]
        got_rng, ref_rng = child_stream(m, n, r), child_stream(m, n, r)
        got = prescribed(m, n, vals, got_rng)
        np.testing.assert_allclose(svd(got).singulars[:r], vals, rtol=1e-13, atol=0)
        assert svd(got).rank == r
        ref_rng.standard_normal((m + n) * r)
        assert got_rng.standard_normal() == ref_rng.standard_normal()

    @staticmethod
    def _assert_nothing_drawn(rng):
        assert rng.standard_normal() == np.random.default_rng(0).standard_normal()

    def test_rejects_a_size_below_1(self):
        # the dimension rule that lambda_max states too, with the same message
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="^dimensions must be positive, got 0x3$"):
            prescribed_factors(0, 3, [1.0], rng)
        self._assert_nothing_drawn(rng)
        with pytest.raises(ValueError, match="^dimensions must be positive, got 0x5$"):
            lambda_max(0, 5, DeviceParams())

    def test_rejects_rank_beyond_dims(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="exceeds"):
            prescribed_factors(1, 5, [2.0, 1.0], rng)
        self._assert_nothing_drawn(rng)

    @pytest.mark.parametrize("vals", [
        pytest.param([1.0, 2.0], id="increasing"),
        pytest.param([2.0, 0.0], id="zero"),
        pytest.param([], id="empty"),
        pytest.param([math.nan], id="nan"),
        pytest.param([math.inf, 1.0], id="inf"),
        pytest.param([[2.0], [1.0]], id="two-dim"),
        pytest.param(2.0, id="zero-dim"),
    ])
    def test_rejects_bad_values(self, vals):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="singular values"):
            prescribed_factors(4, 5, vals, rng)
        self._assert_nothing_drawn(rng)


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
