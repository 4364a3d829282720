import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossbar_lowrank.core import DeviceParams, conductance_map, iid_entries, magnitude_check
from crossbar_lowrank.schemes import NoiseSpec, baseline_noisy_vmm


def ideal_vmm(b, A):
    """The ideal product c = b A: the one-shot scheme at zero write noise,
    which takes the exact path and draws nothing."""
    return baseline_noisy_vmm(b, A, NoiseSpec(), np.random.default_rng(0))


def naive_vmm(b, A):
    m, n = A.shape
    out = [0.0] * n
    for k in range(n):
        acc = 0.0
        for j in range(m):
            acc += b[j] * A[j, k]
        out[k] = acc
    return np.array(out)


class TestVmmExact:
    def test_unit_vector_selects_row(self):
        assert np.array_equal(ideal_vmm([1, 0], [[3, 4], [5, 6]]), [3, 4])

    def test_column_sums(self):
        assert np.array_equal(ideal_vmm([1, 1], [[1, 2], [3, 4]]), [4, 6])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = int(rng.integers(1, 33))
            n = int(rng.integers(1, 33))
            A = rng.uniform(-1, 1, (m, n))
            b = rng.uniform(-2, 2, m)
            got = ideal_vmm(b, A)
            want = naive_vmm(b, A)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_three_row_example(self):
        rng = np.random.default_rng(3)
        A = rng.uniform(-1, 1, (3, 2))
        b = np.array([2.0, -1.0, 0.5])
        assert np.allclose(ideal_vmm(b, A), naive_vmm(b, A), rtol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            A = rng.standard_normal((6, 4))
            b1 = rng.standard_normal(6)
            b2 = rng.standard_normal(6)
            alpha, beta = rng.uniform(-3, 3, 2)
            lhs = ideal_vmm(alpha * b1 + beta * b2, A)
            rhs = alpha * ideal_vmm(b1, A) + beta * ideal_vmm(b2, A)
            assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_dimension_mismatch_reports_shapes(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            ideal_vmm([1.0, 2.0, 3.0], [[1.0, 2.0], [3.0, 4.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ideal_vmm([1.0, np.nan], [[1.0], [2.0]])
        with pytest.raises(ValueError):
            ideal_vmm([1.0], [[np.inf]])


class TestDeviceParams:
    def test_defaults(self):
        dev = DeviceParams()
        assert dev.r_T == 1.0 and dev.rho == 1.0

    @pytest.mark.parametrize("kwargs", [{"r_T": 0.0}, {"r_T": -1.0}, {"rho": 0.0}, {"rho": -2.0},
                                        {"r_T": math.inf}, {"r_T": math.nan},
                                        {"rho": math.inf}, {"rho": math.nan}])
    def test_rejects_nonpositive(self, kwargs):
        (key,) = kwargs
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            DeviceParams(**kwargs)


class TestConductanceMap:
    def test_scalar_scale(self):
        assert np.array_equal(conductance_map([[1.0]], DeviceParams(r_T=2.0)), [[2.0]])

    def test_zero_matrix(self):
        Z = np.zeros((3, 4))
        assert np.array_equal(conductance_map(Z, DeviceParams(r_T=7.5)), Z)

    def test_linear_scale(self):
        G = conductance_map([[0.5, -0.5]], DeviceParams(r_T=10.0))
        assert np.array_equal(G, [[5.0, -5.0]])


class TestMagnitudeCheck:
    def test_zero_matrix(self):
        ok, total, budget = magnitude_check(np.zeros((3, 3)), DeviceParams())
        assert ok and total == 0.0 and budget == 9.0

    def test_boundary_equality_satisfied(self):
        ok, total, budget = magnitude_check(np.ones((2, 2)), DeviceParams())
        assert ok and total == 4.0 and budget == 4.0

    def test_violation(self):
        ok, total, budget = magnitude_check(np.ones((2, 2)), DeviceParams(rho=0.5))
        assert not ok and total == 4.0 and budget == 2.0

    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_scale_consistency(self, s):
        A = np.array([[0.3, -1.2], [2.0, 0.7], [-0.4, 0.9]])
        base = magnitude_check(A, DeviceParams()).total
        scaled = magnitude_check(s * A, DeviceParams()).total
        assert scaled == pytest.approx(s * s * base, rel=1e-12)


class TestSampleInput:
    """An input row vector is drawn as iid_entries(m, sigma_b_sq, dist, rng)."""

    def test_rejects_unknown_dist(self):
        with pytest.raises(ValueError, match="unsupported distribution"):
            iid_entries(4, 1.0, "laplace", np.random.default_rng(0))

    @pytest.mark.parametrize("dist", ["gaussian", "uniform"])
    def test_moments(self, dist):
        n = 100_000
        x = iid_entries(n, 3.0, dist, np.random.default_rng(42))
        se_mean = np.sqrt(3.0 / n)
        assert abs(x.mean()) < 5 * se_mean
        assert x.var() == pytest.approx(3.0, rel=0.05)

    def test_uniform_support(self):
        x = iid_entries(50_000, 2.0, "uniform", np.random.default_rng(1))
        assert np.max(np.abs(x)) <= np.sqrt(6.0) + 1e-12

    def test_same_seed_identical(self):
        a = iid_entries(64, 1.5, "gaussian", np.random.default_rng(99))
        b = iid_entries(64, 1.5, "gaussian", np.random.default_rng(99))
        assert np.array_equal(a, b)


class TestIidEntries:
    def test_zero_variance_consumes_no_randomness(self):
        rng = np.random.default_rng(7)
        z = iid_entries((3, 3), 0.0, "gaussian", rng)
        assert np.array_equal(z, np.zeros((3, 3)))
        # stream untouched: next draw matches a fresh stream's first draw
        assert np.array_equal(rng.standard_normal(4),
                              np.random.default_rng(7).standard_normal(4))

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            iid_entries((2, 2), -0.1, "gaussian", np.random.default_rng(0))

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    @pytest.mark.parametrize("shape", [1, (3, 4), (64, 1, 12, 2)])
    @pytest.mark.parametrize("sigma_sq", [1.0, 0.05, 1e-300])
    def test_uniform_draws_the_bits_of_rng_uniform(self, seed, shape, sigma_sq):
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = iid_entries(shape, sigma_sq, "uniform", got_rng)
        w = np.sqrt(3.0 * sigma_sq)
        ref = ref_rng.uniform(-w, w, shape)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        # and the stream is left where rng.uniform leaves it
        assert got_rng.random(3).tobytes() == ref_rng.random(3).tobytes()
