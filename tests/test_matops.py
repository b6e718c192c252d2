import math

import numpy as np
import pytest

from secbc import SubCovParams, compose_sub_cov, decompose_sub_cov, logdet2, psd_leq, rotation, sqrt_factor
from secbc.errors import SingularMatrixError
from secbc.matops import rotation_angles, validate_psd

from conftest import large_singular_covariance, random_spd


class TestPsdLeq:
    def test_zero_below_identity(self):
        assert psd_leq(np.zeros((3, 3)), np.eye(3), 1e-9)

    def test_reflexive(self):
        assert psd_leq(np.eye(2), np.eye(2), 1e-9)

    def test_incomparable_diagonals(self):
        # eigenvalues of b - a are +1 and -1
        assert not psd_leq(np.diag([2.0, 1.0]), np.diag([1.0, 2.0]), 1e-9)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            psd_leq(np.eye(2), np.eye(3))

    def test_scale_invariant(self):
        # b - a has min eigenvalue -0.9e-9 * ||b||: rounding at any scale
        for c in (1.0, 1e9):
            b = c * np.diag([1.0, 0.5])
            a = b + np.diag([0.0, 0.9e-9 * c])
            assert psd_leq(a, b, 1e-9)
            assert not psd_leq(b + np.diag([0.0, 1e-6 * c]), b, 1e-9)


class TestRelativePsdTolerance:
    def test_large_singular_covariance_accepted(self):
        from secbc import make_channel, r1_hat, wtc_capacity

        k = large_singular_covariance()
        assert np.linalg.eigvalsh(k).min() < -1e-9  # rejected by an absolute 1e-9
        assert np.array_equal(validate_psd(k), k)
        ch = make_channel(np.diag([2.0, 1.0, 1.0]), np.diag([1.0, 2.0, 1.0]))
        value, kstar = wtc_capacity(ch, k)
        # rates at trace 1.2e7 are float64 log-dets of entries ~5e7
        assert r1_hat(ch, k, kstar) == pytest.approx(value, abs=1e-6)
        assert r1_hat(ch, k, 0.5 * k) <= value + 1e-6

    def test_relative_violation_rejected(self):
        k = large_singular_covariance()
        v = np.linalg.eigh(k)[1][:, 0]
        bad = k - 1e-6 * np.linalg.norm(k, 2) * np.outer(v, v)
        with pytest.raises(ValueError, match="positive semidefinite"):
            validate_psd(bad)
        with pytest.raises(ValueError, match="positive semidefinite"):
            validate_psd(np.diag([1.0, -1e-6]))


class TestLogdet2:
    def test_identity_is_zero(self):
        for t in (1, 2, 5):
            assert logdet2(np.eye(t)) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal(self):
        assert logdet2(np.diag([2.0, 3.0])) == pytest.approx(
            math.log2(6.0), abs=1e-12
        )
        assert logdet2(np.diag([2.0, 3.0])) == pytest.approx(2.584963, abs=1e-6)

    def test_matches_eigenvalue_sum(self, rng):
        # oracle: sum of log2 of eigenvalues
        for _ in range(20):
            a = random_spd(rng, 3)
            expected = float(np.sum(np.log2(np.linalg.eigvalsh(a))))
            assert logdet2(a) == pytest.approx(expected, abs=1e-10)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            logdet2(np.diag([1.0, 0.0]))

    def test_asymmetric_raises(self):
        with pytest.raises(ValueError):
            logdet2(np.array([[1.0, 0.5], [0.1, 1.0]]))


class TestSqrtFactor:
    def test_identity(self):
        assert np.allclose(sqrt_factor(np.eye(3)), np.eye(3))

    def test_diagonal_roots(self):
        b = sqrt_factor(np.diag([4.0, 9.0]))
        assert np.allclose(b @ b.T, np.diag([4.0, 9.0]), atol=1e-12)

    def test_multiply_back(self, rng):
        # covariance candidates at the trace-12 scale
        for _ in range(20):
            k = random_spd(rng, 2, scale=6.0)
            k *= 12.0 / np.trace(k)
            b = sqrt_factor(k)
            assert np.abs(b @ b.T - k).max() <= 1e-10

    def test_singular_input_uses_pivoted_factorization(self):
        k = np.array([[4.0, 2.0], [2.0, 1.0]])  # rank one
        b = sqrt_factor(k)
        assert np.abs(b @ b.T - k).max() <= 1e-10
        b0 = sqrt_factor(np.zeros((2, 2)))
        assert np.allclose(b0, 0.0)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            sqrt_factor(np.diag([1.0, -1.0]))


class TestRotation:
    def test_zero_angle(self):
        assert np.allclose(rotation([0.0], 2), np.eye(2))

    def test_quarter_turn(self):
        assert np.allclose(
            rotation([math.pi / 2], 2), [[0.0, -1.0], [1.0, 0.0]], atol=1e-15
        )

    def test_orthogonal_unit_determinant(self, rng):
        for t in (2, 3, 4):
            m = t * (t - 1) // 2
            for _ in range(10):
                v = rotation(rng.uniform(0, 2 * math.pi, m), t)
                assert np.abs(v.T @ v - np.eye(t)).max() <= 1e-12
                assert np.linalg.det(v) == pytest.approx(1.0, abs=1e-12)

    def test_wrong_angle_count(self):
        with pytest.raises(ValueError):
            rotation([0.1, 0.2], 2)

    def test_angle_extraction_roundtrip(self, rng):
        for t in (2, 3, 4):
            m = t * (t - 1) // 2
            for _ in range(10):
                v = rotation(rng.uniform(0, 2 * math.pi, m), t)
                back = rotation(rotation_angles(v), t)
                assert np.abs(back - v).max() <= 1e-12


class TestSubCov:
    def test_full_scaling_reproduces_k(self, rng):
        k = random_spd(rng, 2, scale=3.0)
        p = SubCovParams([0.7], [1.0, 1.0])
        assert np.abs(compose_sub_cov(k, p) - k).max() <= 1e-10

    def test_zero_scaling_gives_zero(self, rng):
        k = random_spd(rng, 3, scale=3.0)
        p = SubCovParams(rng.uniform(0, 2 * math.pi, 3), np.zeros(3))
        assert np.abs(compose_sub_cov(k, p)).max() <= 1e-12

    def test_composition_stays_below_k(self, rng):
        k = np.diag([6.0, 6.0])
        for _ in range(25):
            p = SubCovParams(rng.uniform(0, 2 * math.pi, 1), rng.uniform(0, 1, 2))
            ks = compose_sub_cov(k, p)
            assert psd_leq(ks, k, 1e-8)
            assert psd_leq(np.zeros((2, 2)), ks, 1e-9)

    def test_decompose_full_and_zero(self, rng):
        k = random_spd(rng, 2)
        assert np.allclose(decompose_sub_cov(k, k).diag, 1.0, atol=1e-9)
        assert np.allclose(
            decompose_sub_cov(k, np.zeros((2, 2))).diag, 0.0, atol=1e-9
        )

    @pytest.mark.parametrize("t", [2, 3])
    def test_roundtrip_50_random_pairs(self, rng, t):
        m = t * (t - 1) // 2
        for _ in range(50):
            k = random_spd(rng, t, scale=4.0)
            p = SubCovParams(rng.uniform(0, 2 * math.pi, m), rng.uniform(0, 1, t))
            kstar = compose_sub_cov(k, p)
            back = compose_sub_cov(k, decompose_sub_cov(k, kstar))
            assert np.linalg.norm(back - kstar) <= 1e-7

    def test_precondition_violation(self, rng):
        k = np.eye(2)
        with pytest.raises(ValueError):
            decompose_sub_cov(k, 2.0 * np.eye(2))

    def test_singular_k_rejected(self):
        with pytest.raises(SingularMatrixError):
            decompose_sub_cov(np.diag([1.0, 0.0]), np.zeros((2, 2)))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SubCovParams([0.1], [0.5, 1.5])
        with pytest.raises(ValueError):
            SubCovParams([0.1, 0.2], [0.5, 0.5])


def test_logdet_monotone_in_psd_order(rng):
    for _ in range(20):
        a = random_spd(rng, 3)
        b = a + random_spd(rng, 3, ridge=0.0)
        assert logdet2(a) <= logdet2(b) + 1e-10
