import math

import numpy as np
import pytest

from secbc import SubCovParams, compose_sub_cov, decompose_sub_cov, logdet2, psd_leq, rotation, sqrt_factor
from secbc.errors import SingularMatrixError
from secbc.matops import (
    contractions,
    gram,
    half_log2,
    half_log2_det,
    rotation_angles,
    validate_psd,
)

from conftest import large_singular_covariance, random_spd
from oracles import mi_gauss


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

    def test_one_eigen_solve(self, rng, monkeypatch):
        # the PSD validation and the singularity test share one eigvalsh
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            calls.append(1)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        logdet2(random_spd(rng, 3))
        assert len(calls) == 1
        with pytest.raises(SingularMatrixError):
            logdet2(np.diag([1.0, 1e-13]))
        with pytest.raises(ValueError, match="positive semidefinite"):
            logdet2(np.diag([1.0, -1.0]))


class TestStackedLogdet2:
    def test_members_match_their_own_calls_bitwise(self, rng):
        stack = np.stack([random_spd(rng, 3) for _ in range(9)])
        assert np.array_equal(logdet2(stack), [logdet2(m) for m in stack])

    def test_one_singular_member_raises(self, rng):
        stack = np.stack([random_spd(rng, 2) for _ in range(5)])
        stack[3] = np.diag([1.0, 0.0])
        with pytest.raises(SingularMatrixError):
            logdet2(stack)

    def test_one_asymmetric_member_raises(self, rng):
        stack = np.stack([random_spd(rng, 2) for _ in range(5)])
        stack[1] = [[1.0, 0.5], [0.1, 1.0]]
        with pytest.raises(ValueError, match="not symmetric"):
            logdet2(stack)


class TestHalfLog2Det:
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_matches_the_oracle_in_both_forms(self, rng, t):
        gains = rng.normal(size=(2, t, t))
        factors = rng.normal(size=(5, t, t))
        ks = factors @ np.swapaxes(factors, -1, -2)
        want = np.array([[mi_gauss(g, k) for k in ks] for g in gains])
        for j, g in enumerate(gains):
            assert half_log2_det(g, ks) == pytest.approx(want[j], abs=1e-12)
            assert half_log2_det(g, ks[0]) == pytest.approx(want[j, 0], abs=1e-12)
        stacked = gains[:, None]
        assert half_log2_det(stacked, ks) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_raise(self, bad):
        k = np.eye(2)
        k[0, 1] = k[1, 0] = bad
        with pytest.raises(FloatingPointError):
            half_log2_det(np.eye(2), k)
        with pytest.raises(FloatingPointError):
            half_log2_det(np.eye(2), np.stack([np.eye(2), k]))

    def test_nonpositive_determinant_raises(self):
        for k in ([[-2.0]], [[-1.0]]):
            with pytest.raises(FloatingPointError):
                half_log2_det(np.eye(1), np.array(k))

    def test_overflow_raises(self):
        with pytest.raises(FloatingPointError):
            half_log2_det(np.eye(1), gram(np.array([[1e300]])))


class TestHalfLog2:
    def test_half_log2_of_determinants(self):
        assert half_log2(np.array([1.0, 4.0, 0.25])).tolist() == [0.0, 1.0, -1.0]

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_bad_determinant_raises(self, bad):
        with pytest.raises(FloatingPointError):
            half_log2(np.array([2.0, bad]))


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

    def test_singular_input_uses_eigen_square_root(self):
        k = np.array([[4.0, 2.0], [2.0, 1.0]])  # rank one
        b = sqrt_factor(k)
        assert np.abs(b @ b.T - k).max() <= 1e-10
        assert np.abs(b - b.T).max() <= 1e-12  # V sqrt(w) V^T is symmetric
        b0 = sqrt_factor(np.zeros((2, 2)))
        assert np.allclose(b0, 0.0)

    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_singular_inputs_multiply_back(self, rng, t, rank):
        for scale in (1e-3, 1.0, 1e6):
            a = scale * rng.normal(size=(t, rank))
            k = gram(a)
            b = sqrt_factor(k)
            tol = 1e-10 * max(1.0, np.linalg.norm(k, 2))
            assert np.abs(b @ b.T - k).max() <= tol

    def test_large_singular_input_multiplies_back(self):
        k = large_singular_covariance()
        b = sqrt_factor(k)
        assert np.abs(b @ b.T - k).max() <= 1e-10 * np.linalg.norm(k, 2)

    def test_mixed_stack_members_match_their_own_calls_bitwise(self, rng):
        stack = np.stack([random_spd(rng, 3) for _ in range(6)])
        stack[1] = gram(rng.normal(size=(3, 1)))
        stack[4] = gram(rng.normal(size=(3, 2)))
        stack[5] = 0.0
        got = sqrt_factor(stack.reshape(2, 3, 3, 3))
        assert got.shape == (2, 3, 3, 3)
        want = np.stack([sqrt_factor(m) for m in stack])
        assert np.array_equal(got.reshape(6, 3, 3), want)
        # the positive-definite members keep their Cholesky factor
        assert np.array_equal(want[0], np.linalg.cholesky(stack[0]))

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

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_stacked_roundtrip_matches_per_matrix_calls(self, rng, t):
        m = t * (t - 1) // 2
        k = np.stack([random_spd(rng, t, scale=4.0) for _ in range(20)])
        p = SubCovParams(rng.uniform(0, 2 * math.pi, (20, m)), rng.uniform(0, 1, (20, t)))
        kstar = compose_sub_cov(k, p)
        back = compose_sub_cov(k, decompose_sub_cov(k, kstar))
        assert kstar.shape == back.shape == (20, t, t)
        for i in range(20):
            ks_i = compose_sub_cov(k[i], SubCovParams(p.angles[i], p.diag[i]))
            back_i = compose_sub_cov(k[i], decompose_sub_cov(k[i], ks_i))
            assert np.abs(kstar[i] - ks_i).max() <= 1e-12
            assert np.abs(back[i] - back_i).max() <= 1e-12
            assert np.linalg.norm(back[i] - kstar[i]) <= 1e-13 * max(1.0, np.linalg.norm(k[i]))

    def test_stacked_compose_with_a_singular_member(self, rng):
        # the stacked Cholesky fails, so every member takes its own factor
        k = np.stack([random_spd(rng, 3, scale=4.0) for _ in range(4)])
        k[1] = np.diag([2.0, 1.0, 0.0])
        p = SubCovParams(rng.uniform(0, 2 * math.pi, (4, 3)), rng.uniform(0, 1, (4, 3)))
        kstar = compose_sub_cov(k, p)
        for i in range(4):
            one = compose_sub_cov(k[i], SubCovParams(p.angles[i], p.diag[i]))
            assert np.array_equal(kstar[i], one)

    def test_stacked_angles_match_per_matrix_calls(self, rng):
        v = rotation(rng.uniform(0, 2 * math.pi, (30, 3)), 3)
        assert np.abs(rotation_angles(v) - [rotation_angles(m) for m in v]).max() <= 1e-12

    def test_stack_with_one_kstar_above_k_rejected(self, rng):
        k = np.stack([random_spd(rng, 2, scale=4.0) for _ in range(6)])
        kstar = 0.5 * k
        kstar[2] = 2.0 * k[2]
        with pytest.raises(ValueError, match="not below"):
            decompose_sub_cov(k, kstar)

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


class TestComposeIsTheChain:
    """compose_sub_cov is the one-level contraction chain from sqrt_factor(k),
    the product every grid and generator is built with, to the bit."""

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_single_and_broadcast_stacks(self, rng, t):
        m = t * (t - 1) // 2
        a = rng.normal(size=(t, t - 1))
        ks = np.stack([random_spd(rng, t), random_spd(rng, t), a @ a.T])  # one singular
        p = SubCovParams(rng.uniform(0, 2 * math.pi, (3, m)), rng.uniform(0, 1, (3, t)))
        rows = np.concatenate([p.angles, p.diag], axis=-1)
        one = SubCovParams(p.angles[0], p.diag[0])
        cases = [
            (ks[0], one, rows[0]),
            (ks[2], one, rows[0]),
            (ks[0], p, rows),
            (ks, one, rows[0]),
            (ks, p, rows),
            (ks[:, None], p, rows),  # (3, 1) against (3,): a (3, 3) stack
        ]
        for k, params, r in cases:
            want = gram(sqrt_factor(k) @ contractions(r, t))
            got = compose_sub_cov(k, params)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_logdet_monotone_in_psd_order(rng):
    for _ in range(20):
        a = random_spd(rng, 3)
        b = a + random_spd(rng, 3, ridge=0.0)
        assert logdet2(a) <= logdet2(b) + 1e-10
