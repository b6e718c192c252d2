import math

import numpy as np
import pytest

from secbc import (
    JointGaussian,
    joint_mi,
    make_channel,
    mi_xy,
    r1_hat,
    r2_hat,
    r_common,
    whiten,
)
from secbc import dpc, envelopes, regions
from secbc.errors import DegenerateChannelError, SingularMatrixError

from conftest import EXAMPLE_G1, EXAMPLE_G2, random_spd


class TestMakeChannel:
    def test_identity_gains(self):
        ch = make_channel(np.eye(2), np.eye(2))
        assert ch.t == 2

    def test_example_gains(self):
        ch = make_channel(EXAMPLE_G1, EXAMPLE_G2)
        assert ch.t == 2

    def test_singular_gain_rejected(self):
        with pytest.raises(ValueError):
            make_channel([[1.0, 0.0], [0.0, 0.0]], np.eye(2))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            make_channel(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", [0, 1])
    def test_nonfinite_gain_rejected(self, bad, which):
        gains = [np.eye(2), np.eye(2)]
        gains[which][0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            make_channel(*gains)


def _mi_via_joint(g, kx, noise):
    """Oracle: I(X;Y) from the stacked (X, Y) covariance, Y = G X + Z."""
    t = g.shape[0]
    sigma = np.zeros((2 * t, 2 * t))
    sigma[:t, :t] = kx
    sigma[:t, t:] = kx @ g.T
    sigma[t:, :t] = g @ kx
    sigma[t:, t:] = g @ kx @ g.T + noise
    j = JointGaussian(("x", "y"), (t, t), sigma)
    return joint_mi(j, "x", "y")


class TestWhiten:
    def test_identity_noise_keeps_gains(self):
        ch = whiten(EXAMPLE_G1, EXAMPLE_G2, np.eye(2), np.eye(2))
        assert np.allclose(ch.g1, EXAMPLE_G1)
        assert np.allclose(ch.g2, EXAMPLE_G2)

    def test_scalar_scaling(self):
        ch = whiten([[2.0]], [[2.0]], [[4.0]], [[4.0]])
        assert ch.g1[0, 0] == pytest.approx(1.0)

    def test_mi_invariance(self, rng):
        for _ in range(10):
            g1 = rng.normal(size=(2, 2))
            g2 = rng.normal(size=(2, 2))
            n1 = random_spd(rng, 2)
            n2 = random_spd(rng, 2)
            kx = random_spd(rng, 2, ridge=0.0)
            ch = whiten(g1, g2, n1, n2)
            assert mi_xy(ch, kx, 1) == pytest.approx(
                _mi_via_joint(g1, kx, n1), abs=1e-10
            )
            assert mi_xy(ch, kx, 2) == pytest.approx(
                _mi_via_joint(g2, kx, n2), abs=1e-10
            )

    def test_singular_noise_degenerates(self):
        with pytest.raises(DegenerateChannelError):
            whiten(np.eye(2), np.eye(2), np.diag([1.0, 0.0]), np.eye(2))


class TestMiXy:
    def test_no_signal(self, example_channel):
        assert mi_xy(example_channel, np.zeros((2, 2)), 1) == 0.0

    def test_scalar_half_bit(self):
        ch = make_channel([[1.0]], [[1.0]])
        assert mi_xy(ch, [[1.0]], 1) == pytest.approx(0.5, abs=1e-12)

    def test_against_joint_oracle(self, example_channel, rng):
        kx = np.diag([6.0, 6.0])
        expected = _mi_via_joint(np.asarray(EXAMPLE_G2, float), kx, np.eye(2))
        assert mi_xy(example_channel, kx, 2) == pytest.approx(expected, abs=1e-10)
        for _ in range(10):
            kx = random_spd(rng, 2, ridge=0.0)
            expected = _mi_via_joint(np.asarray(EXAMPLE_G1, float), kx, np.eye(2))
            assert mi_xy(example_channel, kx, 1) == pytest.approx(expected, abs=1e-10)

    def test_bad_receiver(self, example_channel):
        with pytest.raises(ValueError):
            mi_xy(example_channel, np.eye(2), 3)


class TestJointMi:
    def test_independent_blocks(self):
        j = JointGaussian(("a", "b"), (2, 2), np.diag([1.0, 2.0, 3.0, 4.0]))
        assert joint_mi(j, "a", "b") == pytest.approx(0.0, abs=1e-12)

    def test_self_information_flagged(self):
        s = np.eye(2)
        sigma = np.block([[s, s], [s, s]])
        j = JointGaussian(("a", "b"), (2, 2), sigma)
        with pytest.raises(SingularMatrixError):
            joint_mi(j, "a", "b")

    def test_markov_chain_has_zero_conditional_mi(self, rng):
        # A -> B -> C with B = M A + W, C = N B + V
        for _ in range(10):
            ka = random_spd(rng, 2)
            m = rng.normal(size=(2, 2))
            n = rng.normal(size=(2, 2))
            kw = random_spd(rng, 2)
            kv = random_spd(rng, 2)
            kb = m @ ka @ m.T + kw
            sigma = np.block(
                [
                    [ka, ka @ m.T, ka @ m.T @ n.T],
                    [m @ ka, kb, kb @ n.T],
                    [n @ m @ ka, n @ kb, n @ kb @ n.T + kv],
                ]
            )
            j = JointGaussian(("a", "b", "c"), (2, 2, 2), sigma)
            assert abs(joint_mi(j, "a", "c", "b")) <= 1e-9

    def test_chain_rule(self, rng):
        for _ in range(10):
            sigma = random_spd(rng, 6, scale=2.0)
            j = JointGaussian(("a", "b", "c"), (2, 2, 2), sigma)
            lhs = joint_mi(j, "a", ("b", "c"))
            rhs = joint_mi(j, "a", "b") + joint_mi(j, "a", "c", "b")
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_overlapping_blocks_rejected(self):
        j = JointGaussian(("a", "b"), (1, 1), np.eye(2))
        with pytest.raises(ValueError):
            joint_mi(j, "a", "a")


class TestRateFormulas:
    def test_r1_hat_zero_input(self, example_channel):
        k = np.diag([6.0, 6.0])
        assert r1_hat(example_channel, k, np.zeros((2, 2))) == 0.0

    def test_r1_hat_symmetric_channel(self, rng):
        g = rng.normal(size=(2, 2))
        ch = make_channel(g, g)
        k = np.diag([4.0, 4.0])
        for _ in range(5):
            p = random_spd(rng, 2, ridge=0.0)
            p *= 2.0 / max(np.linalg.eigvalsh(p).max(), 1e-12)
            assert r1_hat(ch, k, p) == pytest.approx(0.0, abs=1e-10)

    def test_r1_hat_scalar_closed_form(self):
        ch = make_channel([[2.0]], [[1.0]])
        expected = 0.5 * math.log2(5.0) - 0.5 * math.log2(2.0)
        assert r1_hat(ch, [[1.0]], [[1.0]]) == pytest.approx(expected, abs=1e-12)
        assert r1_hat(ch, [[1.0]], [[1.0]]) == pytest.approx(0.660964, abs=1e-6)

    def test_r1_hat_precondition(self, example_channel):
        with pytest.raises(ValueError):
            r1_hat(example_channel, np.eye(2), 2.0 * np.eye(2))

    def test_r2_hat_endpoints(self, example_channel):
        k = np.diag([6.0, 6.0])
        assert r2_hat(example_channel, k, k) == pytest.approx(0.0, abs=1e-12)
        full = mi_xy(example_channel, k, 2)
        assert r2_hat(example_channel, k, np.zeros((2, 2))) == pytest.approx(full)

    def test_r2_hat_scalar_closed_form(self):
        ch = make_channel([[1.0]], [[1.0]])
        assert r2_hat(ch, [[2.0]], [[1.0]]) == pytest.approx(
            0.5 * math.log2(1.5), abs=1e-12
        )
        assert r2_hat(ch, [[2.0]], [[1.0]]) == pytest.approx(0.292481, abs=1e-6)

    def test_r2_hat_nonincreasing_in_kstar(self, example_channel, rng):
        k = np.diag([6.0, 6.0])
        for _ in range(10):
            a = random_spd(rng, 2, ridge=0.0)
            b = a + random_spd(rng, 2, ridge=0.0)
            scale = 5.0 / max(np.linalg.eigvalsh(b).max(), 1e-9)
            a, b = a * scale, b * scale
            assert r2_hat(example_channel, k, a) >= r2_hat(example_channel, k, b) - 1e-10

    def test_r_common_no_power_left(self, example_channel):
        k = np.diag([6.0, 6.0])
        r0, _, _ = r_common(example_channel, k, 0.5 * k, 0.5 * k)
        assert r0 == pytest.approx(0.0, abs=1e-10)

    def test_r_common_no_confidential_signal(self, example_channel):
        k = np.diag([6.0, 6.0])
        _, r1, _ = r_common(example_channel, k, 0.25 * k, np.zeros((2, 2)))
        assert r1 == pytest.approx(0.0, abs=1e-12)

    def test_r_common_reduces_to_pair_forms(self, example_channel, rng):
        # with k1 = 0 the (r1, r2) pair collapses onto the two-rate forms
        k = np.diag([6.0, 6.0])
        for _ in range(10):
            k2 = random_spd(rng, 2, ridge=0.0)
            k2 *= 3.0 / max(np.linalg.eigvalsh(k2).max(), 1e-12)
            _, r1, r2 = r_common(example_channel, k, np.zeros((2, 2)), k2)
            assert r1 == pytest.approx(
                r1_hat(example_channel, k, k2), abs=1e-12
            )
            assert r2 == pytest.approx(
                r2_hat(example_channel, k2, k2), abs=1e-12
            )


_EYE2, _EYE3 = np.eye(2), 3.0 * np.eye(3)
_WEIGHTS = dict(lambda0=2.0, lambda1=1.0, lambda2=0.8, eta=1.2)


@pytest.mark.parametrize(
    "call",
    [
        lambda ch: mi_xy(ch, _EYE3, 1),
        lambda ch: r1_hat(ch, _EYE3, _EYE2),
        lambda ch: r2_hat(ch, _EYE2, _EYE3),
        lambda ch: r_common(ch, _EYE2, _EYE2, _EYE3),
        lambda ch: regions.wtc_capacity(ch, _EYE3),
        lambda ch: regions.frontier_fixed_cov(ch, _EYE3),
        lambda ch: regions.region_common_fixed(ch, _EYE3),
        lambda ch: regions.check_k1_zero(ch, _EYE3),
        lambda ch: envelopes.v_eta(ch, _EYE3, 1.2),
        lambda ch: envelopes.v_hat(ch, _EYE3, envelopes.EnvelopeWeights(**_WEIGHTS)),
        lambda ch: envelopes.v_tilde(ch, _EYE3, envelopes.EnvelopeWeights(**_WEIGHTS)),
        lambda ch: envelopes.factorization_gap(
            ch, ch, _EYE3, _EYE2, envelopes.EnvelopeWeights(eta=1.2)
        ),
        lambda ch: dpc.wtc_point_check(ch, _EYE3),
        lambda ch: dpc.wtc_point_check(ch, _EYE2, _EYE3),
        lambda ch: dpc.DpcInstance(ch, _EYE2, _EYE2, _EYE3),
    ],
)
def test_every_covariance_gets_the_one_size_check(call):
    # a 3x3 covariance on the 2x2 example channel is refused by
    # channel.check_cov with its one message, before any compute
    with pytest.raises(ValueError, match=r"^\w+ is 3x3, the channel has t = 2$"):
        call(make_channel(EXAMPLE_G1, EXAMPLE_G2))
