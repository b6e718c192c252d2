import math

import numpy as np
import pytest

from secbc import joint_mi, make_channel, precoder, precoder_wtc, psd_leq, wtc_point_check
from secbc import cli, dpc
from secbc.dpc import (
    DpcInstance,
    dpc_identity_check,
    dpc_joint,
    effective_gain,
    random_channel,
    random_instance,
    random_instances,
    random_psd,
)
from secbc.errors import DegenerateInstanceError

from conftest import random_spd


class TestEffectiveGain:
    def test_no_noise_layer(self, rng):
        g = rng.normal(size=(2, 2))
        assert np.allclose(effective_gain(g, np.zeros((2, 2))), g)

    def test_scalar(self):
        # (1 + 1*3*1)^(-1/2) * 1 = 1/2
        assert effective_gain([[1.0]], [[3.0]])[0, 0] == pytest.approx(0.5)

    def test_gram_identity(self, rng):
        # Gt^T Gt = G^T (I + G K G^T)^{-1} G
        for _ in range(10):
            g = rng.normal(size=(3, 3))
            k1 = random_spd(rng, 3)
            gt = effective_gain(g, k1)
            lhs = gt.T @ gt
            rhs = g.T @ np.linalg.inv(np.eye(3) + g @ k1 @ g.T) @ g
            assert np.abs(lhs - rhs).max() <= 1e-10


class TestPrecoder:
    def test_zero_signal(self):
        assert np.allclose(precoder(np.zeros((2, 2)), np.eye(2)), 0.0)

    def test_scalar(self):
        assert precoder([[1.0]], [[1.0]])[0, 0] == pytest.approx(0.5)

    def test_residual(self, rng):
        for _ in range(10):
            k2 = random_spd(rng, 2)
            gt = rng.normal(size=(2, 2))
            a = precoder(k2, gt)
            resid = a @ (np.eye(2) + gt @ k2 @ gt.T) - k2 @ gt.T
            assert np.abs(resid).max() <= 1e-10

    def test_wtc_specialization(self, rng):
        kstar = random_spd(rng, 2)
        g1 = rng.normal(size=(2, 2))
        expected = precoder(kstar, effective_gain(g1, np.zeros((2, 2))))
        assert np.allclose(precoder_wtc(kstar, g1), expected)

    def test_wtc_zero(self):
        assert np.allclose(precoder_wtc(np.zeros((2, 2)), np.eye(2)), 0.0)

    def test_wtc_scalar(self):
        # 1*2 / (1 + 4) = 2/5
        assert precoder_wtc([[1.0]], [[2.0]])[0, 0] == pytest.approx(0.4)


class TestDpcIdentity:
    def test_constant_interference(self):
        # kv = 0: both sides collapse to the unconditional difference
        ch = make_channel([[2.0]], [[1.0]])
        inst = DpcInstance(ch, np.zeros((1, 1)), np.eye(1), np.zeros((1, 1)))
        lhs, rhs, gap = dpc_identity_check(inst)
        assert gap <= 1e-9
        assert lhs == pytest.approx(0.5 * math.log2(5.0 / 2.0), abs=1e-12)

    def test_scalar_closed_form(self):
        # g1=2, g2=1, k1=0, k2=1, kv=1
        ch = make_channel([[2.0]], [[1.0]])
        inst = DpcInstance(ch, np.zeros((1, 1)), np.eye(1), np.eye(1))
        lhs, rhs, gap = dpc_identity_check(inst)
        assert lhs == pytest.approx(0.5 * math.log2(2.5), abs=1e-12)
        assert gap <= 1e-9

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_random_instances(self, t):
        rng = np.random.default_rng(100 + t)
        for _ in range(100):
            inst = random_instance(t, rng)
            lhs, _, gap = dpc_identity_check(inst)
            assert gap <= 1e-9 * (1.0 + abs(lhs))

    def test_degenerate_signal_rejected(self):
        ch = make_channel([[1.0, 0.1], [0.0, 1.0]], np.eye(2))
        inst = DpcInstance(ch, np.eye(2), np.zeros((2, 2)), np.eye(2))
        with pytest.raises(DegenerateInstanceError):
            dpc_identity_check(inst)


class TestDpcBatch:
    @staticmethod
    def _mixed(t, n, rng):
        """n instances cycling ordinary, constant-interference and rank-1 k1 draws."""
        out = []
        for i in range(n):
            inst = random_instance(t, rng)
            if i % 3 == 1:
                inst = DpcInstance(inst.ch, inst.k1, inst.k2, np.zeros((t, t)))
            elif i % 3 == 2:
                u = rng.normal(size=(t, 1))
                inst = DpcInstance(inst.ch, u @ u.T, inst.k2, inst.kv)
            out.append(inst)
        return out

    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 7, 50])
    def test_sequence_equals_per_instance_calls_bitwise(self, t, n):
        insts = self._mixed(t, n, np.random.default_rng(10 * t + n))
        lhs, rhs, gap = dpc_identity_check(insts)
        assert lhs.shape == rhs.shape == gap.shape == (n,)
        one = np.array([dpc_identity_check(inst) for inst in insts])
        assert np.array_equal(np.stack([lhs, rhs, gap], axis=1), one)
        assert gap.max() <= 1e-9 * (1.0 + np.abs(lhs).max())

    def test_single_instance_gives_floats(self, rng):
        out = dpc_identity_check(random_instance(2, rng))
        assert all(type(v) is float for v in out)

    def test_one_degenerate_member_raises(self, rng):
        insts = self._mixed(2, 7, rng)
        ch = insts[4].ch
        insts[4] = DpcInstance(ch, np.eye(2), np.zeros((2, 2)), np.eye(2))
        with pytest.raises(DegenerateInstanceError):
            dpc_identity_check(insts)


def one_by_one(t, rng):
    """One instance drawn and validated member by member (the reference)."""
    ch = random_channel(t, rng)
    k1 = random_psd(t, rng)
    if rng.integers(3) == 0 and t > 1:
        u = rng.normal(size=(t, 1))
        k1 = u @ u.T
    k2 = random_psd(t, rng) + 0.1 * np.eye(t)
    kv = random_psd(t, rng) + 0.1 * np.eye(t)
    return DpcInstance(ch, k1, k2, kv)


def _fields(inst):
    return [inst.ch.g1, inst.ch.g2, inst.k1, inst.k2, inst.kv]


class TestChunkDraw:
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_chunk_is_the_bits_of_separate_draws(self, t):
        n = 60
        chunk = random_instances(t, np.random.default_rng(t), n)
        rng = np.random.default_rng(t)
        singles = [random_instance(t, rng) for _ in range(n)]
        rng = np.random.default_rng(t)
        reference = [one_by_one(t, rng) for _ in range(n)]
        for got, one, ref in zip(chunk, singles, reference):
            for a, b, c in zip(_fields(got), _fields(one), _fields(ref)):
                assert a.tobytes() == b.tobytes() == c.tobytes()
                assert not a.flags.writeable
        ranks = [np.linalg.matrix_rank(inst.k1) for inst in chunk]
        assert (ranks.count(1) > 5) if t > 1 else ranks == [1] * n  # rank-one k1 draws
        out = np.stack(dpc_identity_check(chunk), axis=1)
        assert out.tobytes() == np.array([dpc_identity_check(i) for i in singles]).tobytes()
        assert out.tobytes() == np.stack(dpc_identity_check(reference), axis=1).tobytes()

    BAD = {
        "nonfinite gain": ("gains", [np.eye(2), np.array([[1.0, np.inf], [0.0, 1.0]])]),
        "singular gain": ("gains", [np.zeros((2, 2)), np.eye(2)]),
        "asymmetric k1": ("k1", np.array([[1.0, 0.5], [0.0, 1.0]])),
        "indefinite k2": ("k2", -np.eye(2)),
        "nonfinite kv": ("kv", np.full((2, 2), np.nan)),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_one_bad_member_raises_its_own_error(self, case, monkeypatch):
        field, bad = self.BAD[case]
        # a member past the first whose k1 is not replaced by a rank-one draw
        plain = random_instances(2, np.random.default_rng(0), 7)
        ranks = [np.linalg.matrix_rank(i.k1) for i in plain]
        member, draws = ranks.index(2, 1), {"gains": 0, "psd": 0}
        gains, psd = dpc._random_gains, dpc.random_psd

        def bad_gains(t, rng):
            draws["gains"] += 1
            out = gains(t, rng)
            return bad if field == "gains" and draws["gains"] == member + 1 else out

        def bad_psd(t, rng):
            # three draws per member (k1, k2, kv); the ridge is added after
            draws["psd"] += 1
            out = psd(t, rng)
            which = ("k1", "k2", "kv")[(draws["psd"] - 1) % 3]
            hit = which == field and (draws["psd"] - 1) // 3 == member
            return bad - (0.1 * np.eye(2) if which != "k1" else 0.0) if hit else out

        monkeypatch.setattr(dpc, "_random_gains", bad_gains)
        monkeypatch.setattr(dpc, "random_psd", bad_psd)
        with pytest.raises(ValueError) as chunked:
            random_instances(2, np.random.default_rng(0), 7)
        layers = {"k1": np.eye(2), "k2": np.eye(2), "kv": np.eye(2)}
        with pytest.raises(ValueError) as alone:
            if field == "gains":
                DpcInstance(make_channel(*bad), **layers)
            else:
                DpcInstance(make_channel(np.eye(2), np.eye(2)), **{**layers, field: bad})
        assert type(chunked.value) is type(alone.value)
        assert str(chunked.value) == str(alone.value)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_dpc_check_prints_the_line_of_separate_draws(self, dim, capsys):
        assert cli.main(["dpc-check", "--seed", "5", "--trials", "1000", "--dim", str(dim)]) == 0
        line = capsys.readouterr().out.strip().rsplit(" (", 1)[0]
        rng = np.random.default_rng(5)
        worst = 0.0
        for start in range(0, 1000, cli.CHECK_CHUNK):
            size = min(cli.CHECK_CHUNK, 1000 - start)
            lhs, _, gap = dpc_identity_check([one_by_one(dim, rng) for _ in range(size)])
            worst = max(worst, float(np.max(gap / (1.0 + np.abs(lhs)))))
        expected = f"dpc-check: 1000 instances (dim {dim}, seed 5), max relative gap = {worst:.3e}"
        assert line == expected


def test_whitening_invariance(rng):
    # Transforming Y1 by the inverse noise square root inside the oracle
    # must not move any mutual information.
    for _ in range(10):
        inst = random_instance(2, rng)
        joint = dpc_joint(inst)
        sigma = np.eye(2) + inst.ch.g1 @ inst.k1 @ inst.ch.g1.T
        evals, vecs = np.linalg.eigh(sigma)
        inv_sqrt = (vecs / np.sqrt(evals)) @ vecs.T
        transformed = joint.apply("y1", inv_sqrt)
        for blocks in [("u", "y1"), ("x2", "y1", "vstar"), ("x", "y1")]:
            a, b = blocks[0], blocks[1]
            c = blocks[2] if len(blocks) > 2 else ()
            before = joint_mi(joint, a, b, c)
            after = joint_mi(transformed, a, b, c)
            assert after == pytest.approx(before, abs=1e-10)


class TestWtcPointCheck:
    def test_zero_kstar(self, example_channel):
        assert wtc_point_check(example_channel, np.zeros((2, 2))) == (0.0, 0.0)

    def test_symmetric_channel(self, rng):
        g = rng.normal(size=(2, 2))
        ch = make_channel(g, g)
        kstar = random_spd(rng, 2)
        achieved, target = wtc_point_check(ch, kstar)
        assert target == pytest.approx(0.0, abs=1e-10)
        assert achieved == pytest.approx(0.0, abs=1e-9)

    def test_example_channel_random_kstar(self, example_channel, rng):
        k = np.diag([6.0, 6.0])
        done = 0
        while done < 30:
            kstar = random_spd(rng, 2, scale=2.0)
            if not psd_leq(kstar, k, 1e-8):
                continue
            achieved, target = wtc_point_check(example_channel, kstar, k)
            assert abs(achieved - target) <= 1e-9
            done += 1

    def test_full_power_uses_unconditional_path(self, example_channel, rng):
        kstar = random_spd(rng, 2)
        achieved, target = wtc_point_check(example_channel, kstar, kstar)
        assert abs(achieved - target) <= 1e-9
