import math

import numpy as np
import pytest

from secbc import (
    EnvelopeWeights,
    GridSpec,
    bound_b,
    f_value,
    factorization_gap,
    make_channel,
    mi_xy,
    s_eta,
    t_lambda_eta,
    v_eta,
    v_hat,
    v_tilde,
)

from secbc import envelopes, sweeps
from secbc.matops import half_log2_det, psd_leq, rotation, sqrt_factor
from secbc.sweeps import (
    children_factors,
    diag_combos,
    diag_values_sqrt,
    layered_value_grad,
    rotation_batch,
    spg_max,
    theta_values,
)

from conftest import EXAMPLE_G1, EXAMPLE_G2, random_spd


def scalar_ch(g1, g2):
    return make_channel([[float(g1)]], [[float(g2)]])


def scalar_mi(g, k):
    return 0.5 * math.log2(1.0 + g * g * k)


class TestWeights:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnvelopeWeights(lambda1=-1.0)
        with pytest.raises(ValueError):
            EnvelopeWeights(eta=2.5)
        with pytest.raises(ValueError):
            EnvelopeWeights(alpha=1.5)


class TestSEta:
    def test_zero_input(self, example_channel):
        assert s_eta(example_channel, np.zeros((2, 2)), 1.3) == 0.0

    def test_identical_receivers(self, rng):
        g = rng.normal(size=(2, 2))
        ch = make_channel(g, g)
        kx = random_spd(rng, 2)
        assert s_eta(ch, kx, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_value(self):
        ch = scalar_ch(1.0, 2.0)
        expected = 0.5 * math.log2(5.0) - 0.5 * math.log2(2.0)
        assert s_eta(ch, [[1.0]], 1.0) == pytest.approx(expected, abs=1e-12)


class TestVEta:
    def test_identical_receivers_give_zero(self, rng, fast_grid):
        g = rng.normal(size=(2, 2))
        ch = make_channel(g, g)
        res = v_eta(ch, np.eye(2), 1.5, fast_grid)
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert np.abs(res.argmax_splits[0]).max() <= 1e-6

    def test_scalar_monotone_case(self, fast_grid):
        ch = scalar_ch(1.0, 2.0)
        res = v_eta(ch, [[1.0]], 1.0, fast_grid)
        assert res.value == pytest.approx(0.660964, abs=1e-5)
        assert res.argmax_splits[0][0, 0] == pytest.approx(1.0, abs=1e-5)

    def test_monotone_under_constraint_growth(self, example_channel, rng, fast_grid):
        for _ in range(5):
            k = random_spd(rng, 2, scale=2.0)
            kbig = k + random_spd(rng, 2, ridge=0.0)
            small = v_eta(example_channel, k, 1.2, fast_grid).value
            big = v_eta(example_channel, kbig, 1.2, fast_grid).value
            assert big >= small - 1e-6

    @pytest.mark.parametrize("scale", [3e6, 1e9])
    def test_large_constraint_keeps_the_value(self, example_channel, scale):
        # the optimum has trace about 0.21, far below every nonzero grid node
        small = v_eta(example_channel, 1e3 * np.eye(2), 1.2).value
        large = v_eta(example_channel, scale * np.eye(2), 1.2).value
        assert small == pytest.approx(0.143179, abs=1e-6)
        assert large == pytest.approx(small, abs=1e-9)

    def test_eta_below_one_rejected(self, example_channel, fast_grid):
        with pytest.raises(ValueError):
            v_eta(example_channel, np.eye(2), 0.9, fast_grid)

    def test_continuity_toward_eta_one(self, example_channel, fast_grid):
        k = np.diag([2.0, 1.5])
        base = v_eta(example_channel, k, 1.0, fast_grid).value
        diffs = [
            abs(v_eta(example_channel, k, 1.0 + d, fast_grid).value - base)
            for d in (0.1, 0.05, 0.01)
        ]
        assert diffs[1] <= diffs[0] + 1e-6
        assert diffs[2] <= diffs[1] + 1e-6


def brute_v_eta_scalar(g1, g2, k, eta, n=4001):
    ks = np.linspace(0.0, k, n)
    vals = 0.5 * np.log2(1 + g2 * g2 * ks) - eta * 0.5 * np.log2(1 + g1 * g1 * ks)
    return float(vals.max())


class TestTLambdaEta:
    def test_zero_input(self, example_channel, fast_grid):
        w = EnvelopeWeights(lambda1=1.0, lambda2=0.5, eta=1.2)
        assert t_lambda_eta(
            example_channel, np.zeros((2, 2)), w, fast_grid
        ) == pytest.approx(0.0, abs=1e-9)

    def test_identical_receivers_collapse(self, rng, fast_grid):
        g = rng.normal(size=(2, 2))
        ch = make_channel(g, g)
        kx = random_spd(rng, 2)
        w = EnvelopeWeights(lambda1=1.0, lambda2=0.7, eta=1.3)
        # terms collapse to -lambda2 * I(X;Y1) plus a zero envelope
        expected = -w.lambda2 * mi_xy(ch, kx, 1)
        assert t_lambda_eta(ch, kx, w, fast_grid) == pytest.approx(
            expected, abs=1e-8
        )

    def test_scalar_against_nested_grid_oracle(self, fast_grid):
        g1, g2, kx = 1.0, 2.0, 1.5
        w = EnvelopeWeights(lambda1=1.0, lambda2=0.6, eta=1.2)
        ch = scalar_ch(g1, g2)
        oracle = (
            w.lambda1 * scalar_mi(g1, kx)
            - (w.lambda1 + w.lambda2) * scalar_mi(g2, kx)
            + w.lambda1 * brute_v_eta_scalar(g1, g2, kx, w.eta)
        )
        assert t_lambda_eta(ch, [[kx]], w, fast_grid) == pytest.approx(
            oracle, abs=1e-4
        )


def brute_v_hat_scalar(g1, g2, k, w, n=301):
    ksum = np.linspace(0.0, k, n)
    best = -np.inf
    for s in ksum:
        inner = np.linspace(0.0, s, n)
        svals = 0.5 * np.log2(1 + g2 * g2 * inner) - w.eta * 0.5 * np.log2(
            1 + g1 * g1 * inner
        )
        val = (
            w.lambda1 * scalar_mi(g1, s)
            - (w.lambda1 + w.lambda2) * scalar_mi(g2, s)
            + w.lambda1 * float(svals.max())
        )
        best = max(best, val)
    return best


class TestVHat:
    def test_identical_receivers_zero_at_heavy_penalty(self, rng, fast_grid):
        g = rng.normal(size=(2, 2))
        ch = make_channel(g, g)
        w = EnvelopeWeights(lambda1=0.5, lambda2=50.0, eta=1.4)
        res = v_hat(ch, np.eye(2), w, fast_grid)
        assert res.value == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize(
        "g1,g2", [(1.0, 2.0), (2.0, 1.0), (0.7, 0.9)]
    )
    def test_scalar_against_2d_grid_oracle(self, g1, g2, fast_grid):
        w = EnvelopeWeights(lambda1=1.0, lambda2=0.8, eta=1.15)
        ch = scalar_ch(g1, g2)
        res = v_hat(ch, [[2.0]], w, fast_grid)
        oracle = brute_v_hat_scalar(g1, g2, 2.0, w)
        assert res.value == pytest.approx(oracle, abs=1e-4)
        k1, k2 = res.argmax_splits
        assert k1[0, 0] >= -1e-9 and k2[0, 0] >= -1e-9
        assert k1[0, 0] + k2[0, 0] <= 2.0 + 1e-8

    def test_monotone_under_constraint_growth(self, example_channel, rng, fast_grid):
        w = EnvelopeWeights(lambda1=1.0, lambda2=0.7, eta=1.2)
        for _ in range(3):
            k = random_spd(rng, 2, scale=1.5)
            kbig = k + random_spd(rng, 2, ridge=0.0)
            assert (
                v_hat(example_channel, kbig, w, fast_grid).value
                >= v_hat(example_channel, k, w, fast_grid).value - 1e-6
            )

    def test_large_constraint_keeps_the_value(self, example_channel):
        w = EnvelopeWeights(lambda1=1.0, lambda2=0.8, eta=1.2)
        small = v_hat(example_channel, 1e3 * np.eye(2), w).value
        large = v_hat(example_channel, 1e9 * np.eye(2), w).value
        assert large == pytest.approx(small, abs=1e-3)

    def test_eta_midpoint_convexity_small(self, example_channel, fast_grid):
        w = lambda e: EnvelopeWeights(lambda1=1.0, lambda2=0.7, eta=e)
        k = np.diag([2.0, 1.5])
        vals = {
            e: v_hat(example_channel, k, w(e), fast_grid).value
            for e in (0.5, 0.9, 1.3)
        }
        assert vals[0.9] <= 0.5 * (vals[0.5] + vals[1.3]) + 1e-6


def brute_f_scalar(g1, g2, k, w, n=101):
    best = -np.inf
    abar = 1.0 - w.alpha
    outer = (w.lambda2 - abar * w.lambda0) * scalar_mi(g2, k) - (
        w.alpha * w.lambda0
    ) * scalar_mi(g1, k)
    ksum = np.linspace(0.0, k, n)
    for s in ksum:
        inner = np.linspace(0.0, s, n)
        svals = 0.5 * np.log2(1 + g2 * g2 * inner) - w.eta * 0.5 * np.log2(
            1 + g1 * g1 * inner
        )
        val = (
            w.lambda1 * scalar_mi(g1, s)
            - (w.lambda1 + w.lambda2) * scalar_mi(g2, s)
            + w.lambda1 * float(svals.max())
        )
        best = max(best, val)
    return outer + best


class TestFValue:
    def test_zero_input(self, example_channel, fast_grid):
        w = EnvelopeWeights(lambda0=2.0, lambda1=1.0, lambda2=0.5, eta=1.2, alpha=0.3)
        assert f_value(example_channel, np.zeros((2, 2)), w, fast_grid) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_weight_precondition(self, example_channel, fast_grid):
        w = EnvelopeWeights(lambda0=0.5, lambda1=1.0, lambda2=0.8, eta=1.2)
        with pytest.raises(ValueError):
            f_value(example_channel, np.eye(2), w, fast_grid)

    def test_term_assembly_alpha_one(self, example_channel, fast_grid):
        # alpha = 1: the objective is lambda2*I2 - lambda0*I1 + level-2 term
        w = EnvelopeWeights(lambda0=2.0, lambda1=1.0, lambda2=0.5, eta=1.2, alpha=1.0)
        kx = np.diag([1.5, 1.0])
        direct = (
            w.lambda2 * mi_xy(example_channel, kx, 2)
            - w.lambda0 * mi_xy(example_channel, kx, 1)
            + v_hat(example_channel, kx, w, fast_grid).value
        )
        assert f_value(example_channel, kx, w, fast_grid) == pytest.approx(
            direct, abs=1e-9
        )

    def test_scalar_against_3d_grid_oracle(self, fast_grid):
        w = EnvelopeWeights(lambda0=2.0, lambda1=1.0, lambda2=0.6, eta=1.25, alpha=0.4)
        ch = scalar_ch(1.3, 0.9)
        got = f_value(ch, [[1.5]], w, fast_grid)
        assert got == pytest.approx(brute_f_scalar(1.3, 0.9, 1.5, w), abs=1e-3)


class TestVTilde:
    def test_degenerate_constraint(self, example_channel, fast_grid):
        w = EnvelopeWeights(lambda0=2.0, lambda1=1.0, lambda2=0.5, eta=1.2, alpha=0.4)
        res = v_tilde(example_channel, np.zeros((2, 2)), w, fast_grid)
        assert res.value == pytest.approx(0.0, abs=1e-9)
        for split in res.argmax_splits:
            assert np.abs(split).max() <= 1e-8

    def test_refinement_monotone_scalar(self):
        w = EnvelopeWeights(lambda0=1.5, lambda1=1.0, lambda2=0.5, eta=1.2, alpha=0.6)
        ch = scalar_ch(1.8, 1.1)
        coarse = GridSpec(deep_theta_steps=1, deep_diag_steps=5)
        fine = GridSpec(deep_theta_steps=1, deep_diag_steps=9)
        vc = v_tilde(ch, [[2.0]], w, coarse).value
        vf = v_tilde(ch, [[2.0]], w, fine).value
        assert vf >= vc - 1e-9

    def test_monotone_under_constraint_growth(self, example_channel, rng, fast_grid):
        w = EnvelopeWeights(lambda0=2.0, lambda1=1.0, lambda2=0.5, eta=1.2, alpha=0.4)
        k = random_spd(rng, 2, scale=1.0)
        kbig = k + random_spd(rng, 2, ridge=0.0)
        assert (
            v_tilde(example_channel, kbig, w, fast_grid).value
            >= v_tilde(example_channel, k, w, fast_grid).value - 1e-6
        )

    def test_alpha_linear_at_fixed_splits(self, example_channel, fast_grid):
        # at fixed splits the objective is affine in alpha
        w0 = EnvelopeWeights(lambda0=2.0, lambda1=1.0, lambda2=0.5, eta=1.2, alpha=0.0)
        k = np.diag([2.0, 1.0])
        res = v_tilde(example_channel, k, w0, fast_grid)
        k1, k2, k3 = res.argmax_splits

        def layered(alpha):
            w = EnvelopeWeights(
                lambda0=2.0, lambda1=1.0, lambda2=0.5, eta=1.2, alpha=alpha
            )
            k123 = k1 + k2 + k3
            k12 = k1 + k2
            abar = 1.0 - alpha
            return (
                (w.lambda2 - abar * w.lambda0) * mi_xy(example_channel, k123, 2)
                - alpha * w.lambda0 * mi_xy(example_channel, k123, 1)
                + w.lambda1 * mi_xy(example_channel, k12, 1)
                - (w.lambda1 + w.lambda2) * mi_xy(example_channel, k12, 2)
                + w.lambda1
                * (
                    mi_xy(example_channel, k1, 2)
                    - w.eta * mi_xy(example_channel, k1, 1)
                )
            )

        lo, hi = layered(0.0), layered(1.0)
        for alpha in (0.25, 0.5, 0.75):
            assert layered(alpha) == pytest.approx(
                (1 - alpha) * lo + alpha * hi, abs=1e-10
            )


def _h(ch, k):
    return mi_xy(ch, k, 1), mi_xy(ch, k, 2)


def layered_objective(level, ch, splits, w):
    """The level's functional at explicit splits, from ``mi_xy`` alone."""
    h1, h2 = _h(ch, splits[0])
    if level == "v_eta":
        return h2 - w.eta * h1
    val = w.lambda1 * (h2 - w.eta * h1)
    o1, o2 = _h(ch, splits[0] + splits[1])
    val += w.lambda1 * o1 - (w.lambda1 + w.lambda2) * o2
    if level == "v_tilde":
        o1, o2 = _h(ch, splits[0] + splits[1] + splits[2])
        abar = 1.0 - w.alpha
        val += (w.lambda2 - abar * w.lambda0) * o2 - w.alpha * w.lambda0 * o1
    return val


class TestT3Grids:
    """A t = 3 envelope sweeps one rotation per class, refined or not: the
    polish is equivariant under V -> V P S, so a dropped duplicate would
    follow the same path in K; its grid maximum is the full lattice's."""

    W = EnvelopeWeights(lambda0=2.0, lambda1=1.0, lambda2=0.8, eta=1.2, alpha=0.5)

    @pytest.mark.parametrize("refine,eta_nodes,hat_nodes", [(5, 14, 1), (0, 14, 1)])
    def test_refined_grids_keep_the_lattice(self, rng, refine, eta_nodes, hat_nodes):
        # the 8-step lattice keeps 14 of 512 rotations, the 4-step one 1 of 64
        ch = make_channel(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
        k = random_spd(rng, 3, scale=3.0)
        grid = GridSpec(theta_steps=8, diag_steps=3, chain_theta_steps=4, chain_diag_steps=2,
                        refine_iters=refine)
        assert v_eta(ch, k, 1.2, grid).grid_meta["grid_nodes"] == eta_nodes * 27
        assert v_hat(ch, k, self.W, grid).grid_meta["grid_nodes"] == (hat_nodes * 8) ** 2

    @pytest.mark.parametrize("steps", [4, 6, 8])
    def test_grid_maximum_is_the_lattice_maximum(self, rng, steps):
        ch = make_channel(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
        k = random_spd(rng, 3, scale=3.0)
        tuples = diag_combos(theta_values(steps), 3)
        combos = diag_combos(diag_values_sqrt(3), 3)
        factors = children_factors(sqrt_factor(k)[None], rotation_batch(tuples, 3), combos)
        h1, h2 = (half_log2_det(g, factors=factors) for g in (ch.g1, ch.g2))
        grid = GridSpec(theta_steps=steps, diag_steps=3, refine_iters=0)
        res = v_eta(ch, k, 1.2, grid)
        assert res.grid_meta["grid_nodes"] < len(tuples) * len(combos)
        assert res.value == pytest.approx((h2 - 1.2 * h1).max(), abs=1e-12)


class TestArgmaxReevaluation:
    """Each value is its level's functional at the returned splits."""

    W = EnvelopeWeights(lambda0=0.7, lambda1=1.0, lambda2=0.6, eta=1.3, alpha=0.2)
    GRID = GridSpec(
        theta_steps=4,
        diag_steps=3,
        chain_theta_steps=3,
        chain_diag_steps=3,
        deep_theta_steps=2,
        deep_diag_steps=2,
        refine_iters=20,
    )

    @pytest.mark.parametrize("level", ["v_eta", "v_hat", "v_tilde"])
    @pytest.mark.parametrize("t", [2, 3])
    def test_value_at_splits(self, level, t):
        if t == 2:
            ch, k = make_channel(EXAMPLE_G1, EXAMPLE_G2), np.diag([3.0, 2.0])
        else:
            rng = np.random.default_rng(31)
            ch = make_channel(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
            k = random_spd(rng, 3, scale=2.0)
        if level == "v_eta":
            res = v_eta(ch, k, self.W.eta, self.GRID)
        else:
            res = {"v_hat": v_hat, "v_tilde": v_tilde}[level](ch, k, self.W, self.GRID)
        splits = res.argmax_splits
        assert len(splits) == {"v_eta": 1, "v_hat": 2, "v_tilde": 3}[level]
        zero = np.zeros((t, t))
        for split in splits:
            assert psd_leq(zero, split)
        assert psd_leq(sum(splits), k)
        again = layered_objective(level, ch, splits, self.W)
        assert res.value == pytest.approx(again, abs=1e-9)


def random_chain(rng, count, levels, t, scale=0.8):
    """``count`` chains of ``levels`` random contractions (t, t)."""
    cs = rng.normal(size=(count, levels, t, t))
    return scale * cs / np.linalg.norm(cs, 2, axis=(-2, -1))[..., None, None]


def singular_spd(rng, t):
    """A PSD matrix of rank t - 1 (zero at t = 1)."""
    a = rng.normal(size=(t, t - 1))
    return a @ a.T


class TestProjectedGradient:
    """The polish of the layered objective over contraction chains."""

    def problem(self, rng, t, levels, k=None):
        ch = make_channel(rng.normal(size=(t, t)), rng.normal(size=(t, t)))
        k = random_spd(rng, t, scale=2.0) if k is None else k
        weights = rng.uniform(-1.5, 1.5, size=(levels, 2))
        gains = np.stack([ch.g1, ch.g2])
        return layered_value_grad(gains, sqrt_factor(k), weights)

    @pytest.mark.parametrize("levels", [1, 2, 3])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_gradient_matches_central_differences(self, rng, t, levels):
        for k in (None, singular_spd(rng, t)):
            value_grad = self.problem(rng, t, levels, k)
            cs = random_chain(rng, 2, levels, t)
            _, grad = value_grad(cs)
            step = 1e-6
            numeric = np.empty(cs.shape)
            for idx in np.ndindex(cs.shape[1:]):
                probe = np.zeros(cs.shape[1:])
                probe[idx] = step
                up, down = value_grad(cs + probe)[0], value_grad(cs - probe)[0]
                numeric[(slice(None),) + idx] = (up - down) / (2 * step)
            assert np.abs(grad - numeric).max() <= 1e-7 * (1.0 + np.abs(grad).max())

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_chain_raises(self, rng, bad):
        # the values share half_log2_det's positive-and-finite check
        value_grad = self.problem(rng, 2, 2)
        cs = random_chain(rng, 3, 2, 2)
        cs[1, 0, 0, 1] = bad
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(FloatingPointError):
            value_grad(cs)

    @staticmethod
    def full_svd_clip(cs):
        """The projection with an SVD of every matrix."""
        u, s, vh = np.linalg.svd(cs)
        over = s[..., 0] > 1.0
        if not over.any():
            return cs
        out = cs.copy()
        out[over] = (u[over] * np.minimum(s[over], 1.0)[:, None, :]) @ vh[over]
        return out

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_projection_equals_the_full_svd_clip(self, rng, t):
        # rank-one matrices at sigma = 1 and one ulp either side, matrices
        # with ||C||_F^2 within 1e-9 of 1, and random stacks around the ball
        edge = []
        for sigma in (1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)):
            u, v = rng.normal(size=(2, t))
            edge.append(sigma * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v)))
        for delta in (-2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9):
            c = rng.normal(size=(t, t))
            edge.append(c * math.sqrt((1.0 + delta) / (c * c).sum()))
        edge = np.array(edge)
        mixed = edge[rng.permutation(len(edge))][:9].reshape(3, 3, t, t)
        stacks = [edge, edge.reshape(-1, 1, t, t), mixed]
        for scale in (0.3, 0.9, 1.1, 3.0):
            stacks.append(rng.normal(size=(6, 3, t, t)) * rng.uniform(0.1, scale, size=(6, 3, 1, 1)))
            stacks.append(np.concatenate([stacks[-1].reshape(-1, t, t), edge]))
        for cs in stacks:
            got = envelopes._contract(cs)
            assert got.shape == cs.shape and got.tobytes() == self.full_svd_clip(cs).tobytes()
        # a NaN entry reaches the SVD, which refuses it
        edge[0, 0, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            envelopes._contract(edge)

    def test_backtrack_divides_as_numpy(self):
        # the quadratic backtrack on Python floats against the clipped numpy
        # quotient it replaced, zero and non-finite drops included
        cases = [(1.0, 2.0, 0.5), (0.5, 1e-3, 3.0), (1.0, 2.0, 0.0), (1.0, 2.0, -0.0),
                 (0.25, 0.0, 0.0), (1.0, math.nan, 1.0), (1.0, 2.0, math.nan),
                 (1.0, 2.0, math.inf), (1.0, 2.0, -1.0), (1e-300, 1e300, 1e-300),
                 (1.0, 1e308, 1e-308), (1.0, math.inf, 0.0)]
        for step, slope, drop in cases:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                quad = np.float64(step) * step * slope / (2.0 * np.float64(drop))
                want = np.clip(np.nan_to_num(quad, nan=0.0), 0.1 * step, 0.5 * step)
            got = sweeps._backtrack(step, slope, drop)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (step, slope, drop)

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_projection_is_a_contraction_and_idempotent(self, rng, t):
        cs = rng.normal(size=(6, 3, t, t)) * rng.uniform(0.1, 5.0, size=(6, 3, 1, 1))
        once = envelopes._contract(cs)
        assert np.linalg.norm(once, 2, axis=(-2, -1)).max() <= 1.0 + 1e-12
        inside = np.linalg.norm(cs, 2, axis=(-2, -1)) <= 1.0
        assert once[inside].tobytes() == cs[inside].tobytes()
        assert np.abs(envelopes._contract(once) - once).max() <= 1e-14

    def polish(self, value_grad, starts):
        return spg_max(value_grad, envelopes._contract, starts, 1000)

    @pytest.mark.parametrize("t", [2, 3])
    def test_rotation_class_duplicates_reach_the_same_value(self, rng, t):
        # V -> V P S on the innermost level is C_L -> C_L P S, and any
        # orthogonal R gives the same chain of Grams as (C_l R, R^T C_{l+1})
        levels = 3
        value_grad = self.problem(rng, t, levels)
        starts = random_chain(rng, 4, levels, t)
        ps = np.eye(t)[rng.permutation(t)] * rng.choice([-1.0, 1.0], size=t)
        turned = starts.copy()
        turned[:, -1] = turned[:, -1] @ ps
        r = rotation(rng.uniform(0.0, 2 * math.pi, t * (t - 1) // 2), t)
        mixed = starts.copy()
        mixed[:, 0] = mixed[:, 0] @ r
        mixed[:, 1] = r.T @ mixed[:, 1]
        _, want, _, _ = self.polish(value_grad, starts)
        for other in (turned, mixed):
            _, got, _, _ = self.polish(value_grad, other)
            assert np.abs(got - want).max() <= 1e-12

    def test_each_start_takes_the_steps_it_takes_alone(self, rng):
        value_grad = self.problem(rng, 3, 3)
        starts = random_chain(rng, 5, 3, 3)
        x, _, _, used = self.polish(value_grad, starts)
        for i in range(len(starts)):
            alone, _, _, steps = self.polish(value_grad, starts[i : i + 1])
            assert alone.tobytes() == x[i : i + 1].tobytes() and steps[0] == used[i]

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_every_returned_chain_is_ordered(self, rng, t):
        w = EnvelopeWeights(lambda0=2.0, lambda1=1.0, lambda2=0.8, eta=1.2, alpha=0.5)
        grid = GridSpec(theta_steps=8, diag_steps=5, chain_theta_steps=4,
                        chain_diag_steps=3, deep_theta_steps=4, deep_diag_steps=2)
        ch = make_channel(rng.normal(size=(t, t)), rng.normal(size=(t, t)))
        for k in (random_spd(rng, t, scale=2.0), 1e6 * random_spd(rng, t), singular_spd(rng, t)):
            for res in (v_eta(ch, k, w.eta, grid), v_hat(ch, k, w, grid),
                        v_tilde(ch, k, w, grid)):
                chain = np.cumsum(res.argmax_splits, axis=0)  # K_L, K_{L-1}, ..., K_1
                below = np.concatenate([np.zeros((1, t, t)), chain])
                above = np.concatenate([chain, k[None]])
                assert np.all(psd_leq(below, above))


def brute_v_tilde_scalar(g1, g2, k, w, n=200001):
    """Scalar level-3 maximum by nested running maxima on a dense grid.

    With 0 <= k1 <= k12 <= k123 <= k the layered objective separates into
    A(k123) + B(k12) + C(k1), so the triple maximum is a cumulative max of
    C, added to B, cumulative max again, added to A.
    """
    xs = np.linspace(0.0, k, n)
    c1 = 0.5 * np.log2(1 + g1 * g1 * xs)
    c2 = 0.5 * np.log2(1 + g2 * g2 * xs)
    abar = 1.0 - w.alpha
    a = (w.lambda2 - abar * w.lambda0) * c2 - w.alpha * w.lambda0 * c1
    b = w.lambda1 * c1 - (w.lambda1 + w.lambda2) * c2
    c = w.lambda1 * (c2 - w.eta * c1)
    return float(np.max(a + np.maximum.accumulate(b + np.maximum.accumulate(c))))


class TestVTildeTinySplits:
    """A scalar optimum at k123 ~ 0.023, below the first nonzero grid node."""

    GA = (2.636316851362973, 1.1503208079067702)
    GB = (2.91386674788965, 2.900355618172444)
    KA, KB = 0.8818900033421035, 0.5102698242844474
    W = EnvelopeWeights(
        lambda0=1.4653366606987612,
        lambda1=1.0,
        lambda2=0.9898295890574751,
        eta=1.4265499875347296,
        alpha=0.4089569203770177,
    )

    def test_matches_dense_oracle(self):
        oracle = brute_v_tilde_scalar(*self.GA, self.KA, self.W)
        assert oracle > 2e-3
        res = v_tilde(scalar_ch(*self.GA), [[self.KA]], self.W)
        assert res.value == pytest.approx(oracle, abs=1e-6)
        assert sum(s[0, 0] for s in res.argmax_splits) <= self.KA + 1e-9

    def test_factorization_holds(self):
        product, total = factorization_gap(
            scalar_ch(*self.GA), scalar_ch(*self.GB), [[self.KA]], [[self.KB]],
            self.W, mode="vtilde",
        )
        assert product <= total + 1e-6


class TestBoundB:
    def test_scalar_identical_gains_is_tight_zero(self):
        # with g1 = g2 = 1 the doubled difference is -2*lam2*I(X;Y1) <= 0
        # with supremum 0 at the zero input; the closed form is tight
        ch = scalar_ch(1.0, 1.0)
        w = EnvelopeWeights(lambda1=1.0, lambda2=0.7, eta=1.2)
        assert bound_b(ch, w) == pytest.approx(0.0, abs=1e-12)

    def test_finite_on_random_channels(self, rng):
        from secbc.dpc import random_channel

        w = EnvelopeWeights(lambda1=0.8, lambda2=1.3, eta=1.4)
        for t in (1, 2, 3):
            for _ in range(10):
                ch = random_channel(t, rng)
                assert math.isfinite(bound_b(ch, w))

    def test_bounds_doubled_difference(self, example_channel, rng):
        w = EnvelopeWeights(lambda1=1.0, lambda2=0.9, eta=1.2)
        b = bound_b(example_channel, w)
        for _ in range(50):
            kx = random_spd(rng, 2, scale=rng.uniform(0.1, 20.0), ridge=0.0)
            diff = 2.0 * (
                w.lambda1 * mi_xy(example_channel, kx, 1)
                - (w.lambda1 + w.lambda2) * mi_xy(example_channel, kx, 2)
            )
            assert diff <= b + 1e-9


class TestFactorization:
    def test_identical_scalar_channels(self, fast_grid):
        ch = scalar_ch(1.0, 1.7)
        w = EnvelopeWeights(lambda1=1.0, lambda2=0.8, eta=1.2)
        single = v_eta(ch, [[1.0]], w.eta, fast_grid).value
        product, total = factorization_gap(
            ch, ch, [[1.0]], [[1.0]], w, fast_grid, mode="v"
        )
        assert total == pytest.approx(2.0 * single, abs=1e-9)
        assert product <= 2.0 * single + 1e-6

    def test_zero_summand_channel(self, rng, fast_grid):
        g = rng.normal(size=(1, 1))
        dead = make_channel(g, g)  # identical receivers: zero envelope
        live = scalar_ch(0.9, 1.8)
        w = EnvelopeWeights(lambda1=1.0, lambda2=0.8, eta=1.2)
        product, total = factorization_gap(
            dead, live, [[1.0]], [[1.5]], w, fast_grid, mode="v"
        )
        live_only = v_eta(live, [[1.5]], w.eta, fast_grid).value
        assert total == pytest.approx(live_only, abs=1e-8)
        assert product <= live_only + 1e-6

    def test_blockdiag_additivity_oracle(self, fast_grid):
        # evaluating the product objective at the block-diagonal splice of
        # the single-channel optimizers reproduces the sum exactly
        cha = scalar_ch(1.0, 1.6)
        chb = scalar_ch(1.4, 0.8)
        w = EnvelopeWeights(lambda1=1.0, lambda2=0.8, eta=1.2)
        ra = v_eta(cha, [[1.0]], w.eta, fast_grid)
        rb = v_eta(chb, [[2.0]], w.eta, fast_grid)
        chp = make_channel(
            np.diag([cha.g1[0, 0], chb.g1[0, 0]]),
            np.diag([cha.g2[0, 0], chb.g2[0, 0]]),
        )
        ks = np.diag([ra.argmax_splits[0][0, 0], rb.argmax_splits[0][0, 0]])
        spliced = s_eta(chp, ks, w.eta)
        assert spliced == pytest.approx(ra.value + rb.value, abs=1e-10)

    def test_invalid_mode(self, fast_grid):
        ch = scalar_ch(1.0, 1.5)
        w = EnvelopeWeights()
        with pytest.raises(ValueError):
            factorization_gap(ch, ch, [[1.0]], [[1.0]], w, fast_grid, mode="bad")
