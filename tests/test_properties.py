"""Property tests of the closed-form wiretap optimum, the power paths, the
common-message regions and the bound that prunes the innermost envelope
level.

Instances are random and ill-conditioned channels with t in {1, 2, 3},
covariance constraints of every rank (so singular K is covered) and
traces from 1e-3 to 1e9; the power-constrained regions get budgets from
1e-2 to 1e3 and small grids.  The brute-force references come from
``tests/oracles.py`` and random sub-covariance samples, evaluated with the
oracles' own determinant formula.

The public entry points are called at full scale: their PSD checks are
relative to the matrix norm, so a singular K of trace 1e9 whose computed
eigenvalues are -1e-7 is accepted.  Rates near trace 1e9 are only as
accurate as float64 log-determinants of I + G K G^T with entries of that
size, so every bound below is 1e-9 plus a rounding term proportional to
eps * tr K * max ||G_j||^2.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from secbc import (
    EnvelopeWeights,
    GridSpec,
    SubCovParams,
    both_confidential_frontier,
    compose_sub_cov,
    frontier_fixed_cov,
    frontier_power,
    make_channel,
    r1_hat,
    r_common,
    r2_hat,
    region_common_fixed,
    region_common_power,
    v_hat,
    v_tilde,
    wtc_capacity,
    wtc_capacity_power,
)
from secbc import envelopes
from secbc.regions import _wtc_gevd
from secbc.sweeps import top_k_bounded

from conftest import assert_kstar_rates, kstar_rows
from oracles import mi_gauss, wtc_oracle_fixed

EPS = np.finfo(float).eps
SAMPLES = 200  # random sub-covariances per brute-force reference (t != 2)


def _orthogonal(rng, t):
    q, r = np.linalg.qr(rng.normal(size=(t, t)))
    return q * np.sign(np.diag(r))


def _gain(rng, t, spread):
    s = 10.0 ** rng.uniform(-spread, 1.0, t)
    return _orthogonal(rng, t) @ np.diag(s) @ _orthogonal(rng, t).T


@st.composite
def instances(draw):
    """(g1, g2, k, tolerance) of one random wiretap problem."""
    t = draw(st.sampled_from([1, 2, 3]))
    rank = draw(st.integers(0, t))
    spread = draw(st.sampled_from([0.0, 2.0]))  # gain condition up to 1e3
    power = 10.0 ** draw(st.floats(-3.0, 9.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g1, g2 = _gain(rng, t, spread), _gain(rng, t, spread)
    a = rng.normal(size=(t, rank))
    k = a @ a.T
    if rank:
        k *= power / np.trace(k)
    k = 0.5 * (k + k.T)
    gain = max(np.linalg.norm(g1, 2), np.linalg.norm(g2, 2)) ** 2
    tol = 1e-9 + 64.0 * EPS * (1.0 + np.trace(k) * gain)
    return g1, g2, k, tol


def _brute_force(g1, g2, k, rng):
    """Best confidential rate over a grid or sample of K* below k."""
    t = k.shape[0]
    if t == 2:
        return wtc_oracle_fixed(g1, g2, k, 24, 9)
    m = t * (t - 1) // 2
    best = 0.0
    for _ in range(SAMPLES):
        p = SubCovParams(rng.uniform(0.0, 2.0 * np.pi, m), rng.uniform(0.0, 1.0, t))
        ks = compose_sub_cov(k, p)
        best = max(best, mi_gauss(g1, ks) - mi_gauss(g2, ks))
    return best


@settings(max_examples=150, deadline=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_closed_form_beats_brute_force(inst, seed):
    g1, g2, k, tol = inst
    value, _ = wtc_capacity(make_channel(g1, g2), k)
    assert value >= _brute_force(g1, g2, k, np.random.default_rng(seed)) - tol


@settings(max_examples=100, deadline=None)
@given(instances(), st.integers(0, 2**32 - 1), st.floats(-3.0, 9.0))
def test_frontier_corners_never_fall_when_the_constraint_grows(inst, seed, log_trace):
    # max R1 (the wiretap corner) and max R2 (the K* = 0 node at C2(K)) are
    # closed forms, monotone in K, so from K to K' = K + D (D PSD of any
    # rank and trace 1e-3 to 1e9) they may fall only by rounding: at most
    # 1e-9 of 1 + the larger rate
    g1, g2, k, _ = inst
    t = k.shape[0]
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(t, rng.integers(0, t + 1)))
    d = a @ a.T
    if a.shape[1]:
        d *= 10.0**log_trace / np.trace(d)
    ch, grid = make_channel(g1, g2), GridSpec(theta_steps=4, diag_steps=3)
    small, big = (frontier_fixed_cov(ch, m, grid) for m in (k, k + 0.5 * (d + d.T)))
    for lo, hi in ((small.max_r1(), big.max_r1()), (small.max_r2(), big.max_r2())):
        assert hi >= lo - 1e-9 * (1.0 + max(lo, hi))


@settings(max_examples=300, deadline=None)
@given(instances())
def test_maximizer_reverifies_and_stays_below_k(inst):
    g1, g2, k, tol = inst
    ch = make_channel(g1, g2)
    value, kstar = wtc_capacity(ch, k)
    assert value >= 0.0
    # K* <= K up to the rounding of a matrix of K's size
    scale = 1.0 + np.linalg.norm(k, 2)
    assert np.linalg.eigvalsh(k - kstar).min() >= -64.0 * EPS * scale
    assert abs(r1_hat(ch, k, kstar) - value) <= tol


@settings(max_examples=50, deadline=None)
@given(instances())
def test_batch_matches_single_solves(inst):
    g1, g2, k, tol = inst
    ch = make_channel(g1, g2)
    batch = np.stack([k, 0.5 * k, np.zeros_like(k)])
    values, kstars = _wtc_gevd(ch, batch)
    for kb, value, kstar in zip(batch, values, kstars):
        v1, ks1 = _wtc_gevd(ch, kb)
        assert abs(value - v1) <= tol
        assert np.abs(kstar - ks1).max() <= 64.0 * EPS * (1.0 + np.abs(kb).max())


@st.composite
def power_instances(draw):
    """(channel, swapped channel, power, grid, tolerance) of one power problem."""
    t = draw(st.sampled_from([1, 2, 3]))
    spread = draw(st.sampled_from([0.0, 2.0]))  # gain condition up to 1e3
    power = 10.0 ** draw(st.floats(-2.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g1, g2 = _gain(rng, t, spread), _gain(rng, t, spread)
    grid = GridSpec(
        theta_steps=draw(st.integers(2, 4)),
        trace_steps=draw(st.integers(2, 5)),
        refine_iters=draw(st.integers(0, 20)),
    )
    gain = max(np.linalg.norm(g1, 2), np.linalg.norm(g2, 2)) ** 2
    tol = 1e-9 + 64.0 * EPS * (1.0 + power * gain)
    return make_channel(g1, g2), make_channel(g2, g1), power, grid, tol


def _assert_power_generators(k, kstar, power):
    """tr K = power and 0 <= K* <= K, up to rounding of a matrix of K's size."""
    assert abs(np.trace(k) - power) <= 1e-9 * power
    floor = -64.0 * EPS * (1.0 + np.linalg.norm(k, 2))
    assert np.linalg.eigvalsh(kstar).min() >= floor
    assert np.linalg.eigvalsh(k - kstar).min() >= floor


@settings(max_examples=12, deadline=None)
@given(power_instances())
def test_power_frontiers_reverify_from_generators(inst):
    ch, swapped, power, grid, tol = inst
    for p in frontier_power(ch, power, grid).points:
        k, ks = p.gen["k"], p.gen["kstar"]
        _assert_power_generators(k, ks, power)
        assert abs(p.r1 - max(0.0, r1_hat(ch, k, ks))) <= tol
        assert abs(p.r2 - r2_hat(ch, k, ks)) <= tol
    for p in both_confidential_frontier(ch, power, grid).points:
        k, ks = p.gen["k"], p.gen["kstar"]
        _assert_power_generators(k, ks, power)
        assert abs(p.r1 - max(0.0, r1_hat(ch, k, ks))) <= tol
        # receiver 2's rate is kept secret from receiver 1 as well
        r2 = r2_hat(ch, k, ks) - r2_hat(swapped, k, ks)
        assert abs(p.r2 - max(0.0, r2)) <= 2.0 * tol


@settings(max_examples=25, deadline=None)
@given(power_instances(), st.integers(0, 2**32 - 1))
def test_kstar_scores_match_the_rate_formulas(inst, seed):
    ch, _, power, _, tol = inst
    assert_kstar_rates(ch, power, kstar_rows(ch, np.random.default_rng(seed), 3), tol)


@settings(max_examples=25, deadline=None)
@given(power_instances())
def test_wtc_power_value_is_closed_form_of_its_constraint(inst):
    ch, _, power, grid, tol = inst
    value, k, kstar = wtc_capacity_power(ch, power, grid)
    _assert_power_generators(k, kstar, power)
    assert abs(value - wtc_capacity(ch, k)[0]) <= tol


@settings(max_examples=60, deadline=None)
@given(power_instances(), st.integers(0, 2**32 - 1))
def test_no_trace_p_constraint_beats_the_power_corner(inst, seed):
    # the corner is polished from one closed-form start, not taken from a
    # grid, so any constraint of trace p checks it from above
    ch, _, power, _, tol = inst
    rng = np.random.default_rng(seed)
    t = ch.t
    value = wtc_capacity_power(ch, power)[0]
    for rank in range(1, t + 1):
        a = rng.normal(size=(t, rank))
        k = a @ a.T
        k = k * (power / np.trace(k))
        assert wtc_capacity(ch, 0.5 * (k + k.T))[0] <= value + tol


@st.composite
def common_instances(draw):
    """(channel, constraint, grid, tolerance) of one common-message problem."""
    t = draw(st.sampled_from([1, 2, 3]))
    rank = draw(st.integers(1, t))
    spread = draw(st.sampled_from([0.0, 2.0]))  # gain condition up to 1e3
    power = 10.0 ** draw(st.floats(-2.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g1, g2 = _gain(rng, t, spread), _gain(rng, t, spread)
    a = rng.normal(size=(t, rank))
    k = a @ a.T
    k = k * (power / np.trace(k))
    grid = GridSpec(
        chain_theta_steps=draw(st.integers(1, 2)),
        chain_diag_steps=draw(st.integers(2, 3)),
        deep_theta_steps=draw(st.integers(1, 2)),
        deep_diag_steps=draw(st.integers(2, 3)),
        deep_trace_steps=draw(st.integers(2, 5)),
    )
    gain = max(np.linalg.norm(g1, 2), np.linalg.norm(g2, 2)) ** 2
    tol = 1e-9 + 64.0 * EPS * (1.0 + power * gain)
    return make_channel(g1, g2), 0.5 * (k + k.T), grid, tol


@settings(max_examples=60, deadline=None)
@given(common_instances())
def test_common_triples_reverify_from_generators(inst):
    ch, k, grid, tol = inst
    power = float(np.trace(k))
    fronts = [region_common_fixed(ch, k, grid)]
    if ch.t < 3:
        fronts.append(region_common_power(ch, power, grid))
    for fr in fronts:
        for p in fr.points:
            kmat, k1, k2 = p.gen["k"], p.gen["k1"], p.gen["k2"]
            for got, want in zip((p.r0, p.r1, p.r2), r_common(ch, kmat, k1, k2)):
                assert abs(got - max(want, 0.0)) <= tol
            # K2 <= K1 + K2 <= K up to the rounding of a matrix of K's size
            floor = -64.0 * EPS * (1.0 + np.linalg.norm(kmat, 2))
            for low, high in ((0.0, k2), (k2, k1 + k2), (k1 + k2, kmat)):
                assert np.linalg.eigvalsh(high - low).min() >= floor
            assert abs(np.trace(kmat) - power) <= 1e-9 * power


@st.composite
def envelope_instances(draw):
    """(channel, constraint, weights, grid) of one v_hat / v_tilde problem."""
    t = draw(st.sampled_from([1, 2, 3]))
    spread = draw(st.sampled_from([0.0, 2.0]))
    trace = 10.0 ** draw(st.floats(-2.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g1, g2 = _gain(rng, t, spread), _gain(rng, t, spread)
    a = rng.normal(size=(t, t))
    k = a @ a.T + 0.05 * np.eye(t)
    lam2 = draw(st.floats(0.05, 3.0))
    w = EnvelopeWeights(
        lambda0=lam2 + draw(st.floats(0.05, 3.0)),
        lambda1=draw(st.floats(0.05, 3.0)),
        lambda2=lam2,
        eta=draw(st.floats(0.05, 1.95)),
        alpha=draw(st.floats(0.0, 1.0)),
    )
    small = t == 3
    grid = GridSpec(
        chain_theta_steps=draw(st.integers(1, 2 if small else 5)),
        chain_diag_steps=draw(st.integers(2, 3 if small else 6)),
        deep_theta_steps=draw(st.integers(1, 2 if small else 4)),
        deep_diag_steps=draw(st.integers(2, 2 if small else 4)),
        refine_iters=0,
    )
    return make_channel(g1, g2), k * (trace * t / np.trace(k)), w, grid


@settings(max_examples=30, deadline=None)
@given(envelope_instances())
def test_innermost_rows_stay_below_their_bound(inst):
    ch, k, w, grid = inst
    checked = []

    def spy(score, bound, n_cols, top):
        rmax = score(np.arange(len(bound))).max(axis=1)
        assert np.all(rmax <= bound + 1e-9 * (1.0 + np.abs(bound)))
        checked.append(len(bound))
        return top_k_bounded(score, bound, n_cols, top)

    with mock.patch.object(envelopes, "top_k_bounded", spy):
        v_hat(ch, k, w, grid)
        v_tilde(ch, k, w, grid)
    assert len(checked) == 2
