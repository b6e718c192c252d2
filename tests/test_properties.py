"""Property tests of the closed-form wiretap optimum.

Instances are random and ill-conditioned channels with t in {1, 2, 3},
covariance constraints of every rank (so singular K is covered) and
traces from 1e-3 to 1e9.  The brute-force references come from
``tests/oracles.py`` and random sub-covariance samples, evaluated with the
oracles' own determinant formula.

The public entry points are called at full scale: their PSD checks are
relative to the matrix norm, so a singular K of trace 1e9 whose computed
eigenvalues are -1e-7 is accepted.  Rates near trace 1e9 are only as
accurate as float64 log-determinants of I + G K G^T with entries of that
size, so every bound below is 1e-9 plus a rounding term proportional to
eps * tr K * max ||G_j||^2.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from secbc import SubCovParams, compose_sub_cov, make_channel, r1_hat, wtc_capacity
from secbc.regions import _wtc_gevd

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
