import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from secbc import GridSpec, make_channel
from secbc.matops import rotation
from secbc.regions import _kstar_consts, _kstar_rates, _kstar_tails

from oracles import kstar_rates_oracle

EXAMPLE_G1 = [[0.3, 2.5], [2.2, 1.8]]
EXAMPLE_G2 = [[1.3, 1.2], [1.5, 3.9]]


@pytest.fixture
def example_channel():
    return make_channel(EXAMPLE_G1, EXAMPLE_G2)


@pytest.fixture
def scalar_channel():
    return make_channel([[2.0]], [[1.0]])


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def fast_grid():
    """Small but refined grid for tests that do not exercise resolution."""
    return GridSpec(
        theta_steps=16,
        diag_steps=9,
        trace_steps=13,
        chain_theta_steps=8,
        chain_diag_steps=5,
        deep_theta_steps=6,
        deep_diag_steps=4,
        deep_trace_steps=7,
    )


def random_spd(rng, t, scale=1.0, ridge=0.1):
    a = rng.normal(size=(t, t))
    m = scale * (a @ a.T) / t + ridge * np.eye(t)
    return 0.5 * (m + m.T)


def large_singular_covariance():
    """3x3, rank 2, trace 1.2e7, min eigenvalue -3e-9: PSD up to rounding."""
    q, _ = np.linalg.qr(np.random.default_rng(46).normal(size=(3, 3)))
    m = (q * [-3e-9, 4e6, 8e6]) @ q.T
    return 0.5 * (m + m.T)


def kstar_rows(ch, rng, count):
    """Parameter rows (angles, u) of the K* sweep, one of each kind per round:
    u = 0, u on the ball surface (tr K* = p) and u inside the ball."""
    t = ch.t
    m = t * (t - 1) // 2
    rows = []
    for _ in range(count):
        for radius in (0.0, 1.0, rng.uniform(0.05, 0.95)):
            u = rng.normal(size=t)
            angles = rng.uniform(0.0, 2.0 * math.pi, m)
            rows.append(np.concatenate([angles, radius * u / np.linalg.norm(u)]))
    return np.array(rows)


def assert_kstar_rates(ch, p, x, tol):
    """_kstar_rates of rows ``x`` match the rate formulas row by row."""
    t = ch.t
    m = t * (t - 1) // 2
    c = _kstar_consts(ch)
    got = _kstar_rates(ch, c, x[:, :m], _kstar_tails(c, p, x[:, m:]))
    for row, (r1, w) in zip(x, got):
        ref = kstar_rates_oracle(ch.g1, ch.g2, p, rotation(row[:m], t), p * row[m:] ** 2)
        assert abs(r1 - ref[0]) <= tol
        assert abs(w - ref[1]) <= tol
    return got
