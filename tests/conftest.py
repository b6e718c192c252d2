import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from secbc import GridSpec, make_channel

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
