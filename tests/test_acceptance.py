"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines with wall times.  Tolerances and runtime budgets are fixed here
and not tuned per machine.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from secbc import (
    EnvelopeWeights,
    GridSpec,
    SubCovParams,
    both_confidential_frontier,
    bound_b,
    check_k1_zero,
    compose_sub_cov,
    decompose_sub_cov,
    dpc_identity_check,
    factorization_gap,
    frontier_fixed_cov,
    frontier_power,
    make_channel,
    mi_xy,
    r1_hat,
    r2_hat,
    r_common,
    v_hat,
    wtc_point_check,
)
from secbc.cli import main as cli_main
from secbc.dpc import random_channel, random_instance, random_psd

GOLDEN = Path(__file__).parent / "golden"
EXAMPLE_G1 = [[0.3, 2.5], [2.2, 1.8]]
EXAMPLE_G2 = [[1.3, 1.2], [1.5, 3.9]]


class _Timer:
    def __init__(self, number, name, limit):
        self.number, self.name, self.limit = number, name, limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(
            f"criterion {self.number:2d} [{verdict}] {self.name}: "
            f"{elapsed:.1f} s (limit {self.limit:.0f} s)"
        )
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit} s budget "
                f"({elapsed:.1f} s)"
            )
        return False


@pytest.fixture(scope="module")
def example_channel():
    return make_channel(EXAMPLE_G1, EXAMPLE_G2)


@pytest.fixture(scope="module")
def fig2(example_channel):
    # shared by criteria 3 and 12; computed once at default grids
    start = time.perf_counter()
    fp = frontier_power(example_channel, 12.0)
    fb = both_confidential_frontier(example_channel, 12.0)
    return fp, fb, time.perf_counter() - start


def test_criterion_01_dpc_identity():
    with _Timer(1, "partial-DPC identity", 5.0):
        for t in (1, 2, 3):
            rng = np.random.default_rng(1000 + t)
            for _ in range(100):
                inst = random_instance(t, rng)
                lhs, _, gap = dpc_identity_check(inst)
                assert gap <= 1e-9 * (1.0 + abs(lhs))


def test_criterion_02_wtc_achievability():
    with _Timer(2, "wiretap achievability identity", 5.0):
        rng = np.random.default_rng(2024)
        for i in range(100):
            t = (1, 2, 3)[i % 3]
            ch = random_channel(t, rng)
            kstar = random_psd(t, rng) + 0.05 * np.eye(t)
            k = kstar + random_psd(t, rng) + 0.05 * np.eye(t)
            achieved, target = wtc_point_check(ch, kstar, k)
            assert abs(achieved - target) <= 1e-9


def test_criterion_03_fig2_reproduction(fig2):
    fp, fb, build_time = fig2
    with _Timer(3, "numerical-example regions", 120.0 - build_time):
        golden = json.loads((GOLDEN / "fig2.json").read_text())
        # (a) both regions share the wiretap max R1
        assert abs(fp.max_r1() - fb.max_r1()) <= 5e-3
        assert abs(fp.max_r1() - golden["max_r1_one"]) <= 5e-3
        # (b) the two-confidential frontier lies inside the one-confidential
        # region (5e-3 slack: the covering frontier is a grid approximation)
        for p in fb.points:
            assert fp.r2_available(p.r1, slack=5e-3) >= p.r2 - 5e-3
        # (c) the inclusion is strict by more than 0.05 bits somewhere,
        # at the magnitude recorded by the independent oracle
        gap = max(fp.r2_available(p.r1, slack=1e-9) - p.r2 for p in fb.points)
        assert gap > 0.05
        assert abs(gap - golden["max_gap"]) <= 2.5e-2
        # shape check against the recorded fine-grid staircase
        stair = np.loadtxt(
            GOLDEN / "fig2_frontier.csv", delimiter=",", skiprows=1
        )
        for r1_edge, r2_best in stair:
            assert fp.r2_available(r1_edge, slack=5e-3) >= r2_best - 5e-3


def test_criterion_04_decomposition_roundtrip():
    with _Timer(4, "sub-covariance round trip", 2.0):
        rng = np.random.default_rng(4)
        for t in (2, 3):
            m = t * (t - 1) // 2
            for _ in range(50):
                a = rng.normal(size=(t, t))
                k = a @ a.T + 0.1 * np.eye(t)
                p = SubCovParams(
                    rng.uniform(0, 2 * math.pi, m), rng.uniform(0, 1, t)
                )
                kstar = compose_sub_cov(k, p)
                back = compose_sub_cov(k, decompose_sub_cov(k, kstar))
                assert np.linalg.norm(back - kstar) <= 1e-7


def test_criterion_05_frontier_monotonicity(example_channel):
    with _Timer(5, "frontier monotone in the constraint", 60.0):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.normal(size=(2, 2))
            k = a @ a.T + 0.2 * np.eye(2)
            k *= rng.uniform(4.0, 10.0) / np.trace(k)
            p = SubCovParams(rng.uniform(0, 2 * math.pi, 1), rng.uniform(0, 1, 2))
            kprime = compose_sub_cov(k, p)
            small = frontier_fixed_cov(example_channel, kprime)
            big = frontier_fixed_cov(example_channel, k)
            for pt in small.points:
                assert big.r2_available(pt.r1, slack=5e-3) >= pt.r2 - 5e-3


def test_criterion_06_envelope_convexity_continuity(example_channel):
    with _Timer(6, "envelope eta-convexity and continuity", 60.0):
        cases = [
            (make_channel([[1.0]], [[2.0]]), np.array([[1.5]])),
            (example_channel, np.diag([3.0, 2.0])),
        ]
        etas = [0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7]
        for ch, k in cases:
            vals = {}
            for eta in etas + [1.0, 1.01, 1.1]:
                w = EnvelopeWeights(lambda1=1.0, lambda2=0.7, eta=eta)
                vals[eta] = v_hat(ch, k, w).value
            for lo, mid, hi in zip(etas, etas[1:], etas[2:]):
                assert vals[mid] <= 0.5 * (vals[lo] + vals[hi]) + 1e-6
            assert (
                abs(vals[1.01] - vals[1.0]) <= abs(vals[1.1] - vals[1.0]) + 1e-6
            )


def test_criterion_07_hyperplane_consistency(example_channel):
    with _Timer(7, "supporting-hyperplane consistency", 120.0):
        k = np.diag([3.0, 2.0])
        frontier = frontier_fixed_cov(example_channel, k)
        rng = np.random.default_rng(7)
        for _ in range(10):
            lam1, lam2 = np.exp(rng.uniform(np.log(0.25), np.log(4.0), 2))
            w = EnvelopeWeights(lambda1=lam1, lambda2=lam2, eta=1.0)
            bound = lam2 * mi_xy(example_channel, k, 2) + v_hat(
                example_channel, k, w
            ).value
            fval = max(lam1 * p.r1 + lam2 * p.r2 for p in frontier.points)
            assert fval <= bound + 1e-6
            assert abs(fval - bound) <= 5e-3


def test_criterion_08_factorization_inequality():
    with _Timer(8, "product-channel factorization", 120.0):
        rng = np.random.default_rng(8)
        for mode in ("v", "vhat", "vtilde"):
            for _ in range(10):
                ch_a = random_channel(1, rng)
                ch_b = random_channel(1, rng)
                k_a = [[float(rng.uniform(0.3, 3.0))]]
                k_b = [[float(rng.uniform(0.3, 3.0))]]
                w = EnvelopeWeights(
                    lambda0=2.0,
                    lambda1=float(rng.uniform(0.5, 2.0)),
                    lambda2=float(rng.uniform(0.3, 1.2)),
                    eta=float(rng.uniform(1.05, 1.6)),
                    alpha=float(rng.uniform(0.0, 1.0)),
                )
                product, total = factorization_gap(
                    ch_a, ch_b, k_a, k_b, w, mode=mode
                )
                assert product <= total + 1e-6


def test_criterion_09_boundedness(example_channel):
    with _Timer(9, "closed-form boundedness constant", 2.0):
        rng = np.random.default_rng(9)
        channels = [example_channel, random_channel(2, rng), random_channel(3, rng)]
        w = EnvelopeWeights(lambda1=1.0, lambda2=0.8, eta=1.3)
        for ch in channels:
            b = bound_b(ch, w)
            assert math.isfinite(b)
            for _ in range(50):
                kx = random_psd(ch.t, rng, scale=float(rng.uniform(0.1, 30.0)))
                diff = 2.0 * (
                    w.lambda1 * mi_xy(ch, kx, 1)
                    - (w.lambda1 + w.lambda2) * mi_xy(ch, kx, 2)
                )
                assert diff <= b + 1e-9


def test_criterion_10_common_message_reduction(example_channel):
    with _Timer(10, "common-message slice reduction", 30.0):
        k = np.diag([6.0, 6.0])
        grid = GridSpec()
        from secbc.sweeps import diag_combos, diag_values, theta_values

        dvals = diag_values(grid.chain_diag_steps)
        for ang in theta_values(grid.chain_theta_steps):
            for dc in diag_combos(dvals, 2):
                k2 = compose_sub_cov(k, SubCovParams([ang], dc))
                k1 = k - k2
                r0, r1, r2 = r_common(example_channel, k, k1, k2)
                assert abs(r0) <= 1e-9
                assert abs(r1 - r1_hat(example_channel, k, k2)) <= 1e-9
                assert abs(r2 - r2_hat(example_channel, k, k2)) <= 1e-9


def test_criterion_11_k1_zero_optimality(example_channel):
    with _Timer(11, "artificial-noise layer is unnecessary", 10.0):
        scalar = make_channel([[2.0]], [[1.0]])
        assert check_k1_zero(scalar, [[3.0]], samples=100, seed=11)
        assert check_k1_zero(example_channel, np.diag([6.0, 6.0]), samples=100, seed=11)


def test_criterion_12_determinism(tmp_path, fig2):
    with _Timer(12, "byte-identical reruns", 120.0):
        args = [
            "region",
            "--mode",
            "no-common",
            "--power",
            "12",
            "--g1",
            "0.3,2.5;2.2,1.8",
            "--g2",
            "1.3,1.2;1.5,3.9",
        ]
        outs = []
        for run in range(3):
            out = tmp_path / f"run{run}.csv"
            assert cli_main(args + ["--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]
