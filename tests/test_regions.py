import json
import math
from pathlib import Path

import numpy as np
import pytest

from secbc import (
    RatePoint,
    RateTriple,
    SubCovParams,
    augment_trace,
    both_confidential_frontier,
    check_k1_zero,
    compose_sub_cov,
    frontier_fixed_cov,
    frontier_power,
    make_channel,
    mi_xy,
    pareto_filter_pairs,
    pareto_filter_triples,
    psd_leq,
    r1_hat,
    r2_hat,
    r_common,
    region_common_fixed,
    region_common_power,
    wtc_capacity,
)
from secbc.sweeps import diag_combos, diag_values, theta_tuple_grid

from conftest import random_spd

GOLDEN = Path(__file__).parent / "golden"


class TestParetoFilters:
    def test_pairs_drop_dominated(self):
        pts = [RatePoint(1.0, 1.0), RatePoint(0.5, 0.5), RatePoint(0.2, 2.0)]
        kept = pareto_filter_pairs(pts)
        assert [(p.r1, p.r2) for p in kept] == [(0.2, 2.0), (1.0, 1.0)]

    def test_pairs_idempotent(self, rng):
        pts = [RatePoint(a, b) for a, b in rng.uniform(0, 3, size=(500, 2))]
        once = pareto_filter_pairs(pts)
        twice = pareto_filter_pairs(once)
        assert [(p.r1, p.r2) for p in once] == [(p.r1, p.r2) for p in twice]

    def test_pairs_no_mutual_domination(self, rng):
        pts = [RatePoint(a, b) for a, b in rng.uniform(0, 3, size=(300, 2))]
        kept = pareto_filter_pairs(pts)
        for i, p in enumerate(kept):
            for q in kept[i + 1 :]:
                dominates = (
                    q.r1 >= p.r1 and q.r2 >= p.r2
                    and (q.r1 > p.r1 + 1e-9 or q.r2 > p.r2 + 1e-9)
                )
                assert not dominates

    def test_triples_idempotent(self, rng):
        pts = [RateTriple(a, b, c) for a, b, c in rng.uniform(0, 2, size=(400, 3))]
        once = pareto_filter_triples(pts)
        twice = pareto_filter_triples(once)
        assert [(p.r0, p.r1, p.r2) for p in once] == [
            (p.r0, p.r1, p.r2) for p in twice
        ]


class TestFrontierFixedCov:
    def test_zero_constraint(self, example_channel):
        fr = frontier_fixed_cov(example_channel, np.zeros((2, 2)))
        assert len(fr.points) == 1
        assert fr.points[0].r1 == 0.0 and fr.points[0].r2 == 0.0

    def test_symmetric_channel_collapses_to_axis(self, rng, fast_grid):
        g = rng.normal(size=(2, 2))
        ch = make_channel(g, g)
        k = np.diag([3.0, 2.0])
        fr = frontier_fixed_cov(ch, k, fast_grid)
        assert fr.max_r1() <= 1e-9
        assert fr.max_r2() == pytest.approx(mi_xy(ch, k, 2), abs=1e-9)

    def test_scalar_endpoint(self, fast_grid):
        ch = make_channel([[2.0]], [[1.0]])
        fr = frontier_fixed_cov(ch, [[1.0]], fast_grid)
        assert fr.max_r1() == pytest.approx(0.660964, abs=1e-5)
        best = max(fr.points, key=lambda p: p.r1)
        assert best.gen["kstar"][0, 0] == pytest.approx(1.0, abs=1e-4)

    def test_corner_consistency(self, example_channel):
        k = np.diag([6.0, 6.0])
        fr = frontier_fixed_cov(example_channel, k)
        value, _ = wtc_capacity(example_channel, k)
        assert abs(fr.max_r1() - value) <= 1e-6
        assert fr.max_r2() == pytest.approx(mi_xy(example_channel, k, 2), abs=1e-12)

    def test_points_reverify_from_generators(self, example_channel):
        k = np.diag([6.0, 6.0])
        fr = frontier_fixed_cov(example_channel, k)
        for p in fr.points[:: max(1, len(fr.points) // 10)]:
            r1 = max(0.0, r1_hat(example_channel, p.gen["k"], p.gen["kstar"]))
            r2 = r2_hat(example_channel, p.gen["k"], p.gen["kstar"])
            assert p.r1 == pytest.approx(r1, abs=1e-9)
            assert p.r2 == pytest.approx(r2, abs=1e-9)


class TestWtcCapacity:
    def test_symmetric_channel(self, rng):
        g = rng.normal(size=(2, 2))
        ch = make_channel(g, g)
        value, kstar = wtc_capacity(ch, np.eye(2))
        assert value <= 1e-9

    def test_scalar(self):
        ch = make_channel([[2.0]], [[1.0]])
        value, kstar = wtc_capacity(ch, [[1.0]])
        assert value == pytest.approx(0.660964, abs=1e-5)
        assert kstar[0, 0] == pytest.approx(1.0, abs=1e-4)

    def test_against_recorded_golden(self, example_channel):
        golden = json.loads((GOLDEN / "wtc_fixed.json").read_text())
        value, _ = wtc_capacity(example_channel, np.asarray(golden["k"]))
        # the golden is an unrefined 4x-resolution grid value
        assert value >= golden["value"] - 1e-9
        assert value <= golden["value"] + 5e-3


class TestAugmentTrace:
    def test_already_at_budget(self, rng):
        k = random_spd(rng, 2)
        k *= 5.0 / np.trace(k)
        assert np.allclose(augment_trace(k, 5.0), k)

    def test_zero_matrix(self):
        out = augment_trace(np.zeros((3, 3)), 12.0)
        assert np.allclose(out, np.diag([12.0, 0.0, 0.0]))

    def test_dominates_and_grows_frontier(self, example_channel, rng, fast_grid):
        kprime = random_spd(rng, 2, scale=2.0)
        full = augment_trace(kprime, 10.0)
        assert psd_leq(kprime, full, 1e-9)
        small = frontier_fixed_cov(example_channel, kprime, fast_grid)
        big = frontier_fixed_cov(example_channel, full, fast_grid)
        for p in small.points:
            assert big.r2_available(p.r1, slack=5e-3) >= p.r2 - 5e-3

    def test_trace_overflow(self):
        with pytest.raises(ValueError):
            augment_trace(np.eye(2), 1.0)


class TestFrontierPower:
    def test_zero_power(self, example_channel):
        fr = frontier_power(example_channel, 0.0)
        assert len(fr.points) == 1 and fr.points[0].r1 == 0.0

    def test_scalar_equals_fixed(self, fast_grid):
        ch = make_channel([[2.0]], [[1.0]])
        fp = frontier_power(ch, 1.0, fast_grid)
        ff = frontier_fixed_cov(ch, [[1.0]], fast_grid)
        assert fp.max_r1() == pytest.approx(ff.max_r1(), abs=1e-9)
        assert fp.max_r2() == pytest.approx(ff.max_r2(), abs=1e-9)

    def test_points_reverify_from_generators(self, example_channel, fast_grid):
        fr = frontier_power(example_channel, 6.0, fast_grid)
        for p in fr.points[:: max(1, len(fr.points) // 10)]:
            r1 = max(0.0, r1_hat(example_channel, p.gen["k"], p.gen["kstar"]))
            r2 = r2_hat(example_channel, p.gen["k"], p.gen["kstar"])
            assert p.r1 == pytest.approx(r1, abs=1e-9)
            assert p.r2 == pytest.approx(r2, abs=1e-9)
            assert np.trace(p.gen["k"]) == pytest.approx(6.0, abs=1e-8)


class TestRegionCommon:
    def test_zero_constraint(self, example_channel):
        fr = region_common_fixed(example_channel, np.zeros((2, 2)))
        assert len(fr.points) == 1

    def test_slice_matches_pair_region(self, example_channel):
        # with all power in K1 + K2 = K the triple collapses onto the
        # pair-rate forms with K* = K2, node by node
        k = np.diag([6.0, 6.0])
        tuples = theta_tuple_grid(1, 8)
        dvals = diag_values(5)
        for ang in tuples[:, 0]:
            for dc in diag_combos(dvals, 2):
                k2 = compose_sub_cov(k, SubCovParams([ang], dc))
                k1 = k - k2
                r0, r1, r2 = r_common(example_channel, k, k1, k2)
                assert r0 <= 1e-9
                assert r1 == pytest.approx(
                    r1_hat(example_channel, k, k2), abs=1e-9
                )
                assert r2 == pytest.approx(
                    r2_hat(example_channel, k, k2), abs=1e-9
                )

    def test_no_confidential_layer_kills_r1(self, example_channel, fast_grid):
        fr = region_common_fixed(example_channel, np.diag([4.0, 4.0]), fast_grid)
        zero_k2 = [p for p in fr.points if np.abs(p.gen["k2"]).max() < 1e-12]
        for p in zero_k2:
            assert p.r1 <= 1e-9

    def test_power_origin(self, example_channel):
        fr = region_common_power(example_channel, 0.0)
        assert len(fr.points) == 1

    def test_power_r0_slice_consistent_with_pair_frontier(
        self, example_channel, fast_grid
    ):
        rc = region_common_power(example_channel, 6.0, fast_grid)
        fp = frontier_power(example_channel, 6.0, fast_grid)
        # triples with r0 ~ 0 must be dominated by the pair frontier up to
        # the (much coarser) triple grid resolution
        for p in rc.points:
            if p.r0 <= 1e-9:
                assert fp.r2_available(p.r1, slack=0.06) >= p.r2 - 0.06

    def test_power_max_r0_corner(self, example_channel, fast_grid):
        rc = region_common_power(example_channel, 6.0, fast_grid)
        max_r0 = max(p.r0 for p in rc.points)
        # oracle: direct sweep of min_j I(X;Yj) over the trace manifold
        best = 0.0
        for phi in np.linspace(0, math.pi, 32, endpoint=False):
            c, s = math.cos(phi), math.sin(phi)
            rot = np.array([[c, -s], [s, c]])
            for q in np.linspace(0.0, 6.0, 33):
                k = rot @ np.diag([q, 6.0 - q]) @ rot.T
                best = max(
                    best,
                    min(mi_xy(example_channel, k, 1), mi_xy(example_channel, k, 2)),
                )
        assert max_r0 <= best + 1e-9
        assert max_r0 >= best - 0.05

    def test_triples_reverify_from_generators(self, example_channel, fast_grid):
        fr = region_common_fixed(example_channel, np.diag([4.0, 4.0]), fast_grid)
        for p in fr.points[:: max(1, len(fr.points) // 10)]:
            r0, r1, r2 = r_common(
                example_channel, p.gen["k"], p.gen["k1"], p.gen["k2"]
            )
            assert p.r0 == pytest.approx(max(r0, 0.0), abs=1e-9)
            assert p.r1 == pytest.approx(max(r1, 0.0), abs=1e-9)
            assert p.r2 == pytest.approx(max(r2, 0.0), abs=1e-9)


class TestBothConfidential:
    def test_symmetric_channel_origin(self, rng, fast_grid):
        g = rng.normal(size=(2, 2))
        ch = make_channel(g, g)
        fr = both_confidential_frontier(ch, 4.0, fast_grid)
        assert fr.max_r1() <= 1e-9
        assert fr.max_r2() <= 1e-9

    def test_max_r1_is_wtc_capacity(self, example_channel, fast_grid):
        from secbc import wtc_capacity_power

        fr = both_confidential_frontier(example_channel, 6.0, fast_grid)
        value, _, _ = wtc_capacity_power(example_channel, 6.0, fast_grid)
        assert fr.max_r1() == pytest.approx(value, abs=1e-6)

    def test_points_are_closed_form_corners(self, example_channel, fast_grid):
        # each constraint's rectangle has the wiretap optimum as its corner
        fr = both_confidential_frontier(example_channel, 6.0, fast_grid)
        for p in fr.points:
            value, _ = wtc_capacity(example_channel, p.gen["k"])
            assert p.r1 == pytest.approx(value, abs=1e-9)


class TestCheckK1Zero:
    def test_trivial_k1_zero_split(self, example_channel):
        # splits drawn with the zero matrix as K1 are dominated trivially
        assert check_k1_zero(example_channel, np.diag([2.0, 2.0]), samples=5, seed=1)

    def test_scalar_random_splits(self):
        ch = make_channel([[2.0]], [[1.0]])
        assert check_k1_zero(ch, [[3.0]], samples=40, seed=2)
        ch2 = make_channel([[1.0]], [[2.0]])
        assert check_k1_zero(ch2, [[3.0]], samples=40, seed=3)
