import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from secbc import (
    GridSpec,
    SubCovParams,
    both_confidential_frontier,
    check_k1_zero,
    compose_sub_cov,
    decompose_sub_cov,
    frontier_fixed_cov,
    frontier_power,
    make_channel,
    mi_xy,
    psd_leq,
    r1_hat,
    r2_hat,
    r_common,
    region_common_fixed,
    region_common_power,
    wtc_capacity,
    wtc_capacity_power,
)
from secbc import regions, sweeps
from secbc.matops import ROUNDTRIP_TOL, rotation_angles
from secbc.sweeps import diag_combos, diag_values, theta_values

from conftest import assert_kstar_rates, kstar_rows, random_spd
from oracles import fig2_oracle, water_fill_oracle

GOLDEN = Path(__file__).parent / "golden"


class TestParetoFilters:
    def test_pairs_drop_dominated(self):
        rates = np.array([[1.0, 1.0], [0.5, 0.5], [0.2, 2.0]])
        kept = rates[regions._pair_rows(rates)]
        assert kept.tolist() == [[0.2, 2.0], [1.0, 1.0]]

    def test_pairs_idempotent(self, rng):
        once = rng.uniform(0, 3, size=(500, 2))
        once = once[regions._pair_rows(once)]
        assert once[regions._pair_rows(once)].tobytes() == once.tobytes()
        assert once.tolist() == sorted(once.tolist())  # by (r1, r2) ascending

    def test_pairs_no_mutual_domination(self, rng):
        rates = rng.uniform(0, 3, size=(300, 2))
        kept = rates[regions._pair_rows(rates)].tolist()
        for i, p in enumerate(kept):
            for q in kept[i + 1 :]:
                dominates = (
                    q[0] >= p[0] and q[1] >= p[1]
                    and (q[0] > p[0] + 1e-9 or q[1] > p[1] + 1e-9)
                )
                assert not dominates

    def test_triples_idempotent(self, rng):
        once = rng.uniform(0, 2, size=(400, 3))
        once = once[regions._triple_front(once)]
        assert once[regions._triple_front(once)].tobytes() == once.tobytes()
        assert once.tolist() == sorted(once.tolist())  # rows ascending

    def test_triple_front_drops_rows_near_an_earlier_kept_row(self, rng):
        # rows of a simplex with tied r0, plus copies moved by up to
        # slack / 2 per column, which dominate neither their originals
        slack = regions.PARETO_SLACK
        base = rng.dirichlet(np.ones(3), 300)
        base[:, 0] = np.round(base[:, 0], 1)
        arr = np.vstack([base, base + rng.choice([-0.5, 0.0, 0.5], size=base.shape) * slack])
        kept = []
        for r in regions._pareto_rows_triples(arr, slack)[::-1]:
            if not any(np.all(np.abs(arr[r] - arr[q]) <= slack) for q in kept):
                kept.append(r)
        got = regions._triple_front(arr, slack)
        assert got.tolist() == kept[::-1]
        assert 64 < len(got) < len(regions._pareto_rows_triples(arr, slack))


class TestFrontierColumns:
    def test_points_match_the_columns_bitwise(self, example_channel, fast_grid):
        # the per-point view holds the rows in order, generators included
        k = np.diag([3.0, 2.0])
        for fr in (
            frontier_power(example_channel, 4.0, fast_grid),
            both_confidential_frontier(example_channel, 4.0, fast_grid),
            region_common_power(example_channel, 4.0, fast_grid),
            frontier_fixed_cov(example_channel, k, fast_grid),
            region_common_fixed(example_channel, k, fast_grid),
            frontier_power(example_channel, 0.0, fast_grid),
        ):
            pts = list(fr.points)
            assert "points" not in vars(fr)  # built on each access, never stored
            names = ("r1", "r2", "r0")[: fr.rates.shape[1]]
            rows = np.array([[getattr(p, n) for n in names] for p in pts])
            assert rows.tobytes() == fr.rates.tobytes()
            again = np.array([[getattr(p, n) for n in names] for p in fr.points])
            assert again.tobytes() == rows.tobytes()
            for name, mats in fr.gens.items():
                assert np.array([p.gen[name] for p in pts]).tobytes() == mats.tobytes()
            assert not np.signbit(fr.rates).any()  # clamped as max(0, r)
            assert rows.tolist() == sorted(rows.tolist())

    def test_fixed_constraint_is_stored_once(self, example_channel, fast_grid, tmp_path):
        # generator "k" repeats the constraint on every row: one stride-0
        # view of it, written exactly as a materialized stack would be
        from secbc.cli import emit_csv

        k = np.diag([3.0, 2.0])
        for fr in (
            frontier_fixed_cov(example_channel, k, fast_grid),
            region_common_fixed(example_channel, k, fast_grid),
            region_common_power(make_channel([[2.0]], [[1.0]]), 4.0, fast_grid),
        ):
            assert len(fr.rates) > 1 and fr.gens["k"].strides[0] == 0
            copy = regions.Frontier(fr.rates, {n: g.copy() for n, g in fr.gens.items()}, fr.meta)
            emit_csv(fr, tmp_path / "view.csv")
            emit_csv(copy, tmp_path / "copy.csv")
            assert (tmp_path / "view.csv").read_bytes() == (tmp_path / "copy.csv").read_bytes()


class TestFrontierFixedCov:
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_kstar_generators_round_trip(self, rng, t):
        # every K* the CSV writes round-trips through the map decomp-check verifies
        ch = make_channel(*rng.normal(size=(2, t, t)))
        k = random_spd(rng, t, scale=3.0)
        ks = frontier_fixed_cov(ch, k, GridSpec(theta_steps=8, diag_steps=5)).gens["kstar"]
        back = compose_sub_cov(k, decompose_sub_cov(k, ks))
        assert np.linalg.norm(back - ks, axis=(-2, -1)).max() <= ROUNDTRIP_TOL

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

    @pytest.mark.parametrize("rank", [0, 1])
    def test_rank_deficient_constraint_reverifies(self, example_channel, rank, fast_grid):
        # a singular K takes the eigen square root, not the Cholesky factor
        a = np.array([[1.5], [-0.7]]) if rank else np.zeros((2, 1))
        k = a @ a.T * 4.0
        fr = frontier_fixed_cov(example_channel, k, fast_grid)
        assert len(fr.rates)
        for (r1, r2), km, ks in zip(fr.rates, fr.gens["k"], fr.gens["kstar"]):
            assert psd_leq(ks, k)
            assert r1 == pytest.approx(max(0.0, r1_hat(example_channel, km, ks)), abs=1e-9)
            assert r2 == pytest.approx(r2_hat(example_channel, km, ks), abs=1e-9)

    def test_grows_with_the_constraint(self, example_channel, rng, fast_grid):
        kprime = random_spd(rng, 2, scale=2.0)
        a = rng.normal(size=(2, 2))
        full = kprime + a @ a.T * ((10.0 - np.trace(kprime)) / np.sum(a * a))
        assert np.trace(full) == pytest.approx(10.0)
        assert psd_leq(kprime, full, 1e-9)
        small = frontier_fixed_cov(example_channel, kprime, fast_grid)
        big = frontier_fixed_cov(example_channel, full, fast_grid)
        for p in small.points:
            assert big.r2_available(p.r1, slack=5e-3) >= p.r2 - 5e-3


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


def _assert_power_points_reverify(ch, fr, power):
    """Every point re-verifies, with tr K = power and 0 <= K* <= K."""
    assert len(fr.points) > 1
    for p in fr.points:
        k, ks = p.gen["k"], p.gen["kstar"]
        assert p.r1 == pytest.approx(max(0.0, r1_hat(ch, k, ks)), abs=1e-9)
        assert p.r2 == pytest.approx(r2_hat(ch, k, ks), abs=1e-9)
        assert np.trace(k) == pytest.approx(power, abs=1e-9)
        assert np.linalg.eigvalsh(k - ks).min() >= -1e-12
        assert np.linalg.eigvalsh(ks).min() >= -1e-12


class TestPowerBudget:
    @pytest.mark.parametrize(
        "fn",
        [frontier_power, both_confidential_frontier, region_common_power, wtc_capacity_power],
    )
    @pytest.mark.parametrize("power", [-1.0, math.nan, math.inf])
    def test_rejected_before_any_compute(self, fn, power, example_channel, monkeypatch):
        def computed(*args):
            raise AssertionError("swept a grid before checking the power budget")

        # the trace grids, and the K* sweep, which builds no trace grid
        monkeypatch.setattr(regions, "_trace_grid", computed)
        monkeypatch.setattr(regions, "_kstar_rates", computed)
        with pytest.raises(ValueError, match="power must be finite and nonnegative"):
            fn(example_channel, power)


class TestPairStreaming:
    """The row-block streaming of the fixed-covariance and K* sweeps."""

    @staticmethod
    def fingerprint(fr):
        return [
            (np.array([p.r1, p.r2]).tobytes(), p.gen["k"].tobytes(), p.gen["kstar"].tobytes())
            for p in fr.points
        ]

    def test_block_size_does_not_change_the_result(self, example_channel, monkeypatch):
        grid = GridSpec(theta_steps=6, diag_steps=5, trace_steps=5)

        def run():
            return [
                self.fingerprint(frontier_fixed_cov(example_channel, np.diag([4.0, 4.0]), grid)),
                self.fingerprint(frontier_power(example_channel, 6.0, grid)),
            ]

        reference = run()
        # 1 node per block scores every rotation row and K* node alone
        for block_nodes in (1, 7, 500):
            monkeypatch.setattr(sweeps, "GRID_BLOCK_NODES", block_nodes)
            assert run() == reference


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

    def test_points_reverify_from_generators(self, example_channel):
        fr = frontier_power(example_channel, 6.0, GridSpec(theta_steps=8, trace_steps=5))
        _assert_power_points_reverify(example_channel, fr, 6.0)

    @pytest.mark.parametrize("t, seed, steps", [(1, 100, 13), (3, 103, 3)])
    def test_points_reverify_other_dimensions(self, t, seed, steps):
        rng = np.random.default_rng(seed)
        ch = make_channel(2.0 * rng.normal(size=(t, t)), rng.normal(size=(t, t)))
        fr = frontier_power(ch, 6.0, GridSpec(theta_steps=3, trace_steps=steps))
        _assert_power_points_reverify(ch, fr, 6.0)

    def test_meta_reports_nodes_and_phase_times(self, example_channel):
        fr = frontier_power(example_channel, 6.0, GridSpec(theta_steps=4, trace_steps=3))
        nodes, kept = fr.meta["nodes_per_level"], fr.meta["kept_per_level"]
        assert len(nodes) == len(kept) == regions.ZOOM_LEVELS + 1
        # 2 canonical angles times the 6 rows of the 3 x 3 u table in the ball
        assert nodes[0] == 2 * 6
        # each slack mask sees the block survivors: the coarse ones, then
        # the last level's front plus the survivors of its new nodes
        assert 1 <= kept[0] <= nodes[0]
        for level in range(1, len(nodes)):
            assert 1 <= kept[level] <= kept[level - 1] + nodes[level]
        # the K* sweep's rows plus the two corners hold the frontier
        assert len(fr.rates) <= kept[-1] + 2
        phases = fr.meta["phase_s"]
        assert set(phases) == {"kstar_sweep", "wtc_corner", "points"}
        assert all(math.isfinite(v) and v >= 0.0 for v in phases.values())

    def test_pins_verified_point(self, example_channel):
        # (0.91573, 2.91756) re-verifies from its covariances, tr K = 12
        fr = frontier_power(example_channel, 12.0)
        assert fr.r2_available(0.91573) >= 2.9175

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_max_r2_corner_is_water_filling(self, t):
        rng = np.random.default_rng(200 + t)
        ch = make_channel(rng.normal(size=(t, t)), rng.normal(size=(t, t)))
        fr = frontier_power(ch, 5.0, GridSpec(theta_steps=3, trace_steps=3))
        corner = max(fr.points, key=lambda p: p.r2)
        assert corner.r2 == pytest.approx(water_fill_oracle(ch.g2, 5.0), abs=1e-9)
        assert np.abs(corner.gen["kstar"]).max() == 0.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_covers_oracle_staircase(self, seed, fast_grid):
        rng = np.random.default_rng(seed)
        gains = []
        while len(gains) < 2:
            g = rng.normal(size=(2, 2)) * 1.5
            if np.linalg.cond(g) < 30.0:
                gains.append(g)
        power = float(rng.uniform(2.0, 20.0))
        fr = frontier_power(make_channel(*gains), power, fast_grid)
        oracle = fig2_oracle(*gains, power, n_phi=12, n_q=13, n_theta=12, n_d=9, bins=128)
        for r1_edge, r2_best in zip(oracle["stair_r1"], oracle["stair_r2"]):
            assert fr.r2_available(r1_edge, slack=5e-3) >= r2_best - 5e-3


def materialized_zoom_sweep(ch, p, grid):
    """The K* sweep with every level held whole: the coarse
    :func:`regions._trace_grid` scored as one block, then each level's
    nodes appended to its front before one slack-tolerant mask."""
    t = ch.t
    m = t * (t - 1) // 2

    c = regions._kstar_consts(ch)

    def evaluate(x):
        return regions._kstar_rates(ch, c, x[:, :m], regions._kstar_tails(c, p, x[:, m:]))

    u = diag_combos(np.linspace(0.0, 1.0, grid.trace_steps), t)
    x = regions._trace_grid(t, grid.theta_steps, u[np.sum(u * u, axis=1) <= 1.0])
    cell = np.array(
        [regions._angle_span(t) / grid.theta_steps] * m
        + [1.0 / max(grid.trace_steps - 1, 1)] * t
    )
    offsets = diag_combos(np.linspace(-1.0, 1.0, regions.ZOOM_POINTS), m + t)
    moved = np.count_nonzero(offsets, axis=1)
    offsets = offsets[(moved >= 1) & (moved <= regions.ZOOM_AXES)]
    rates = evaluate(x)
    counts = [len(x)]
    front = regions._pareto_mask(rates[:, 0], rates[:, 1])
    for _ in range(regions.ZOOM_LEVELS):
        x, rates = x[front], rates[front]
        new = (x[:, None, :] + offsets * cell).reshape(-1, m + t)
        norm = np.sqrt(np.sum(new[:, m:] ** 2, axis=1))
        new[:, m:] /= np.maximum(norm, 1.0)[:, None]
        x = np.vstack([x, new])
        rates = np.vstack([rates, evaluate(new)])
        counts.append(len(new))
        cell = cell / 2.0
        front = regions._pareto_mask(rates[:, 0], rates[:, 1])
    return x[front], counts


class TestZoomStreaming:
    """The block-cut K* sweep against the sweep that holds each level whole."""

    @pytest.mark.parametrize("p", [1e-6, 12.0, 1e6])
    @pytest.mark.parametrize(
        "t, grid",
        [(1, GridSpec()), (2, GridSpec()), (3, GridSpec(theta_steps=4, trace_steps=3))],
    )
    def test_equals_the_materialized_sweep(self, t, grid, p):
        rng = np.random.default_rng(400 + t)
        ch = make_channel(rng.normal(size=(t, t)), rng.normal(size=(t, t)))
        x, counts, _ = regions._zoom_sweep(ch, p, grid)
        ref, ref_counts = materialized_zoom_sweep(ch, p, grid)
        assert x.tobytes() == ref.tobytes()
        assert counts == ref_counts

    @pytest.mark.parametrize(
        "t, grid",
        [(1, GridSpec()), (2, GridSpec()), (3, GridSpec(theta_steps=4, trace_steps=3))],
    )
    def test_small_blocks_equal_the_materialized_sweep(self, t, grid, monkeypatch):
        # a few rows per block: each angle's u table spans several blocks
        monkeypatch.setattr(sweeps, "GRID_BLOCK_NODES", 997)
        rng = np.random.default_rng(410 + t)
        ch = make_channel(rng.normal(size=(t, t)), rng.normal(size=(t, t)))
        x, counts, _ = regions._zoom_sweep(ch, 12.0, grid)
        ref, ref_counts = materialized_zoom_sweep(ch, 12.0, grid)
        assert x.tobytes() == ref.tobytes()
        assert counts == ref_counts

    @pytest.mark.parametrize(
        "grid, coarse",
        # the Fig. 2 grid; one angle against a u table of 125 427 rows
        [(GridSpec(), 32 * 3278), (GridSpec(theta_steps=2, trace_steps=400), 125427)],
    )
    def test_blocks_stay_small(self, grid, coarse, example_channel):
        # no array of the sweep holds a whole level or the whole u table
        frontier_power(example_channel, 12.0, grid)
        tracemalloc.start()
        try:
            fr = frontier_power(example_channel, 12.0, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fr.meta["nodes_per_level"][0] == coarse
        assert peak < 4 * 2**20


class TestKstarRates:
    """Node scores of the K* sweep against independent evaluations."""

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_match_the_rate_formulas(self, t):
        rng = np.random.default_rng(300 + t)
        ch = make_channel(rng.normal(size=(t, t)), rng.normal(size=(t, t)))
        x = kstar_rows(ch, rng, 5)
        got = assert_kstar_rates(ch, 7.0, x, 1e-9)
        # u = 0: K* = 0 leaves r1 = 0 and all the power to water-fill
        assert np.all(got[::3, 0] == 0.0)
        assert got[0, 1] == pytest.approx(water_fill_oracle(ch.g2, 7.0), abs=1e-9)
        # u on the surface: no power is left over
        assert np.abs(got[1::3, 1]).max() <= 1e-9

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_repeated_spectrum(self, t):
        # N + K* = c I: the two roots at t = 2 coincide (zero discriminant)
        rng = np.random.default_rng(310 + t)
        ch = make_channel(rng.normal(size=(t, t)), rng.normal(size=(t, t)))
        n, q = np.linalg.eigh(regions._noise2(ch))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        e = 1.5 * n.max() - n
        for p in (e.sum(), 4.0 * e.sum()):
            row = np.concatenate([rotation_angles(q) if t > 1 else [], np.sqrt(e / p)])
            assert_kstar_rates(ch, p, row[None], 1e-9)


class TestWaterFill:
    def test_matches_oracle(self, rng):
        from secbc.regions import _noise2, _water_fill

        for t in (1, 2, 3):
            ch = make_channel(rng.normal(size=(t, t)), rng.normal(size=(t, t)))
            for power in (0.01, 1.0, 30.0):
                nu = np.linalg.eigvalsh(_noise2(ch))
                rate, _ = _water_fill(nu, power)
                assert rate == pytest.approx(water_fill_oracle(ch.g2, power), abs=1e-9)

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_bitwise_the_cumulative_sum_levels(self, t):
        # the column loop adds in the order of np.cumsum, so the levels of
        # the vectorized form are reproduced to the bit
        from secbc.regions import _water_fill

        rng = np.random.default_rng(320 + t)
        nu = np.sort(np.exp(3.0 * rng.normal(size=(500, t))), axis=1)
        power = np.exp(3.0 * rng.normal(size=500)) - 1.0
        levels = (np.maximum(power, 0.0)[:, None] + np.cumsum(nu, axis=1)) / np.arange(1, t + 1)
        mu = levels.min(axis=1)
        rate = np.sum(np.log2(np.maximum(mu[:, None], nu) / nu), axis=1) / 2.0
        got_rate, got_mu = _water_fill(nu, power)
        assert got_mu.tobytes() == mu.tobytes()
        assert got_rate.tobytes() == rate.tobytes()

    def test_zero_remaining_power(self, example_channel):
        from secbc.regions import _noise2, _water_fill, _water_filled

        nu = np.linalg.eigvalsh(_noise2(example_channel))
        for power in (0.0, -1e-12):
            rate, mu = _water_fill(nu, power)
            assert rate == 0.0 and mu == nu[0]
        # K* of trace p leaves nothing to water-fill: K = K*, R2 = 0
        ks = np.array([[7.0, 1.0], [1.0, 5.0]])
        k = _water_filled(example_channel, 12.0, ks)
        assert np.abs(k - ks).max() <= 1e-12
        assert r2_hat(example_channel, k, ks) == pytest.approx(0.0, abs=1e-12)


class TestRegionCommon:
    def test_zero_constraint(self, example_channel):
        fr = region_common_fixed(example_channel, np.zeros((2, 2)))
        assert len(fr.points) == 1

    def test_near_duplicate_of_the_corner_is_dropped(self, fast_grid):
        # the grid row (0, corner r1 - 1 ulp, 1.1e-16) dominates neither
        # way but lies within the slack of the spliced wiretap corner
        ch = make_channel([[2.0]], [[1.0]])
        fr = region_common_power(ch, 3.0, fast_grid)
        value, _ = wtc_capacity(ch, [[3.0]])
        top = [(p.r0, p.r1, p.r2) for p in fr.points if p.r1 > value - 1e-9]
        assert top == [(0.0, value, 0.0)]

    def test_slice_matches_pair_region(self, example_channel):
        # with all power in K1 + K2 = K the triple collapses onto the
        # pair-rate forms with K* = K2, node by node
        k = np.diag([6.0, 6.0])
        dvals = diag_values(5)
        for ang in theta_values(8):
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

    @pytest.mark.parametrize("p", [1e-14, 1e-15, 1e-16, 1e-300, 5e-324])
    @pytest.mark.parametrize("t", [1, 2])
    def test_vanishing_constraints(self, t, p, example_channel, scalar_channel):
        # no grid winner may survive the triple filter, and at t = 1 the
        # power region may reach the zero-constraint frontier
        ch = scalar_channel if t == 1 else example_channel
        for fr in (region_common_power(ch, p), region_common_fixed(ch, p * np.eye(t))):
            assert len(fr.points) >= 1
            for q in fr.points:
                rates = r_common(ch, q.gen["k"], q.gen["k1"], q.gen["k2"])
                assert min(q.r0, q.r1, q.r2) >= 0.0
                assert np.abs(np.subtract((q.r0, q.r1, q.r2), rates)).max() <= 1e-12

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
        k = np.diag([4.0, 4.0])
        _assert_triples_reverify(
            example_channel, region_common_fixed(example_channel, k, fast_grid), k
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_triples_reverify(self, seed, fast_grid):
        t = 1 + seed % 3
        rng = np.random.default_rng(seed)
        ch = make_channel(rng.normal(size=(t, t)), rng.normal(size=(t, t)))
        k = random_spd(rng, t, scale=3.0)
        grid = GridSpec(chain_theta_steps=4, chain_diag_steps=3) if t == 3 else fast_grid
        _assert_triples_reverify(ch, region_common_fixed(ch, k, grid), k)
        if t < 3:
            power = float(np.trace(k))
            _assert_triples_reverify(ch, region_common_power(ch, power, fast_grid), power=power)

    @pytest.mark.parametrize("case", ["6I", "4I", 0, 1, 2])
    def test_max_r1_is_wtc_capacity(self, case, example_channel, fast_grid):
        if isinstance(case, str):
            ch, k, grid = example_channel, float(case[0]) * np.eye(2), GridSpec()
        else:
            t = 1 + case % 3
            rng = np.random.default_rng(case)
            ch = make_channel(rng.normal(size=(t, t)), rng.normal(size=(t, t)))
            k = random_spd(rng, t, scale=3.0)
            grid = GridSpec(chain_theta_steps=4, chain_diag_steps=3) if t == 3 else fast_grid
        fr = region_common_fixed(ch, k, grid)
        assert fr.max_r1() == pytest.approx(wtc_capacity(ch, k)[0], abs=1e-9)


def _assert_triples_reverify(ch, fr, k=None, power=None):
    """Every triple re-verifies, with K2 <= K1 + K2 <= K and K = k or tr K = power."""
    assert len(fr.points) > 1
    for p in fr.points:
        kmat, k1, k2 = p.gen["k"], p.gen["k1"], p.gen["k2"]
        r0, r1, r2 = r_common(ch, kmat, k1, k2)
        assert p.r0 == pytest.approx(max(r0, 0.0), abs=1e-9)
        assert p.r1 == pytest.approx(max(r1, 0.0), abs=1e-9)
        assert p.r2 == pytest.approx(max(r2, 0.0), abs=1e-9)
        assert psd_leq(np.zeros_like(k2), k2)
        assert psd_leq(k2, k1 + k2) and psd_leq(k1 + k2, kmat)
        if k is not None:
            assert np.array_equal(kmat, k)
        else:
            assert np.trace(kmat) == pytest.approx(power, abs=1e-9)


class TestCommonStreaming:
    """The streamed candidate kernel behind both common-message sweeps."""

    K = np.diag([4.0, 4.0])

    def run_both(self, ch, grid):
        return [region_common_fixed(ch, self.K, grid), region_common_power(ch, 6.0, grid)]

    @staticmethod
    def fingerprint(fr):
        return [
            (np.array([p.r0, p.r1, p.r2]).tobytes(),)
            + tuple(p.gen[key].tobytes() for key in ("k", "k1", "k2"))
            for p in fr.points
        ]

    def test_block_size_does_not_change_the_result(
        self, example_channel, fast_grid, monkeypatch
    ):
        reference = [self.fingerprint(fr) for fr in self.run_both(example_channel, fast_grid)]
        # 1 node per block leaves every outer row alone in its block; 500
        # nodes gives blocks of 2 (fixed) and 5 (power) outer rows, the
        # last power block holding a single row.
        for block_nodes in (1, 500):
            monkeypatch.setattr(sweeps, "GRID_BLOCK_NODES", block_nodes)
            runs = self.run_both(example_channel, fast_grid)
            assert [self.fingerprint(fr) for fr in runs] == reference
            assert all(fr.meta["blocks"] > 1 for fr in runs)

    def test_single_pass_memory(self):
        # a t = 3 grid of 729^2 nodes (27 rotation classes of 6 steps times
        # 27 scalings per level), streamed in several blocks: no call may
        # keep its r1/r2 columns
        rng = np.random.default_rng(3)
        g1, g2, a = (rng.normal(size=(3, 3)) for _ in range(3))
        ch, k = make_channel(g1, g2), a @ a.T / 3.0 + 0.5 * np.eye(3)
        tracemalloc.start()
        try:
            fr = region_common_fixed(ch, k, GridSpec(chain_theta_steps=6, chain_diag_steps=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fr.meta["candidates"] == 729**2
        assert fr.meta["blocks"] > 1
        assert peak < 16 * 2**20

    def test_meta_counts_grid_rows_thinned_rows_and_blocks(
        self, example_channel, scalar_channel, fast_grid
    ):
        fixed, power = self.run_both(example_channel, fast_grid)
        # t = 2: one angle and two scalings per level; 8 steps keep 2 angles
        n_chain = 2 * 5**2
        assert fixed.meta["candidates"] == n_chain * n_chain
        assert fixed.meta["blocks"] == 1
        # canonical angles of deep_theta_steps = 6 (3 on both spans) times
        # deep_trace_steps splits
        nodes = 3 * 7
        n_deep = 3 * 4**2
        assert power.meta["candidates"] == nodes * n_deep * n_deep
        # one stream of outer rows over all manifold nodes
        assert power.meta["blocks"] == len(sweeps.row_blocks(nodes * n_deep, n_deep))
        for fr in (fixed, power):
            assert len(fr.points) <= fr.meta["thinned"] <= 96**2
            # the cell prefilter drops only rows the exact filter drops
            assert 0 <= fr.meta["prefiltered"] <= fr.meta["thinned"] - len(fr.points)
        scalar = region_common_power(scalar_channel, 3.0, fast_grid)
        assert scalar.meta["candidates"] == 5 * 5 and scalar.meta["blocks"] == 1
        assert len(scalar.points) <= scalar.meta["thinned"] <= 25
        assert 0 <= scalar.meta["prefiltered"] <= scalar.meta["thinned"] - len(scalar.rates)
        fig2 = region_common_power(example_channel, 12.0)
        assert 0 < fig2.meta["prefiltered"] <= fig2.meta["thinned"] - len(fig2.rates)


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

    @pytest.mark.parametrize("cond", [1.0, 1e-4])
    @pytest.mark.parametrize("p", [1.0, 1e3, 1e6, 1e10])
    def test_r2_is_the_swapped_wiretap_optimum(self, rng, cond, p):
        # the swapped side read from the same pencil agrees with a separate
        # solve of the swapped channel, also where gains are far apart
        for t in (2, 3):
            g1, g2 = rng.normal(size=(2, t, t))
            ch = make_channel(g1 @ np.diag(cond ** rng.random(t)), g2)
            k = random_spd(rng, t)
            k *= p / np.trace(k)
            r1, r2, kstar = regions._wtc_rectangle(ch, k)
            value, argmax = wtc_capacity(ch, k)
            assert (r1, kstar.tobytes()) == (value, argmax.tobytes())
            swapped = wtc_capacity(make_channel(ch.g2, ch.g1), k)[0]
            assert r2 == pytest.approx(swapped, rel=1e-9, abs=1e-12)

    def test_max_r2_corner_where_one_gain_nearly_vanishes(self):
        # receiver 1 hears the first axis 1e-9 as well as receiver 2, so the
        # pencil has an eigenvalue near 1/P and 1 + (lambda - 1) cancels;
        # the max-R2 corner is still 1/2 log2((1 + P) / (1 + 1e-18 P))
        ch = make_channel(np.diag([1e-9, 1.0]), np.eye(2))
        for p in (1e10, 1e12, 1e14):
            fr = both_confidential_frontier(ch, p, GridSpec(theta_steps=6, trace_steps=5))
            best = 0.5 * math.log2((1.0 + p) / (1.0 + 1e-18 * p))
            assert fr.max_r2() == pytest.approx(best, rel=1e-12)

    def test_meta_reports_phase_times(self, example_channel, fast_grid):
        fr = both_confidential_frontier(example_channel, 6.0, fast_grid)
        phases = fr.meta["phase_s"]
        assert set(phases) == {"scan", "max_r1_corner", "max_r2_corner"}
        assert all(math.isfinite(v) and v >= 0.0 for v in phases.values())


class TestPowerCorner:
    """Both power corners are one polish over K* = p C C^T, ||C||_F <= 1."""

    GRID = GridSpec(theta_steps=8, trace_steps=9)

    @staticmethod
    def channel(t, seed):
        rng = np.random.default_rng(seed)
        return make_channel(rng.normal(size=(t, t)), rng.normal(size=(t, t)))

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_max_r2_is_the_swapped_wiretap_capacity(self, t):
        # by the GEVD complement, max R2 is user 2's own wiretap problem
        ch = self.channel(t, 60 + t)
        fr = both_confidential_frontier(ch, 3.0, self.GRID)
        value, _, _ = wtc_capacity_power(make_channel(ch.g2, ch.g1), 3.0, self.GRID)
        assert abs(fr.max_r2() - value) <= 1e-9

    @pytest.mark.parametrize("iters", [100, 1000])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_corners_reach_the_best_manifold_node(self, t, iters):
        # the one closed-form start is polished at least as high as every
        # node of the trace-p manifold the grid paths scan
        ch = self.channel(t, 70 + t)
        grid = GridSpec(theta_steps=8, trace_steps=9, refine_iters=iters)
        kmats = regions._manifold_scan(t, 3.0, grid)
        for c in (ch, make_channel(ch.g2, ch.g1)):
            value, kmat, _ = wtc_capacity_power(c, 3.0, grid)
            assert np.trace(kmat) == pytest.approx(3.0, rel=1e-12)
            assert value >= regions._wtc_gevd(c, kmats)[0].max() - 1e-12

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_unpolished_corners_are_the_isotropic_closed_form(self, t):
        ch = self.channel(t, 70 + t)
        grid = GridSpec(refine_iters=0)
        for c in (ch, make_channel(ch.g2, ch.g1)):
            value, kmat, _ = wtc_capacity_power(c, 3.0, grid)
            assert np.trace(kmat) == pytest.approx(3.0, rel=1e-12)
            assert value >= wtc_capacity(c, 3.0 / t * np.eye(t))[0] - 1e-12

    def test_single_start_reaches_the_rank_3_optimum(self):
        # a step keeps the rank of C; the isotropic start has as many
        # directions as G1^T G1 - G2^T G2 has positive eigenvalues, so it
        # reaches the rank-3 optimum that the best manifold nodes miss
        g1, g2 = np.random.default_rng(801).normal(size=(2, 3, 3))
        ch = make_channel(g2, g1)
        gap = ch.g1.T @ ch.g1 - ch.g2.T @ ch.g2
        assert np.linalg.eigvalsh(gap)[0] > 0.0
        kmats = regions._manifold_scan(3, 10.5, self.GRID)
        scores, kstars = regions._wtc_gevd(ch, kmats)
        for node in np.argsort(-scores)[:4]:
            assert np.linalg.eigvalsh(kstars[node])[0] < 1e-9
        value, _, kstar = wtc_capacity_power(ch, 10.5, self.GRID)
        assert np.linalg.eigvalsh(kstar)[0] > 1e-3
        assert value >= scores.max() - 1e-12

    @pytest.mark.parametrize("p", [1e3, 1e4, 1e6])
    def test_no_corner_start_runs_out_of_iterations(self, example_channel, monkeypatch, p):
        used = []
        polish = regions.spg_max

        def spy(fg, project, x0, budget):
            out = polish(fg, project, x0, budget)
            used.append((out[3], budget))
            return out

        monkeypatch.setattr(regions, "spg_max", spy)
        both_confidential_frontier(example_channel, p, GridSpec(theta_steps=8, trace_steps=9))
        assert len(used) == 2  # the max-R1 and max-R2 corners
        assert all(len(its) == 1 and its[0] < budget for its, budget in used), used

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_trace_ball_projection(self, rng, t):
        cs = rng.normal(size=(40, 1, t, t)) * rng.uniform(0.05, 2.0, size=(40, 1, 1, 1))
        inside = np.linalg.norm(cs, axis=(-2, -1)) <= 1.0
        assert inside.any() and not inside.all()
        once = regions._trace_ball(cs)
        assert once[inside].tobytes() == cs[inside].tobytes()
        assert np.linalg.norm(once[~inside], axis=(-2, -1)) == pytest.approx(1.0, abs=1e-15)
        assert np.abs(regions._trace_ball(once) - once).max() <= 1e-15


class TestCheckK1Zero:
    def test_trivial_k1_zero_split(self, example_channel):
        # splits drawn with the zero matrix as K1 are dominated trivially
        assert check_k1_zero(example_channel, np.diag([2.0, 2.0]), samples=5, seed=1)

    def test_scalar_random_splits(self):
        ch = make_channel([[2.0]], [[1.0]])
        assert check_k1_zero(ch, [[3.0]], samples=40, seed=2)
        ch2 = make_channel([[1.0]], [[2.0]])
        assert check_k1_zero(ch2, [[3.0]], samples=40, seed=3)
