import math

import numpy as np
import pytest

from secbc import EnvelopeWeights, GridSpec, make_channel, v_eta, v_hat, v_tilde
from secbc import sweeps
from secbc.sweeps import (
    chain_factor,
    coordinate_refine,
    golden_max,
    half_log2_det_gram,
    top_k_flat,
    top_k_rows,
)

from conftest import EXAMPLE_G1, EXAMPLE_G2


def sorted_top_k(values, k):
    """Reference selection: stable sort by value descending, first copy of each value."""
    flat = np.asarray(values).ravel()
    seen = set()
    order = [
        i for i in np.argsort(-flat, kind="stable")
        if not (flat[i] in seen or seen.add(flat[i]))
    ]
    return np.asarray(order[:k], dtype=int)


class TestTopKFlat:
    def test_ties_take_the_lowest_index(self):
        values = np.zeros(1000)
        values[500] = -1.0
        assert top_k_flat(values, 4).tolist() == [0, 500]
        values[[3, 700]] = 2.0
        assert top_k_flat(values, 2).tolist() == [3, 0]

    @pytest.mark.parametrize("k", [1, 3, 8, 50])
    def test_matches_stable_sort_on_heavy_ties(self, rng, k):
        for _ in range(20):
            values = rng.integers(0, 6, size=rng.integers(1, 60)).astype(float)
            assert top_k_flat(values, k).tolist() == sorted_top_k(values, k).tolist()

    def test_copies_of_a_selected_value_are_skipped(self):
        values = np.array([1.0, 3.0, 3.0, 2.0, 3.0, 2.0, 0.5])
        assert top_k_flat(values, 3).tolist() == [1, 3, 0]
        assert top_k_flat(values, 9).tolist() == [1, 3, 0, 6]


class TestTopKRows:
    @pytest.mark.parametrize("rows_per_block", [1, 7, None])
    @pytest.mark.parametrize("k", [1, 4, 30])
    def test_equals_top_k_flat(self, rng, monkeypatch, rows_per_block, k):
        for n_rows, n_cols in [(1, 5), (23, 9), (64, 3)]:
            values = rng.integers(0, 5, size=(n_rows, n_cols)).astype(float)
            per_block = n_rows if rows_per_block is None else rows_per_block
            monkeypatch.setattr(sweeps, "GRID_BLOCK_NODES", per_block * n_cols)
            idx, vals, blocks = top_k_rows(
                lambda lo, hi: values[lo:hi], n_rows, n_cols, k
            )
            expected = top_k_flat(values, k)
            assert idx.tolist() == expected.tolist()
            assert idx.tolist() == sorted_top_k(values, k).tolist()
            assert vals.tolist() == values.ravel()[expected].tolist()
            assert blocks == math.ceil(n_rows / per_block)

    def test_thread_count_does_not_change_the_result(self, rng, monkeypatch):
        values = rng.integers(0, 5, size=(40, 6)).astype(float)
        monkeypatch.setattr(sweeps, "GRID_BLOCK_NODES", 3 * 6)
        out = []
        for threads in ("1", "2"):
            monkeypatch.setenv("SECBC_THREADS", threads)
            idx, vals, _ = top_k_rows(lambda lo, hi: values[lo:hi], 40, 6, 5)
            out.append((idx.tolist(), vals.tolist()))
        assert out[0] == out[1]


def level3_objective(b0, gains):
    def objective(params):
        h = half_log2_det_gram(gains, chain_factor(b0, params, 2, 3)[:, :, None])
        return (
            0.3 * h[:, 0, 1]
            - 0.8 * h[:, 0, 0]
            + h[:, 1, 0]
            - 1.7 * h[:, 1, 1]
            + (h[:, 2, 1] - 1.2 * h[:, 2, 0])
        )

    return objective


class TestBatchedRefine:
    def test_lanes_match_single_runs_bitwise(self, rng):
        b0 = np.linalg.cholesky(np.diag([3.0, 2.0]))
        objective = level3_objective(b0, np.stack([EXAMPLE_G1, EXAMPLE_G2]))
        level = [(0.0, 2.0 * math.pi), (0.0, 1.0), (0.0, 1.0)]
        bounds, spans = level * 3, np.array([0.8, 0.5, 0.5] * 3)
        starts = np.column_stack(
            [rng.uniform(0, 2 * math.pi, 6)]
            + [rng.uniform(0, 1, 6), rng.uniform(0, 1, 6)]
            + [rng.uniform(0, 2 * math.pi, 6)]
            + [rng.uniform(0, 1, 6), rng.uniform(0, 1, 6)]
            + [rng.uniform(0, 2 * math.pi, 6)]
            + [rng.uniform(0, 1, 6), rng.uniform(0, 1, 6)]
        )
        for budget in (0, 5, 200):
            x, fx, used = coordinate_refine(
                objective, starts, bounds, spans, 1e-6, budget
            )
            for s in range(len(starts)):
                xs, fs, us = coordinate_refine(
                    objective, starts[s : s + 1], bounds, spans, 1e-6, budget
                )
                assert xs[0].tobytes() == x[s].tobytes()
                assert fs[0].tobytes() == fx[s].tobytes()
                assert us[0] == used[s] <= budget
            assert np.all(fx >= objective(starts))
        assert len(set(used.tolist())) > 1  # lanes really finished at different times

    def test_pattern_step_follows_a_ridge(self):
        # a narrow valley along x0 = x1: coordinate steps alone crawl
        def ridge(x):
            return -(1e4 * (x[:, 0] - x[:, 1]) ** 2 + (x[:, 0] + x[:, 1] - 1.2) ** 2)

        x, fx, used = coordinate_refine(
            ridge, [[0.1, 0.1]], [(0.0, 1.0)] * 2, np.array([0.5, 0.5]), 1e-9, 200
        )
        assert x[0] == pytest.approx([0.6, 0.6], abs=1e-6)
        assert fx[0] > -1e-10
        assert used[0] < 200

    def test_golden_max_lanes(self):
        peaks = np.array([0.3, -1.0, 2.5, 0.0])
        calls = []

        def f(x, lanes):
            calls.append(len(lanes))
            return -((x - peaks[lanes]) ** 2)

        lo = np.array([0.0, -2.0, 2.0, 0.0])
        hi = np.array([1.0, 0.0, 2.0 + 1e-7, 0.0])
        x, fx = golden_max(f, lo, hi, 1e-6)
        assert x[:2] == pytest.approx(peaks[:2], abs=1e-6)
        assert x[2] == pytest.approx(2.0, abs=1e-6)  # narrower than xtol
        assert x[3] == 0.0 and fx[3] == 0.0  # empty interval: the end point
        # the empty lane alone, then both first probes of the other three
        # lanes in one call, then one new probe per live lane and step
        assert calls[:2] == [1, 6]
        assert max(calls[2:]) == 2


class TestEnvelopeSweeps:
    W = EnvelopeWeights(lambda0=2.0, lambda1=1.0, lambda2=0.7, eta=1.2, alpha=0.4)

    def run_all(self, grid):
        ch = make_channel(EXAMPLE_G1, EXAMPLE_G2)
        k = np.diag([3.0, 2.0])
        return [
            v_eta(ch, k, self.W.eta, grid),
            v_hat(ch, k, self.W, grid),
            v_tilde(ch, k, self.W, grid),
        ]

    def test_byte_identical_across_thread_counts(self, fast_grid, monkeypatch):
        monkeypatch.setattr(sweeps, "GRID_BLOCK_NODES", 500)
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("SECBC_THREADS", threads)
            runs.append(self.run_all(fast_grid))
        for one, two in zip(*runs):
            assert np.float64(one.value).tobytes() == np.float64(two.value).tobytes()
            for a, b in zip(one.argmax_splits, two.argmax_splits):
                assert a.tobytes() == b.tobytes()
            assert one.grid_meta == two.grid_meta
            assert one.grid_meta["grid_blocks"] > 2

    def test_grid_meta_reports_nodes_blocks_and_budget(self, fast_grid):
        res_eta, res_hat, res_tilde = self.run_all(fast_grid)
        nd = lambda steps: steps**2  # t = 2: one angle, two scalings
        assert res_eta.grid_meta["grid_nodes"] == 16 * nd(9)
        assert res_hat.grid_meta["grid_nodes"] == (8 * nd(5)) ** 2
        assert res_tilde.grid_meta["grid_nodes"] == (6 * nd(4)) ** 3
        for res in (res_eta, res_hat, res_tilde):
            meta = res.grid_meta
            assert meta["grid_blocks"] >= 1
            used = meta["line_searches"]
            assert len(used) > meta["starts"]  # grid seeds plus spectral seeds
            assert all(0 < u <= meta["refine_budget"] for u in used)

    def test_budget_caps_line_searches(self):
        grid = GridSpec(
            theta_steps=8, diag_steps=5, chain_theta_steps=4, chain_diag_steps=3,
            deep_theta_steps=4, deep_diag_steps=3, refine_iters=3,
        )
        for res in self.run_all(grid):
            used = res.grid_meta["line_searches"]
            assert max(used) == 3 and all(u <= 3 for u in used)

    def test_unrefined_value_is_the_grid_maximum(self):
        grid = GridSpec(theta_steps=8, diag_steps=5, refine_iters=0)
        ch = make_channel(EXAMPLE_G1, EXAMPLE_G2)
        k = np.diag([3.0, 2.0])
        res = v_eta(ch, k, self.W.eta, grid)
        assert res.grid_meta["line_searches"] == []
        # brute force over the same (angle, sqrt-spaced scaling) nodes
        best = -np.inf
        for th in np.linspace(0, 2 * math.pi, 8, endpoint=False):
            v = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
            for d0 in np.linspace(0, 1, 5) ** 2:
                for d1 in np.linspace(0, 1, 5) ** 2:
                    b = np.linalg.cholesky(k) @ v * np.sqrt([d0, d1])
                    ks = b @ b.T
                    c = [0.5 * math.log2(np.linalg.det(np.eye(2) + g @ ks @ g.T))
                         for g in (np.array(EXAMPLE_G1), np.array(EXAMPLE_G2))]
                    best = max(best, c[1] - self.W.eta * c[0])
        assert res.value == pytest.approx(best, abs=1e-12)
