import itertools
import math
from dataclasses import replace

import time

import numpy as np
import pytest
from scipy.spatial import cKDTree

from secbc import EnvelopeWeights, GridSpec, make_channel, v_eta, v_hat, v_tilde
from secbc import envelopes, regions, sweeps
from secbc.matops import chained_factors, contractions, gram, half_log2, half_log2_det, rotation
from secbc.sweeps import (
    canonical_angles,
    children_factors,
    det_i_plus_diag,
    diag_combos,
    diag_values,
    diag_values_sqrt,
    grid_tables,
    pair_dets,
    simplex_grid,
    theta_values,
    top_k_bounded,
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


class TestTopKBounded:
    @pytest.mark.parametrize("rows_per_block", [1, 7, None])
    @pytest.mark.parametrize("k", [1, 4, 30])
    def test_equals_top_k_flat(self, rng, monkeypatch, rows_per_block, k):
        for n_rows, n_cols in [(1, 5), (23, 9), (64, 3), (200, 4)]:
            values = rng.integers(0, 5, size=(n_rows, n_cols)).astype(float)
            values[rng.random(n_rows) < 0.3] = 0.0  # degenerate rows tie
            per_block = n_rows if rows_per_block is None else rows_per_block
            monkeypatch.setattr(sweeps, "GRID_BLOCK_NODES", per_block * n_cols)
            # exact row maxima, or loose bounds above them
            for slack in (np.zeros(n_rows), rng.uniform(0.0, 3.0, n_rows)):
                bound = values.max(axis=1) + slack
                scored = []

                def score(rows):
                    assert np.all(np.diff(rows) > 0)
                    scored.extend(rows.tolist())
                    return values[rows]

                idx, vals, blocks, n_scored = top_k_bounded(score, bound, n_cols, k)
                expected = top_k_flat(values, k)
                assert idx.tolist() == expected.tolist()
                assert vals.tolist() == values.ravel()[expected].tolist()
                assert n_scored == len(scored) == len(set(scored)) <= n_rows
                assert blocks >= 1

    def test_rows_below_the_probe_are_skipped(self, monkeypatch):
        values = np.zeros((100, 3))
        values[:, 0] = np.arange(100.0)
        monkeypatch.setattr(sweeps, "GRID_BLOCK_NODES", 4 * 3)
        scored = []

        def score(rows):
            scored.extend(rows.tolist())
            return values[rows]

        idx, vals, _, n_scored = top_k_bounded(score, values.max(axis=1), 3, 2)
        assert vals.tolist() == [99.0, 98.0] and idx.tolist() == [297, 294]
        assert sorted(scored) == [96, 97, 98, 99] and n_scored == 4

    def test_a_tie_bounded_low_by_rounding_keeps_the_lowest_index(self, monkeypatch):
        # the probe (row 1) finds 3.0; row 0 holds 3.0 too, at a lower
        # index, but its bound sits 1e-13 below it
        values = np.array([[3.0], [3.0], [1.0]])
        monkeypatch.setattr(sweeps, "GRID_BLOCK_NODES", 1)
        bound = np.array([3.0 - 1e-13, 3.0, 1.0])
        idx, vals, _, _ = top_k_bounded(lambda rows: values[rows], bound, 1, 1)
        assert idx.tolist() == [0] and vals.tolist() == [3.0]

    def test_nan_bound_is_scored(self):
        values = np.array([[1.0, 0.0], [5.0, 2.0], [0.0, 0.0]])
        bound = np.array([1.0, np.nan, 0.0])
        idx, vals, _, _ = top_k_bounded(lambda rows: values[rows], bound, 2, 1)
        assert idx.tolist() == [2] and vals.tolist() == [5.0]


class TestTupleTables:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_diag_combos_is_the_lexicographic_product(self, n):
        values = np.array([0.0, 0.25, 1.0])
        got = diag_combos(values, n)
        assert got.shape == (3**n, n)
        assert got.tolist() == [list(p) for p in itertools.product(values, repeat=n)]

    def test_scalar_simplex_is_the_total(self):
        assert simplex_grid(1, 2.5, 7).tolist() == [[2.5]]


def gram_set(angles, tails):
    """Every V(theta) diag(e) V^T of ``angles`` x ``tails``, rounded to 1e-9."""
    v = rotation(angles[:, None], 2)
    grams = np.einsum("aij,nj,akj->anik", v, tails, v)
    return {tuple(g) for g in np.round(grams.reshape(-1, 4), 9) + 0.0}


class TestCanonicalAngles:
    TAILS = [diag_combos(np.array([0.0, 0.3, 1.0]), 2), simplex_grid(2, 3.0, 5)]

    @pytest.mark.parametrize("tails", range(len(TAILS)))
    @pytest.mark.parametrize("quarters", [4, 2])
    @pytest.mark.parametrize("steps", [*range(1, 9), 12, 16, 64])
    def test_t2_keeps_every_matrix_once(self, steps, quarters, tails):
        full = quarters * math.pi / 2
        angles = canonical_angles(2, steps, full)
        assert len(angles) == steps // math.gcd(quarters, steps)
        assert np.all((angles >= 0.0) & (angles < math.pi / 2))
        table = self.TAILS[tails]
        assert gram_set(angles, table) == gram_set(theta_values(steps, full), table)
        if steps % quarters == 0:
            assert angles.tobytes() == theta_values(steps, full)[: steps // quarters].tobytes()

    @pytest.mark.parametrize("t", [1, 3])
    def test_other_dimensions_keep_the_full_table(self, t):
        for full in (math.pi, 2 * math.pi):
            assert canonical_angles(t, 8, full).tobytes() == theta_values(8, full).tobytes()


def full_table(t, steps):
    """Every angle tuple of the [0, 2 pi) lattice and its rotation: the
    grid table before rotation classes."""
    tuples = diag_combos(theta_values(steps), t * (t - 1) // 2)
    return tuples, rotation(tuples, t)


def gram_rows(factors):
    """Upper triangles of the Grams of square-root factors (..., t, t)."""
    t = factors.shape[-1]
    i, j = np.triu_indices(t)
    return gram(factors.reshape(-1, t, t))[:, i, j]


def nodes_per_matrix(factors):
    """Grid nodes per distinct Gram, the Grams rounded to 1e-9."""
    rows = np.round(gram_rows(factors), 9) + 0.0
    return len(rows) / len(np.unique(rows, axis=0))


def distinct_tuples(dvals, t):
    """Every ordering of t distinct values of ``dvals`` (its first, middle
    and last): nodes whose matrix has one parameterization per rotation
    of a class, since a repeated scaling leaves its eigenvectors free."""
    pick = dvals[[0, len(dvals) - 1, len(dvals) // 2][:t]]
    return np.array(list(itertools.permutations(pick)))


def rounded_set(rows):
    """Distinct rows of an array, rounded to 1e-9 (a sorted array)."""
    return np.unique(np.round(rows, 9) + 0.0, axis=0)


def children_by_outer(outer_rots, inner_rots, combos, stride):
    """Children Grams of a two-level grid below I, grouped by the rounded
    Gram of their outer node: every stride-th distinct outer Gram."""
    t = combos.shape[1]
    outer = children_factors(np.eye(t)[None], outer_rots, combos).reshape(-1, t, t)
    keys = [row.tobytes() for row in np.round(gram_rows(outer), 9) + 0.0]
    wanted = set(sorted(set(keys))[::stride])
    groups = {}
    for f, key in zip(outer, keys):
        if key in wanted:
            children = children_factors(f[None], inner_rots, combos)
            groups.setdefault(key, []).append(gram_rows(children))
    return {key: np.concatenate(rows) for key, rows in groups.items()}


class TestChildrenFactors:
    @pytest.mark.parametrize("chained", [False, True])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_equals_the_matops_chain(self, t, chained):
        # an outer grid factor is bitwise the factor chained_factors
        # rebuilds from its (angles, scalings) row
        tab = grid_tables(t, 8, diag_values(3), chained=chained)
        parents = np.random.default_rng(t).normal(size=(3, t, t))
        nv, nd = len(tab.outer_rots), len(tab.combos)
        rows = np.hstack([np.repeat(tab.outer_tuples, nd, axis=0), np.tile(tab.combos, (nv, 1))])
        cs = np.tile(contractions(rows, t), (len(parents), 1, 1))
        want = chained_factors(np.repeat(parents, nv * nd, axis=0), cs[:, None])
        got = children_factors(parents, tab.outer_rots, tab.combos)
        assert got.shape == (len(parents), nv, nd, t, t)
        assert got.tobytes() == want.tobytes()


class TestRotationClasses:
    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize("steps", [3, 4, 6, 8, 16])
    def test_kept_rows_hold_every_matrix(self, t, steps):
        tab = grid_tables(t, steps, np.array([0.0, 0.3, 1.0]))
        tuples, rots = full_table(t, steps)
        index = {row.tobytes(): i for i, row in enumerate(tuples)}
        kept = np.array([index[row.tobytes()] for row in tab.tuples])
        assert np.all(np.diff(kept) > 0)
        assert tab.rots.tobytes() == rots[kept].tobytes()
        eye = np.eye(t)[None]
        full = gram_rows(children_factors(eye, rots, tab.combos))
        dist, _ = cKDTree(gram_rows(children_factors(eye, tab.rots, tab.combos))).query(full)
        assert dist.max() <= 1e-9

    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("steps", [4, 8, 12, 16, 64, 128])
    def test_low_dimensions_keep_the_canonical_table(self, t, steps):
        # at t = 2 the kept angles are bitwise those of [0, pi/2) when 4
        # divides the steps (every default grid), in every level
        angles = canonical_angles(t, steps, 2 * math.pi)
        tuples = diag_combos(angles, t * (t - 1) // 2)
        tab = grid_tables(t, steps, diag_values(3), chained=True)
        for got in (tab.tuples, tab.outer_tuples):
            assert got.tobytes() == tuples.tobytes()
        assert tab.rots.tobytes() == tab.outer_rots.tobytes() == rotation(tuples, t).tobytes()

    @pytest.mark.parametrize(
        "t,steps,closed", [(2, 3, True), (2, 6, True), (3, 3, True), (3, 4, True), (3, 6, True),
                           (3, 8, False), (3, 12, False), (3, 16, False)]
    )
    def test_outer_levels_drop_rotations_only_in_closed_lattices(self, t, steps, closed):
        tab = grid_tables(t, steps, diag_values(3), chained=True)
        assert tab.tuples.tobytes() == grid_tables(t, steps, diag_values(3)).tuples.tobytes()
        outer = tab.tuples if closed else full_table(t, steps)[0]
        assert tab.outer_tuples.tobytes() == outer.tobytes()

    @pytest.mark.parametrize("chained", [False, True])
    @pytest.mark.parametrize("t", [2, 3])
    def test_innermost_level_keeps_one_rotation_per_class(self, t, chained):
        tab = grid_tables(t, 8, diag_values(3), chained=chained)
        classes = sweeps._class_ids(full_table(t, 8)[1])
        assert len(tab.rots) == classes.max() + 1
        assert len(np.unique(sweeps._class_ids(tab.rots))) == len(tab.rots)

    @pytest.mark.parametrize(
        "t,steps,stride", [(2, 6, 1), (2, 8, 1), (3, 4, 1), (3, 6, 1), (3, 8, 20)]
    )
    def test_chained_grid_holds_every_pair(self, t, steps, stride):
        # below every outer matrix of the full two-level lattice grid, the
        # table's grid reaches the same children matrices (every stride-th
        # outer matrix is checked); the scalings are distinct, so every
        # member of a rotation class gives its own parameterization
        tab = grid_tables(t, steps, np.array([0.0]), chained=True)
        combos = distinct_tuples(np.array([0.2, 0.5, 1.0]), t)
        full = full_table(t, steps)[1]
        want = children_by_outer(full, full, combos, stride)
        got = children_by_outer(tab.outer_rots, tab.rots, combos, 1)
        assert len(tab.rots) < len(full)
        for key, rows in want.items():
            for a, b in ((rows, got[key]), (got[key], rows)):
                assert cKDTree(b).query(a)[0].max() <= 1e-9

    # (t, theta steps, diag steps): GridSpec's single, chain and deep
    # levels, and the t = 3 grids of the compare cases and the benchmark
    DEFAULT_TABLES = [
        (t, *lev) for t in (1, 2, 3) for lev in ((64, 33), (16, 9), (8, 5))
    ] + [(3, 8, 9), (3, 4, 3)]

    @pytest.mark.parametrize("t,theta,diag", DEFAULT_TABLES)
    def test_every_default_table_scores_each_matrix_once(self, t, theta, diag):
        tab = grid_tables(t, theta, diag_values(diag))
        combos = distinct_tuples(tab.dvals, t)
        assert nodes_per_matrix(children_factors(np.eye(t)[None], tab.rots, combos)) == 1.0

    def test_chain_4_3_table_was_one_class_of_64(self):
        rots = full_table(3, 4)[1]
        combos = distinct_tuples(diag_values(3), 3)
        assert nodes_per_matrix(children_factors(np.eye(3)[None], rots, combos)) == 64.0

    @pytest.mark.parametrize("steps,count", [(4, 1), (6, 27), (8, 14), (16, 172)])
    def test_t3_class_counts(self, steps, count):
        assert len(grid_tables(3, steps, diag_values(3)).rots) == count

    @pytest.mark.parametrize("t", [2, 3])
    def test_trace_grids(self, t):
        # the u-ball grid of frontier_power at the t = 3 compare grid
        # (theta_steps = 8): one row per matrix at t = 2, but at t = 3
        # every rotation of the lattice is kept, 512 rows for 14 classes
        tails = distinct_tuples(np.array([0.0, 0.5, 1.0]), t)
        x = regions._trace_grid(t, 8, tails)
        ratio = nodes_per_matrix(sweeps.contractions(x, t))
        assert ratio == (1.0 if t == 2 else 512 / 14)

    def test_t3_table_builds_fast(self):
        best = math.inf
        for _ in range(5):
            sweeps._cached_tables.cache_clear()  # time a build, not a cache hit
            start = time.perf_counter()
            grid_tables(3, 16, diag_values(9))
            best = min(best, time.perf_counter() - start)
        assert best < 0.05


class TestGridTablesCache:
    @pytest.mark.parametrize(
        "t,steps,chained", [(1, 4, False), (2, 16, True), (3, 8, True), (3, 6, False)]
    )
    def test_cached_tables_are_read_only_cold_builds(self, t, steps, chained):
        dvals = diag_values(5)
        tab = grid_tables(t, steps, dvals, chained)
        cold = sweeps._cached_tables.__wrapped__(t, steps, dvals.tobytes(), chained)
        for name in ("tuples", "rots", "outer_tuples", "outer_rots", "dvals", "combos"):
            arr, want = getattr(tab, name), getattr(cold, name)
            assert arr.shape == want.shape and arr.tobytes() == want.tobytes()
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0.0

    def test_equal_values_share_one_entry(self):
        dvals = [0.0, 0.25, 1.0]
        tab = grid_tables(2, 12, np.array(dvals))
        assert grid_tables(2, 12, dvals) is tab
        assert grid_tables(2, 12, tuple(dvals)) is tab
        assert grid_tables(2, 12, dvals, chained=True) is not tab
        assert grid_tables(2, 12, [0.0, 0.25, 0.5]) is not tab

    def test_table_does_not_alias_the_callers_values(self):
        dvals = np.array([0.0, 0.5, 1.0])
        tab = grid_tables(2, 8, dvals)
        dvals[1] = 0.75
        assert tab.dvals.tolist() == [0.0, 0.5, 1.0]
        assert grid_tables(2, 8, dvals).dvals.tolist() == [0.0, 0.75, 1.0]


class TestPairDetsSubsets:
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_any_batch_gives_the_same_bits(self, rng, t):
        # lone rows included: a parent's determinants never depend on
        # which other parents share the call
        tab = grid_tables(t, 3, np.linspace(0.0, 1.0, 3) ** 2)
        parents = rng.normal(size=(9, t, t))
        g = rng.normal(size=(t, t))
        full = pair_dets(g, parents, tab.rots, tab.dgrids)
        for rows in ([0], [4], [8], [2, 5], [1, 3, 8]):
            part = pair_dets(g, parents[rows], tab.rots, tab.dgrids)
            assert part.tobytes() == full[rows].tobytes()


class TestOuterLevelScores:
    """An outer level of a chained grid is scored by pair_dets of its
    parents, in the flat order of their children_factors rows, which the
    terms and bound of _layered_max and the r0 of _common_triples use."""

    # the t = 3 4-step lattice is closed (one rotation per class in every
    # level), the 8-step one is not (the outer levels keep all 512)
    @pytest.mark.parametrize("t,steps", [(1, 4), (2, 8), (2, 16), (3, 4), (3, 8)])
    def test_scores_are_the_childrens_determinants(self, rng, t, steps):
        tab = grid_tables(t, steps, diag_values_sqrt(3), chained=True)
        parents = rng.normal(size=(3, t, t))
        parents[2, :, 0] = 0.0  # a singular parent
        g = rng.normal(size=(t, t))
        got = half_log2(pair_dets(g, parents, tab.outer_rots, tab.dgrids)).ravel()
        children = children_factors(parents, tab.outer_rots, tab.combos).reshape(-1, t, t)
        want = half_log2_det(g, gram(children))
        assert got.shape == want.shape == (len(parents) * len(tab.outer_rots) * len(tab.combos),)
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))


class TestDetIPlusDiag:
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_matches_the_determinant(self, rng, t):
        a = rng.normal(size=(4, t, t))
        m = np.swapaxes(a, -1, -2) @ a
        d = rng.uniform(0.0, 3.0, size=(t, 5, 1))  # a grid of diagonals per matrix
        got = det_i_plus_diag(m, list(d))
        assert got.shape == (5, 4)
        for i in range(5):
            for j in range(4):
                ref = np.linalg.det(np.eye(t) + np.diag(d[:, i, 0]) @ m[j])
                assert got[i, j] == pytest.approx(ref, rel=1e-12)


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

    def test_byte_identical_reruns(self, fast_grid, monkeypatch):
        monkeypatch.setattr(sweeps, "GRID_BLOCK_NODES", 100)
        runs = [self.run_all(fast_grid) for _ in range(2)]
        for one, two in zip(*runs):
            assert np.float64(one.value).tobytes() == np.float64(two.value).tobytes()
            for a, b in zip(one.argmax_splits, two.argmax_splits):
                assert a.tobytes() == b.tobytes()
            # phase_s holds timings, the only entries that vary from run to run
            timeless = [{k: v for k, v in r.grid_meta.items() if k != "phase_s"} for r in (one, two)]
            assert timeless[0] == timeless[1]
            assert one.grid_meta["grid_blocks"] > 2

    def test_grid_meta_reports_nodes_blocks_and_budget(self, fast_grid):
        res_eta, res_hat, res_tilde = self.run_all(fast_grid)
        nd = lambda steps: steps**2  # t = 2: one angle, two scalings
        # canonical angles of 16, 8 and 6 steps on [0, 2 pi): 4, 2 and 3
        assert res_eta.grid_meta["grid_nodes"] == 4 * nd(9)
        assert res_hat.grid_meta["grid_nodes"] == (2 * nd(5)) ** 2
        assert res_tilde.grid_meta["grid_nodes"] == (3 * nd(4)) ** 3
        for res in (res_eta, res_hat, res_tilde):
            meta = res.grid_meta
            assert meta["grid_blocks"] >= 1
            used = meta["iterations"]
            assert len(used) > meta["starts"]  # grid seeds plus spectral seeds
            # a start at a stationary point takes no step
            assert all(0 <= u <= meta["refine_budget"] for u in used) and max(used) > 0
            assert 0.0 <= meta["kkt_residual"] <= 1e-6

    def test_grid_meta_reports_phases_and_evaluations(self, fast_grid):
        for grid in (fast_grid, replace(fast_grid, refine_iters=0)):
            for res in self.run_all(grid):
                meta = res.grid_meta
                assert meta["path"] == "grid"
                assert set(meta["phase_s"]) == {"grid", "polish"}
                assert all(s >= 0.0 for s in meta["phase_s"].values())
                # every objective call advances each live start by at most one iteration
                assert meta["evaluations"] >= max(meta["iterations"], default=0)
                assert (meta["evaluations"] > 0) == (grid.refine_iters > 0)

    def test_budget_caps_line_searches(self, fast_grid):
        # each SPG iteration is one line search
        grid = GridSpec(
            theta_steps=8, diag_steps=5, chain_theta_steps=4, chain_diag_steps=3,
            deep_theta_steps=4, deep_diag_steps=3, refine_iters=3,
        )
        for res in self.run_all(grid):
            used = res.grid_meta["iterations"]
            assert max(used) == 3 and all(u <= 3 for u in used)
            capped = res.grid_meta["capped"]
            assert capped and capped == [i for i, u in enumerate(used) if u == 3]
        for res in self.run_all(fast_grid):
            assert res.grid_meta["capped"] == []

    def test_unrefined_value_is_the_grid_maximum(self):
        grid = GridSpec(theta_steps=8, diag_steps=5, refine_iters=0)
        ch = make_channel(EXAMPLE_G1, EXAMPLE_G2)
        k = np.diag([3.0, 2.0])
        res = v_eta(ch, k, self.W.eta, grid)
        assert res.grid_meta["iterations"] == []
        assert res.grid_meta["kkt_residual"] > 0.0  # the grid node is not stationary
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


def unpruned(score, bound, n_cols, k):
    """top_k_bounded's contract, met by scoring every row."""
    idx, vals, blocks = top_k_rows(lambda lo, hi: score(np.arange(lo, hi)), len(bound), n_cols, k)
    return idx, vals, blocks, len(bound)


class TestInnermostPruning:
    """The bound-pruned innermost level gives the unpruned reduction's bits."""

    GRIDS = {
        1: GridSpec(chain_theta_steps=2, chain_diag_steps=7, deep_theta_steps=2,
                    deep_diag_steps=6, refine_iters=0),
        2: GridSpec(chain_theta_steps=4, chain_diag_steps=3, deep_theta_steps=3,
                    deep_diag_steps=3, refine_iters=0),
        3: GridSpec(chain_theta_steps=2, chain_diag_steps=2, deep_theta_steps=1,
                    deep_diag_steps=2, refine_iters=0),
    }

    def results(self, ch, k, grid):
        out = []
        for eta in (0.8, 1.3):
            w = EnvelopeWeights(lambda0=2.0, lambda1=1.0, lambda2=0.7, eta=eta)
            out.append(v_hat(ch, k, w, grid))
            for alpha in (0.0, 0.4, 1.0):
                out.append(v_tilde(ch, k, replace(w, alpha=alpha), grid))
        return out

    @pytest.mark.parametrize("nodes", [7, 500])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_equals_the_unpruned_reduction_bitwise(self, rng, monkeypatch, t, nodes):
        monkeypatch.setattr(sweeps, "GRID_BLOCK_NODES", nodes)
        ch = make_channel(rng.normal(size=(t, t)) * 1.5, rng.normal(size=(t, t)) * 1.5)
        k = rng.normal(size=(t, t))
        k = k @ k.T + 0.5 * np.eye(t)
        # refined, t = 1 takes the closed form and t = 3 is slow
        grids = [self.GRIDS[t]] + ([replace(self.GRIDS[t], refine_iters=4)] if t == 2 else [])
        for grid in grids:
            pruned = self.results(ch, k, grid)
            with monkeypatch.context() as m:
                m.setattr(envelopes, "top_k_bounded", unpruned)
                full = self.results(ch, k, grid)
            for a, b in zip(pruned, full):
                assert np.float64(a.value).tobytes() == np.float64(b.value).tobytes()
                for sa, sb in zip(a.argmax_splits, b.argmax_splits):
                    assert sa.tobytes() == sb.tobytes()
                assert a.grid_meta["iterations"] == b.grid_meta["iterations"]
                assert a.grid_meta["kkt_residual"] == b.grid_meta["kkt_residual"]
                assert a.grid_meta["nodes_scored"] <= b.grid_meta["nodes_scored"]
            # a one-row probe may set too low a threshold to skip anything
            if nodes == 500:
                assert any(r.grid_meta["nodes_scored"] < r.grid_meta["grid_nodes"] for r in pruned)

    def test_default_v_tilde_scores_few_rows(self):
        ch = make_channel(EXAMPLE_G1, EXAMPLE_G2)
        w = EnvelopeWeights(lambda0=2.0, lambda1=1.0, lambda2=0.7, eta=1.2, alpha=0.4)
        meta = v_tilde(ch, np.diag([3.0, 2.0]), w, GridSpec(refine_iters=0)).grid_meta
        assert meta["nodes_scored"] < meta["grid_nodes"] / 4
