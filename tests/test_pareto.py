"""Property tests of the Pareto filters.

The triple filter walks the rows in descending lexicographic order and
tests each block only against the rows kept so far, after an (r0, r1)
cell prefilter on finite inputs; the reference is the quadratic
definition in ``tests/oracles.py``.  The pair mask, which
drops rows of a dominated r1 bin before its sort, must agree with its
own quadratic definition there, and the region builders' pair frontier
with the row filter of the clamped rates.  Inputs are tie-heavy: a few
integer levels per column, each entry shifted by 0, slack/2, slack or
2 * slack, so that many comparisons land exactly on the slack boundary
and many rows repeat.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secbc.regions import (
    _PREFILTER_BINS,
    PARETO_SLACK,
    _pair_front,
    _pair_rows,
    _pareto_mask,
    _pareto_rows_triples,
    _triple_front,
)

from oracles import pair_mask_oracle, pareto_rows_oracle

SLACKS = [0.0, PARETO_SLACK]


@st.composite
def tie_heavy(draw, cols=3, max_rows=700, min_rows=None):
    """(rows, slack): integer levels plus offsets of 0, s/2, s and 2s;
    0 or 1 rows in some cases unless ``min_rows`` is given."""
    slack = draw(st.sampled_from(SLACKS))
    if min_rows is None:
        n = draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, max_rows)))
    else:
        n = draw(st.integers(min_rows, max_rows))
    levels = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.integers(0, levels, size=(n, cols)) * draw(st.sampled_from([1.0, 0.25, 1e-9]))
    shift = rng.choice([0.0, 0.5, 1.0, 2.0], size=(n, cols)) * PARETO_SLACK
    return base + shift, slack


@settings(max_examples=200, deadline=None)
@given(tie_heavy())
def test_triple_filter_matches_quadratic_definition(case):
    arr, slack = case
    got = _pareto_rows_triples(arr, slack)
    assert got.tolist() == pareto_rows_oracle(arr, slack).tolist()


@settings(max_examples=60, deadline=None)
@given(tie_heavy(min_rows=300, max_rows=1500))
def test_triple_prefilter_matches_quadratic_definition(case):
    # larger inputs, where the (r0, r1) cells hold many rows each
    arr, slack = case
    meta = {}
    got = _pareto_rows_triples(arr, slack, meta)
    assert got.tolist() == pareto_rows_oracle(arr, slack).tolist()
    assert 0 <= meta["prefiltered"] <= len(arr) - len(got)


@pytest.mark.parametrize("slack", SLACKS)
@pytest.mark.parametrize("steep", [0, 1])
def test_triple_prefilter_keeps_a_steep_front(steep, slack):
    # a front where r0 (or r1) falls by a hundredth of what the other two
    # gain, so rows of one of its bins reach far higher values in both
    # others without dominating; and random rows under it, most of them
    # in cells below a front row
    rng = np.random.default_rng(8 + steep)
    others = rng.uniform(0.0, 1.0, (1000, 2))
    front = np.insert(others, steep, 1.0 - 0.01 * others.sum(axis=1), axis=1)
    arr = np.vstack([front, rng.uniform(0.0, 0.95, (1000, 3))])
    meta = {}
    got = _pareto_rows_triples(arr, slack, meta)
    assert got.tolist() == pareto_rows_oracle(arr, slack).tolist()
    assert set(range(1000)) <= set(got.tolist())
    assert meta["prefiltered"] > 500


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", [0, 1, 2])
def test_nonfinite_triples_skip_the_prefilter(bad, column):
    rng = np.random.default_rng(7)
    arr = np.round(rng.uniform(0.0, 3.0, (1024, 3)), 1)
    arr[[5, 600], column] = bad
    for slack in SLACKS:
        meta = {}
        got = _pareto_rows_triples(arr, slack, meta)
        assert meta["prefiltered"] == 0
        # the walk alone; a NaN compares with nothing, so its rows stay
        assert got.tolist() == pareto_rows_oracle(arr, slack).tolist()
    # the finite rows alone are prefiltered
    meta = {}
    _pareto_rows_triples(np.delete(arr, [5, 600], axis=0), 0.0, meta)
    assert meta["prefiltered"] > 0


@settings(max_examples=100, deadline=None)
@given(tie_heavy(max_rows=300))
def test_triple_filter_is_idempotent(case):
    arr, slack = case
    once = arr[_triple_front(arr, slack)]
    assert once[_triple_front(once, slack)].tobytes() == once.tobytes()


@settings(max_examples=100, deadline=None)
@given(tie_heavy(cols=2, max_rows=300))
def test_pair_filter_is_idempotent(case):
    arr, slack = case
    once = arr[_pair_rows(arr, slack)]
    assert once[_pair_rows(once, slack)].tobytes() == once.tobytes()


@settings(max_examples=100, deadline=None)
@given(tie_heavy(cols=2, max_rows=300), st.integers(0, 2**32 - 1))
def test_pair_front_matches_the_row_filter(case, seed):
    # negated entries, -0.0 among them, exercise the clamp at zero, which
    # gives max(0.0, r) bitwise (so -0.0 becomes 0.0)
    arr, _ = case
    arr = arr * np.random.default_rng(seed).choice([1.0, -1.0], size=arr.shape)
    tags = np.arange(len(arr), dtype=float)[:, None, None]
    fr = _pair_front(arr[:, 0], arr[:, 1], {"k": tags}, {})
    clamped = np.array([max(0.0, float(r)) for r in arr.ravel()]).reshape(-1, 2)
    rows = _pair_rows(clamped)
    assert fr.rates.tobytes() == clamped[rows].tobytes()
    assert fr.gens["k"].ravel().tolist() == rows.tolist()


SIZES = [0, 1, 2, _PREFILTER_BINS - 1, _PREFILTER_BINS, _PREFILTER_BINS + 1, 3 * _PREFILTER_BINS]


@st.composite
def tie_heavy_pairs(draw):
    """(r1, r2, slack): tie-heavy pairs on both sides of the prefilter's
    size limit, with negated entries (-0.0 among them) and, in some
    cases, constant r1."""
    slack = draw(st.sampled_from(SLACKS))
    n = draw(st.sampled_from(SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([1, 3, 40, 1000]))
    base = rng.integers(0, levels, size=(n, 2)) * draw(st.sampled_from([1.0, 0.25, 1e-9]))
    arr = base + rng.choice([0.0, 0.5, 1.0, 2.0], size=(n, 2)) * PARETO_SLACK
    if draw(st.booleans()):
        arr *= rng.choice([1.0, -1.0], size=arr.shape)
    r1, r2 = arr[:, 0].copy(), arr[:, 1].copy()
    if draw(st.booleans()):
        r1[: int(draw(st.sampled_from([0.25, 1.0])) * n)] = draw(st.sampled_from([0.0, -0.0, 0.5]))
    return r1, r2, slack


def plain_mask(r1, r2, slack):
    """The mask of one stable sort of every row, with no prefilter."""
    order = np.lexsort((-r2, -r1))
    r2s = r2[order]
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = r2s[1:] > np.maximum.accumulate(r2s)[:-1] + slack
    mask = np.zeros(len(order), dtype=bool)
    mask[order[keep]] = True
    return mask


@pytest.fixture
def sorted_rows(monkeypatch):
    """Row counts of the sorts of the pair mask (it sorts with np.lexsort)."""
    sizes, inner = [], np.lexsort

    def spy(keys):
        sizes.append(len(keys[0]))
        return inner(keys)

    monkeypatch.setattr(np, "lexsort", spy)
    return sizes


@settings(max_examples=150, deadline=None)
@given(tie_heavy_pairs())
def test_pair_mask_matches_quadratic_definition(case):
    r1, r2, slack = case
    assert _pareto_mask(r1, r2, slack).tolist() == pair_mask_oracle(r1, r2, slack).tolist()


@pytest.mark.parametrize("slack", SLACKS)
@pytest.mark.parametrize("n", [_PREFILTER_BINS - 1, _PREFILTER_BINS + 1, 5000])
def test_pair_mask_matches_quadratic_definition_on_many_bins(slack, n, sorted_rows):
    # thousands of distinct r1 values over a decreasing staircase, shifted
    # to straddle zero, a quarter at its lowest value; r2 rounded so that
    # many rows tie
    rng = np.random.default_rng(5)
    for _ in range(5):
        r1 = rng.uniform(0.0, 3.0, n) * (rng.random(n) > 0.25)
        r2 = np.round(np.sqrt(9.0 - r1**2) * rng.uniform(0.8, 1.0, n), 3)
        r1 -= 1.5
        assert _pareto_mask(r1, r2, slack).tolist() == pair_mask_oracle(r1, r2, slack).tolist()
    # the prefilter runs above its size limit only, and there sorts few rows
    if n < _PREFILTER_BINS:
        assert sorted_rows == [n] * 5
    else:
        assert max(sorted_rows) < n / 4


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", [0, 1])
def test_nonfinite_rows_sort_every_row(bad, column, sorted_rows):
    rng = np.random.default_rng(6)
    n = 3 * _PREFILTER_BINS
    arr = np.round(rng.uniform(0.0, 3.0, (n, 2)), 2)
    arr[n // 2, column] = bad
    for slack in SLACKS:
        got = _pareto_mask(arr[:, 0], arr[:, 1], slack)
        assert got.tolist() == plain_mask(arr[:, 0], arr[:, 1], slack).tolist()
    assert sorted_rows == [n, n] * 2  # the mask's sort, then the reference's


def test_negative_slack_raises():
    rows = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 2.0]])
    with pytest.raises(ValueError, match="slack"):
        _pareto_rows_triples(rows, -1e-12)
    with pytest.raises(ValueError, match="slack"):
        _triple_front(rows, -1.0)
