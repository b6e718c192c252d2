"""Property tests of the Pareto filters.

The triple filter walks the rows in descending lexicographic order and
tests each block only against the rows kept so far; the reference is the
quadratic definition in ``tests/oracles.py``.  The region builders'
pair filter must agree with the list filter, and the coarse-grid mask
of the K* sweep with the plain mask.  Inputs are tie-heavy: a few
integer levels per column, each entry shifted by 0, slack/2, slack or
2 * slack, so that many comparisons land exactly on the slack boundary
and many rows repeat.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secbc import RatePoint, RateTriple, pareto_filter_pairs, pareto_filter_triples
from secbc.regions import (
    PARETO_SLACK,
    _binned_pareto_mask,
    _pair_front,
    _pareto_mask,
    _pareto_rows_triples,
)

from oracles import pareto_rows_oracle

SLACKS = [0.0, PARETO_SLACK]


@st.composite
def tie_heavy(draw, cols=3, max_rows=700):
    """(rows, slack): integer levels plus offsets of 0, s/2, s and 2s."""
    slack = draw(st.sampled_from(SLACKS))
    n = draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, max_rows)))
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


@settings(max_examples=100, deadline=None)
@given(tie_heavy(max_rows=300))
def test_triple_filter_is_idempotent(case):
    arr, slack = case
    once = pareto_filter_triples([RateTriple(*row) for row in arr], slack)
    twice = pareto_filter_triples(once, slack)
    assert [(p.r0, p.r1, p.r2) for p in twice] == [(p.r0, p.r1, p.r2) for p in once]


@settings(max_examples=100, deadline=None)
@given(tie_heavy(cols=2, max_rows=300))
def test_pair_filter_is_idempotent(case):
    arr, slack = case
    once = pareto_filter_pairs([RatePoint(*row) for row in arr], slack)
    twice = pareto_filter_pairs(once, slack)
    assert [(p.r1, p.r2) for p in twice] == [(p.r1, p.r2) for p in once]


@settings(max_examples=100, deadline=None)
@given(tie_heavy(cols=2, max_rows=300), st.integers(0, 2**32 - 1))
def test_pair_front_matches_the_point_filter(case, seed):
    # negated entries, -0.0 among them, exercise the clamp at zero
    arr, _ = case
    arr = arr * np.random.default_rng(seed).choice([1.0, -1.0], size=arr.shape)
    tags = np.arange(len(arr), dtype=float)[:, None, None]
    fr = _pair_front(arr[:, 0], arr[:, 1], {"k": tags}, {})
    pts = pareto_filter_pairs([RatePoint(a, b, {"k": k}) for (a, b), k in zip(arr, tags)])
    assert fr.rates.tobytes() == np.array([(p.r1, p.r2) for p in pts]).reshape(-1, 2).tobytes()
    assert fr.gens["k"].ravel().tolist() == [p.gen["k"].item() for p in pts]


@settings(max_examples=200, deadline=None)
@given(tie_heavy(cols=2), st.sampled_from([0.0, 0.25, 0.75]))
def test_binned_mask_is_the_plain_mask(case, zeros):
    arr, slack = case
    r1, r2 = arr[:, 0].copy(), arr[:, 1]
    r1[: int(zeros * len(r1))] = 0.0
    assert _binned_pareto_mask(r1, r2, slack).tolist() == _pareto_mask(r1, r2, slack).tolist()


@pytest.mark.parametrize("slack", SLACKS)
def test_binned_mask_is_the_plain_mask_on_many_bins(slack):
    # thousands of distinct r1 values over a decreasing staircase, a
    # quarter of them at r1 = 0, r2 rounded so that many rows tie
    rng = np.random.default_rng(5)
    for _ in range(20):
        r1 = rng.uniform(0.0, 3.0, 5000) * (rng.random(5000) > 0.25)
        r2 = np.round(np.sqrt(9.0 - r1**2) * rng.uniform(0.8, 1.0, 5000), 3)
        assert _binned_pareto_mask(r1, r2, slack).tolist() == _pareto_mask(r1, r2, slack).tolist()


def test_negative_slack_raises():
    rows = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 2.0]])
    with pytest.raises(ValueError, match="slack"):
        _pareto_rows_triples(rows, -1e-12)
    with pytest.raises(ValueError, match="slack"):
        pareto_filter_triples([RateTriple(*row) for row in rows], -1.0)
