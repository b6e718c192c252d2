"""Property tests of the Pareto filters.

The triple filter walks the rows in descending lexicographic order and
tests each block only against the rows kept so far; the reference is the
quadratic definition in ``tests/oracles.py``.  Inputs are tie-heavy: a
few integer levels per column, each entry shifted by 0, slack/2, slack
or 2 * slack, so that many comparisons land exactly on the slack
boundary and many rows repeat.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secbc import RatePoint, RateTriple, pareto_filter_pairs, pareto_filter_triples
from secbc.regions import PARETO_SLACK, _pareto_rows_triples

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


def test_negative_slack_raises():
    rows = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 2.0]])
    with pytest.raises(ValueError, match="slack"):
        _pareto_rows_triples(rows, -1e-12)
    with pytest.raises(ValueError, match="slack"):
        pareto_filter_triples([RateTriple(*row) for row in rows], -1.0)
