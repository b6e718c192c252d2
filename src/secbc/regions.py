"""Rate-region enumeration and Pareto frontiers.

Four families of regions are computed, all as unions of boxes indexed by
generating covariances:

- fixed-covariance pair region: rectangles over sub-covariances K* of K
  (confidential rate, private rate);
- power-constraint pair region: the private rate depends on K only
  through C2(K), so the union over K and K* <= K is taken over K* alone
  with tr K* <= P, each box reaching the closed-form water-filling
  capacity W(K*) of the power left after K*;
- common-message triple regions (fixed covariance and power);
- the comparison region where both private messages are confidential.

Every covariance under the power constraint is K = V diag(e) V^T, a
Givens product V of angles and eigenvalues e >= 0, built from rows
(angles, e) by one factor builder (:func:`secbc.matops.contractions`).  Its grids
cross the angle tuples with a table of eigenvalue rows
(:func:`_trace_grid`), and there are two such tables: the trace-P
simplex (``simplex_grid``) for the constraint matrices of the
both-confidential and common-message sweeps, and the u-ball e = P u^2
with sum u^2 <= 1 for the K* of the pair region, whose coarse grid is
then zoomed around its Pareto nodes.  For t <= 2 those K* nodes are
scored in closed form from their parameters alone (:func:`_kstar_rates`):
each determinant from cos 2 theta, sin 2 theta, the eigenvalues and
three scalars of the gain's Gram matrix, and the water-filling spectrum
as the roots of a quadratic, with no per-node matrix; K* matrices are
built for the kept nodes only.

Frontiers hold their rates as one array and the generating covariances
of every point as (n, t, t) stacks beside it (:class:`Frontier`), so any
output row can be re-verified by plugging the matrices back into the
rate formulas.  A fixed constraint repeated on every row (``k`` of
:func:`frontier_fixed_cov` and :func:`region_common_fixed`) is stored
once, as a stride-0 view that every row reduction keeps (:func:`_take`).
Every rate term comes from the checked kernel of
:mod:`secbc.matops`, so a determinant that overflows raises
``FloatingPointError`` instead of giving a NaN rate.  Sweeps follow the
grid resolutions in :class:`GridSpec`.  The
max-confidential-rate corner of every region is the closed-form wiretap
optimum of its constraint matrix (:func:`wtc_capacity`).  Under a power
constraint the pair regions take the power corner max h_1(K*) - h_2(K*)
over tr K* <= P from :func:`wtc_capacity_power`, one smooth problem: the
closed-form argmax under the isotropic constraint (P/t) I is the one
start of the projected-gradient polish of :mod:`secbc.sweeps` over
K* = P C C^T on the ball ||C||_F <= 1, and no grid is built.  The
max-R2 corner of the both-confidential region is the same problem with
the users swapped.  The common-message region takes the best of its
manifold nodes.

Every grid is streamed in the row blocks of :func:`secbc.sweeps.row_blocks`
(at most about ``GRID_BLOCK_NODES`` nodes each), scored in order on
one thread.  Both common-message regions run one kernel
(:func:`_common_triples`) over a batch of constraints: one K, or every
trace-P manifold node.  Its (r0, r1) cell scales are known before any
inner node is scored, so each block is cut at once to one winner per
cell, and the output-sensitive triple Pareto filter runs once.  Blocks
are merged in order, so output does not depend on the block size.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import GaussianBc, check_cov, check_power
from .matops import (
    SubCovParams,
    chained_factors,
    compose_sub_cov,
    contractions,
    gram,
    half_log2,
    half_log2_det,
    sqrt_factor,
    sym_sqrt,
)
from .sweeps import (
    GridSpec,
    canonical_angles,
    canonical_steps,
    children_factors,
    det_i_plus_gram,
    diag_combos,
    diag_values,
    grid_params,
    grid_tables,
    layered_value_grad,
    pair_dets,
    pair_dets_rows,
    row_blocks,
    simplex_grid,
    spg_max,
)

__all__ = [
    "RatePoint",
    "RateTriple",
    "Frontier",
    "frontier_fixed_cov",
    "wtc_capacity",
    "wtc_capacity_power",
    "frontier_power",
    "region_common_fixed",
    "region_common_power",
    "both_confidential_frontier",
    "check_k1_zero",
]

PARETO_SLACK = 1e-9
# Zoom schedule of the K* sweep behind frontier_power: refinement levels
# after the coarse grid, points per axis of each level's local grid, and
# how many parameters one local-grid point may move at once.
ZOOM_LEVELS = 6
ZOOM_POINTS = 3
ZOOM_AXES = 2
# Its blocks hold GRID_BLOCK_NODES / _KSTAR_SHARE nodes, whose scores stay in cache.
_KSTAR_SHARE = 16


@dataclass
class RatePoint:
    """A (R1, R2) pair with the covariances that generate it."""

    r1: float
    r2: float
    gen: dict = field(default_factory=dict)

    def __post_init__(self):
        self.r1 = max(0.0, float(self.r1))
        self.r2 = max(0.0, float(self.r2))


@dataclass
class RateTriple:
    """A (R0, R1, R2) triple with the covariances that generate it."""

    r0: float
    r1: float
    r2: float
    gen: dict = field(default_factory=dict)

    def __post_init__(self):
        self.r0 = max(0.0, float(self.r0))
        self.r1 = max(0.0, float(self.r1))
        self.r2 = max(0.0, float(self.r2))


@dataclass
class Frontier:
    """Pareto-maximal points as columns, plus sweep metadata.

    ``rates`` holds rows (R1, R2) or (R1, R2, R0), clamped at zero and
    sorted by those columns; ``gens`` maps each generator name ("k",
    "kstar"; or "k", "k1", "k2") to the (n, t, t) stack of its matrices.
    A stack that repeats one matrix may be a read-only stride-0 view.
    Every builder and emitter works on these columns; :attr:`points` is a
    per-point view of them, built on each access and never stored, so a
    frontier holds only its columns.
    """

    rates: np.ndarray
    gens: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @property
    def points(self) -> list:
        """The rows as :class:`RatePoint` or :class:`RateTriple` objects,
        built anew on each access."""
        rows = self.rates.tolist()
        mats = [dict(zip(self.gens, row)) for row in zip(*self.gens.values())]
        mats = mats or [{} for _ in rows]
        if self.is_triple:
            return [RateTriple(r0, r1, r2, g) for (r1, r2, r0), g in zip(rows, mats)]
        return [RatePoint(r1, r2, g) for (r1, r2), g in zip(rows, mats)]

    @property
    def is_triple(self) -> bool:
        return self.rates.shape[1] == 3

    def max_r1(self) -> float:
        return float(self.rates[:, 0].max()) if len(self.rates) else 0.0

    def max_r2(self) -> float:
        return float(self.rates[:, 1].max()) if len(self.rates) else 0.0

    def r2_available(self, r1: float, slack: float = 0.0) -> float:
        """Largest R2 on the frontier among points with R1 >= r1 - slack."""
        r2 = self.rates[self.rates[:, 0] >= r1 - slack, 1]
        return float(r2.max()) if len(r2) else -np.inf


def _clamp(rates: np.ndarray) -> np.ndarray:
    """max(0, r) entrywise, as ``max(0.0, r)`` gives it: -0.0 becomes 0.0."""
    return np.where(rates > 0.0, rates, 0.0)


# r1 bins of the exact prefilter of _pareto_mask, which runs on more rows.
_PREFILTER_BINS = 1024
# (r0, r1) bins per axis of the prefilter of _pareto_rows_triples.
_TRIPLE_BINS = 64


def _pareto_mask(r1: np.ndarray, r2: np.ndarray, slack: float = PARETO_SLACK):
    """Boolean mask of Pareto-maximal (r1, r2) pairs, slack-tolerant.

    In the order (r1 desc, r2 desc, index asc) a row is kept unless an
    earlier row has r2 >= its r2 - slack (the running maximum plus
    ``slack`` is not below it); the first row is always kept.

    On more than ``_PREFILTER_BINS`` finite rows whose r1 is not constant,
    each row whose r2 is at most the largest r2 of a higher bin
    floor(B (r1 - min r1) / (max r1 - min r1)) is dropped before the sort.
    The bin is nondecreasing in r1, so such a row follows one of larger r1
    and no smaller r2 in that order and is never kept, and every running
    maximum at a kept row stays as it was (``slack`` >= 0).  Most rows of
    a grid are dominated, so this skips most of the sort; other inputs
    sort every row.
    """
    n = r1.size
    rows = np.arange(n)
    if n > _PREFILTER_BINS and slack >= 0:
        lo = r1.min()
        span = r1.max() - lo
        if np.isfinite(span) and span > 0.0 and np.isfinite(r2).all():
            bins = ((r1 - lo) / span * _PREFILTER_BINS).astype(np.intp)
            best = np.full(_PREFILTER_BINS + 2, -np.inf)
            np.maximum.at(best, bins, r2)
            above = np.maximum.accumulate(best[::-1])[::-1]  # best over bins >= b
            rows = np.flatnonzero(r2 > above[bins + 1])
    mask = np.zeros(n, dtype=bool)
    if not rows.size:
        return mask
    order = rows[np.lexsort((-r2[rows], -r1[rows]))]  # r1 desc, r2 desc within ties
    r2s = r2[order]
    cummax = np.maximum.accumulate(r2s)
    keep_sorted = np.empty(len(order), dtype=bool)
    keep_sorted[0] = True
    keep_sorted[1:] = r2s[1:] > cummax[:-1] + slack
    mask[order[keep_sorted]] = True
    return mask


def _pair_rows(rates: np.ndarray, slack: float = PARETO_SLACK) -> np.ndarray:
    """Rows of the Pareto-maximal pairs of ``rates``, stably sorted by (r1, r2)."""
    rows = np.flatnonzero(_pareto_mask(rates[:, 0], rates[:, 1], slack))
    return rows[np.lexsort(rates[rows].T[::-1])]


def _take(g: np.ndarray, rows) -> np.ndarray:
    """``g[rows]`` of a generator stack; a stride-0 stack (one matrix
    repeated) stays a stride-0 view of that matrix."""
    if len(g) and g.strides[0] == 0:
        return np.broadcast_to(g[0], (len(rows),) + g.shape[1:])
    return g[rows]


def _pair_front(r1, r2, gens: dict, meta: dict) -> Frontier:
    """The :class:`Frontier` of the Pareto-maximal clamped (r1, r2) rows."""
    rates = _clamp(np.column_stack([r1, r2]))
    rows = _pair_rows(rates)
    return Frontier(rates[rows], {name: _take(g, rows) for name, g in gens.items()}, meta)


def _zero_frontier(k: np.ndarray, names: tuple, meta: dict) -> Frontier:
    """The one-point frontier of a zero constraint ``k`` (t, t): generator
    "k" is ``k`` itself and every other one is zero."""
    gens = {n: k[None] if n == "k" else np.zeros((1,) + k.shape) for n in names}
    return Frontier(np.zeros((1, len(names))), gens, meta)


def _pareto_rows_triples(arr: np.ndarray, slack: float = PARETO_SLACK, meta=None) -> np.ndarray:
    """Row indices of Pareto-maximal (r0, r1, r2) rows, duplicates deduped.

    A row is dropped when another is >= in every column and more than
    ``slack`` larger in one; the kept rows are the first copy of each
    surviving distinct row, in ascending lexicographic order of the rows.
    A dominating row sorts before the row it dominates in descending
    lexicographic order, and a dominated row is also dominated by a kept
    one, so the rows are walked in that order in blocks, each row tested
    against the rows kept so far and the earlier rows of its block, whose
    r0 is no smaller unless one of the two is NaN: n * (kept + block)
    comparisons (Kung, Luccio & Preparata 1975).

    On finite rows whose r0 and r1 both vary, rows whose r2 + ``slack``
    is below the largest r2 of a cell strictly higher in both floor bins
    of r0 and r1 (a 2-D suffix maximum) go first: a higher floor bin means
    a larger value, so they are dominated, and all copies of a row go
    together.  ``meta`` gets their count (``prefiltered``).
    """
    if slack < 0:
        raise ValueError(f"slack must be nonnegative, got {slack!r}")
    rows = np.arange(arr.shape[0])
    if len(rows) and np.isfinite(arr).all():
        lo, span = arr[:, :2].min(axis=0), np.ptp(arr[:, :2], axis=0)
        if np.all((span > 0.0) & (span < np.inf)):
            b0, b1 = ((arr[:, :2] - lo) / span * _TRIPLE_BINS).astype(np.intp).T
            best = np.full((_TRIPLE_BINS + 2, _TRIPLE_BINS + 2), -np.inf)
            np.maximum.at(best, (b0, b1), arr[:, 2])
            top = np.maximum.accumulate(np.maximum.accumulate(best[::-1, ::-1], 0), 1)[::-1, ::-1]
            rows = np.flatnonzero(top[b0 + 1, b1 + 1] <= arr[:, 2] + slack)
    if meta is not None:
        meta["prefiltered"] = arr.shape[0] - len(rows)
    uniq, first = np.unique(arr[rows], axis=0, return_index=True)
    first = rows[first]
    cols = np.ascontiguousarray(uniq[::-1].T)
    keep = np.zeros(len(uniq), dtype=bool)
    kept = cols[:, :0]
    for s in range(0, len(uniq), 256):
        blk = cols[:, s : s + 256]
        rivals = np.hstack([kept, blk])
        geq = np.tri(blk.shape[1], rivals.shape[1], kept.shape[1] - 1, dtype=bool)
        geq[:, np.isnan(rivals[0])] = False  # NaN r0 rows sort first and dominate nothing
        strict = rivals[0][None, :] > (blk[0] + slack)[:, None]
        for mine, theirs in zip(blk[1:], rivals[1:]):
            geq &= theirs[None, :] >= mine[:, None]
            strict |= theirs[None, :] > (mine + slack)[:, None]
        free = ~(geq & strict).any(axis=1)
        keep[s : s + 256] = free
        kept = np.hstack([kept, blk[:, free]])
    return first[keep[::-1]]


def _triple_front(arr: np.ndarray, slack: float = PARETO_SLACK, meta=None) -> np.ndarray:
    """:func:`_pareto_rows_triples` less near-duplicates, in the same order.

    Rows that differ by rounding in opposite columns dominate neither
    each other, so the kept rows are walked in descending lexicographic
    order and a row within ``slack`` of an earlier kept row in every
    column is dropped (rare, so resolved one by one).  A block is compared
    only with earlier rows whose r0 (descending) is within ``slack``.
    """
    rows = _pareto_rows_triples(arr, slack, meta)[::-1]
    cols = arr[rows].T
    start = np.searchsorted(-cols[0], -(cols[0] + slack))
    keep = np.ones(len(rows), dtype=bool)
    for s in range(0, len(rows), 64):
        e, lo = min(s + 64, len(rows)), start[s]
        near = np.tri(e - s, e - lo, s - lo - 1, dtype=bool)  # earlier rows only
        for col in cols[:, lo:e]:
            near &= np.abs(col - col[s - lo :, None]) <= slack
        for i in np.flatnonzero(near.any(axis=1)):
            keep[s + i] = not (near[i] & keep[lo:e]).any()
    return rows[keep][::-1]


def _meta(ch: GaussianBc, grid: GridSpec, mode: str, k=None, p=None) -> dict:
    """Frontier metadata of a fixed-covariance (``k``) or power (``p``) region."""
    kind, key, val = ("fixed_cov", "constraint", k) if p is None else ("power", "power", p)
    return {"kind": kind, "mode": mode, key: val, "channel": (ch.g1, ch.g2), "grid": grid}


def _wtc_pencil(ch: GaussianBc, k):
    """The wiretap pencil of ``k`` (one (t, t) or a batch (..., t, t)).

    With S = K^(1/2) and A_j = I + S G_j^T G_j S, the optimum over K*
    below K is 1/2 sum log2 max(lambda_i, 1) over the generalized
    eigenvalues of the pencil (A_1, A_2) (Liu & Shamai, IEEE T-IT 2009).
    The users swapped give the pencil (A_2, A_1) with eigenvalues
    1/lambda_i, so the same solve also holds the swapped optimum
    -1/2 sum log2 min(lambda_i, 1) (:func:`_wtc_rectangle`).
    The pencil is solved as lambda_i - 1 = eig(L^-1 (A_1 - A_2) L^-T)
    with A_2 = L L^T, forming A_1 - A_2 = S (G_1^T G_1 - G_2^T G_2) S
    directly, so equal gains give mu = lambda - 1 = 0 exactly.  S is
    :func:`secbc.matops.sym_sqrt`, so singular K is fine.  Returns
    (value, S, W, mu) with mu in descending order and W = L^-T U the
    generalized eigenvectors (W^T A_2 W = I), U those of ``eigh``.  The
    eigenvectors come from ``eigh`` even where only the value is read:
    ``eigvalsh`` rounds the eigenvalues differently in the last bit.
    """
    s = sym_sqrt(k)
    a2 = np.eye(ch.t) + s @ (ch.g2.T @ ch.g2) @ s
    linv = np.linalg.inv(np.linalg.cholesky(a2))
    gap = ch.g1.T @ ch.g1 - ch.g2.T @ ch.g2
    mu, u = np.linalg.eigh(linv @ s @ gap @ s @ np.swapaxes(linv, -1, -2))
    mu, u = mu[..., ::-1], u[..., ::-1]
    value = np.sum(np.log1p(np.maximum(mu, 0.0)), axis=-1) / (2.0 * math.log(2.0))
    if not (np.isfinite(a2).all() and np.isfinite(mu).all() and np.isfinite(value).all()):
        raise FloatingPointError("the wiretap pencil is not finite")
    return value, s, np.swapaxes(linv, -1, -2) @ u, mu


def _kept_root(s, w, mu):
    """B with B B^T = S P S, P the orthogonal projector onto the
    eigenvectors W of the pencil with mu > 0 (:func:`_wtc_pencil`)."""
    # Descending order puts the kept eigenvectors first, so the leading
    # columns of their QR factor Q span them.
    q, _ = np.linalg.qr(w)
    return s @ (q * (mu > 0.0)[..., None, :])


def _wtc_gevd(ch: GaussianBc, k):
    """Closed-form wiretap optimum over K* below ``k``: (value, argmax).

    ``k`` is one covariance (t, t) or a batch (..., t, t); both outputs
    keep its leading shape.  The optimum is attained at K* = S P S
    (:func:`_kept_root`); equal gains give K* = 0.
    """
    value, s, w, mu = _wtc_pencil(ch, k)
    return value, gram(_kept_root(s, w, mu))


def _wtc_rectangle(ch: GaussianBc, k):
    """(r1, r2, K*) of the both-confidential rectangle of ``k`` from one
    pencil solve: r1 and its argmax K* as :func:`_wtc_gevd` gives them,
    and r2 the wiretap optimum with the users swapped,
    -1/2 sum log2 min(lambda_i, 1) (:func:`_wtc_pencil`).

    Each log2 lambda_i is log1p(mu_i) while lambda_i >= 1/2.  Below, 1 + mu
    cancels: mu is only good to about eps max|mu|, which at large powers
    or unequal gains is more than a small lambda_i itself.  There lambda_i
    is read as the quadratic form w_i^T A_1 w_i = |w_i|^2 + |G_1 S w_i|^2
    of its eigenvector, a sum of squares with no cancellation.
    """
    r1, s, w, mu = _wtc_pencil(ch, k)
    quad = np.sum(w * w, axis=-2) + np.sum((ch.g1 @ s @ w) ** 2, axis=-2)
    logs = np.where(mu > -0.5, np.log1p(np.clip(mu, -0.5, 0.0)), np.log(np.minimum(quad, 1.0)))
    r2 = np.sum(logs, axis=-1) / (-2.0 * math.log(2.0))
    return r1, r2, gram(_kept_root(s, w, mu))


def wtc_capacity(ch: GaussianBc, k):
    """Wiretap secrecy capacity under the covariance constraint ``k``.

    Returns (value, argmax) of the closed-form maximum of the
    confidential rate over all K* below k; the value is nonnegative.
    """
    value, kstar = _wtc_gevd(ch, check_cov(ch, k))
    return float(value), kstar


def frontier_fixed_cov(ch: GaussianBc, k, grid: GridSpec | None = None) -> Frontier:
    """Pareto frontier of the pair region under covariance constraint ``k``.

    Sweeps sub-covariances of ``k`` on the (angles, scalings) grid,
    clamps the raw confidential rate at zero, Pareto-filters, and splices
    in the closed-form max-R1 corner of :func:`wtc_capacity`.  The K* = 0
    node puts (0, max R2) on the frontier exactly.  The rotation rows are
    streamed in :func:`row_blocks`; each block keeps its exactly
    nondominated nodes, which hold every node the slack-tolerant filter
    of the whole grid keeps, so the result does not depend on the blocks.
    Both filters are :func:`_pareto_mask`, whose r1-bin prefilter sorts
    only the few nodes of a block that no higher bin dominates.
    """
    grid = grid or GridSpec()
    k = check_cov(ch, k)
    t = ch.t
    meta = _meta(ch, grid, "one_confidential", k=k)
    if np.abs(k).max() < 1e-15:
        return _zero_frontier(k, ("k", "kstar"), meta)
    c2k = half_log2_det(ch.g2, k)
    b0 = sqrt_factor(k)
    tab = grid_tables(t, grid.theta_steps, diag_values(grid.diag_steps))
    nd = tab.combos.shape[0]

    def front(span):
        lo, hi = span
        l1, l2 = (
            half_log2(pair_dets(g, b0[None], tab.rots[lo:hi], tab.dgrids))[0].ravel()
            for g in (ch.g1, ch.g2)
        )
        r1 = np.maximum(l1 - l2, 0.0)
        r2 = c2k - l2
        idx = np.flatnonzero(_pareto_mask(r1, r2, 0.0))
        return r1[idx], r2[idx], idx + lo * nd

    r1, r2, flat = (
        np.concatenate(col) for col in zip(*map(front, row_blocks(len(tab.rots), nd)))
    )
    keep = np.flatnonzero(_pareto_mask(r1, r2))
    nodes = grid_params(tab, flat[keep], 1)
    kstars = compose_sub_cov(k, SubCovParams(nodes[:, :-t], nodes[:, -t:]))

    rmax, kstar = _wtc_gevd(ch, k)
    r2_at = c2k - half_log2_det(ch.g2, kstar)
    gens = {
        "k": np.broadcast_to(k, (len(keep) + 1, t, t)),
        "kstar": np.concatenate([kstars, kstar[None]]),
    }
    return _pair_front(np.append(r1[keep], rmax), np.append(r2[keep], r2_at), gens, meta)


def _angle_span(t: int) -> float:
    """Period of each rotation angle of K = V diag(e) V^T (at t = 2,
    V(theta + pi) = -V(theta)).  The grids keep its
    :func:`secbc.sweeps.canonical_angles`, since the eigenvalue tables
    also hold both orders."""
    return math.pi if t == 2 else 2.0 * math.pi


def _trace_grid(t: int, theta_steps: int, tails) -> np.ndarray:
    """Rows (angles, tail): each angle tuple crossed with each row of ``tails``.

    The angles are the :func:`secbc.sweeps.canonical_angles` of
    ``theta_steps`` steps over :func:`_angle_span`, which at t = 2 keep
    one row per matrix of the full span: every ``tails`` table here (the
    simplex, the u-ball) holds each eigenvalue pair in both orders.  The
    rows run angle-major, so row i holds angle tuple i // len(tails).
    """
    angles = canonical_angles(t, theta_steps, _angle_span(t))
    angles = diag_combos(angles, t * (t - 1) // 2)
    return np.column_stack(
        [np.repeat(angles, len(tails), axis=0), np.tile(tails, (len(angles), 1))]
    )


def _manifold_scan(t: int, p: float, grid: GridSpec) -> np.ndarray:
    """Constraint matrices of trace p on the simplex grid, in node order."""
    x = _trace_grid(t, grid.theta_steps, simplex_grid(t, p, grid.trace_steps))
    return gram(contractions(x, t))


def _grid_rows(t: int, grid: GridSpec) -> dict:
    """Rows of the largest table each grid-building function holds, by name.

    Counted from the table sizes alone, so nothing is allocated; the
    counts are exact or upper bounds.  A single-level sweep streams its
    nodes, so it holds the angle tuples of the whole lattice and the
    scaling tuples.  A chained sweep holds its outer rows (one rotation
    per class at t <= 2, the whole lattice at t = 3): one level for
    ``region_common_fixed`` and ``v_hat``, two for ``v_tilde``, and one
    per manifold node for ``region_common_power`` (at t = 1 it runs
    ``region_common_fixed``).  ``both_confidential_frontier`` holds the
    trace-p simplex manifold and ``frontier_power`` the coarse K* grid
    before its cut to the u-ball (``trace_steps``^t rows, never fewer
    than the manifold's), one row per angle tuple and eigenvalue row.
    The wiretap capacities build no grid.
    """
    m = t * (t - 1) // 2

    def angles(steps, span):  # angle tuples of one level, one per matrix at t = 2
        return canonical_steps(t, steps, span) ** m

    def outer(steps, dsteps):  # rows of one outer level of a chained grid
        return angles(steps, 2.0 * math.pi) * dsteps**t

    chain = outer(grid.chain_theta_steps, grid.chain_diag_steps)
    deep = outer(grid.deep_theta_steps, grid.deep_diag_steps)
    single = max(grid.theta_steps**m, grid.diag_steps**t)
    span = _angle_span(t)
    manifold = angles(grid.theta_steps, span) * math.comb(grid.trace_steps + t - 2, t - 1)
    nodes = angles(grid.deep_theta_steps, span) * math.comb(grid.deep_trace_steps + t - 2, t - 1)
    return {
        "frontier_fixed_cov": single,
        "v_eta": single,
        "region_common_fixed": chain,
        "v_hat": chain,
        "v_tilde": deep**2,
        "both_confidential_frontier": manifold,
        "frontier_power": angles(grid.theta_steps, span) * grid.trace_steps**t,
        "region_common_power": chain if t == 1 else nodes * deep,
    }


def _trace_ball(cs: np.ndarray) -> np.ndarray:
    """Nearest points of the ball ||C||_F <= 1 to the matrices ``cs`` (..., t, t).

    K = p C C^T has tr K = p ||C||_F^2, so the ball is exactly the power
    constraint; points inside are returned as they are.
    """
    norm = np.linalg.norm(cs, axis=(-2, -1))
    return cs / np.maximum(norm, 1.0)[..., None, None]


def _water_fill(nu, power):
    """Water-filling over parallel channels with noise levels ``nu``.

    ``nu`` (..., t) holds positive noise levels in ascending order and
    ``power`` (...) the budget, clamped at zero.  Returns (rate in bits,
    water level mu); channel i gets power max(mu - nu_i, 0).  The level
    L_j = (power + nu_1 + ... + nu_j) / j falls while channel j belongs to
    the active set and rises after it, so mu is the smallest L_j, and zero
    power gives mu = nu_1 and rate 0 (Telatar 1999).
    """
    power = np.maximum(np.asarray(power, dtype=float), 0.0)
    # Column by column, adding in the order of a cumulative sum.
    head = nu[..., 0]
    mu = power + head
    for j in range(1, nu.shape[-1]):
        head = head + nu[..., j]
        mu = np.minimum(mu, (power + head) / (j + 1))
    rate = np.sum(np.log2(np.maximum(mu[..., None], nu) / nu), axis=-1) / 2.0
    return rate, mu


def _noise2(ch: GaussianBc) -> np.ndarray:
    """(G2^T G2)^-1, so that I + G2 K G2^T = G2 (N + K) G2^T."""
    return gram(np.linalg.inv(ch.g2))


def _kstar_matrices(angles, e, t: int) -> np.ndarray:
    """K* = V(angles) diag(e) V^T of rows (angles, e), or of one angle row and every e."""
    angles = np.broadcast_to(angles, (len(e), angles.shape[1]))
    return gram(contractions(np.column_stack([angles, e]), t))


class _KstarConsts(NamedTuple):
    """The channel constants of the K* scoring, formed once per sweep:
    N = (G2^T G2)^-1 with its trace and determinant, and (A_j, tr A_j,
    det A_j) of each A_j = G_j^T G_j."""

    noise: np.ndarray
    tr_noise: float
    det_noise: float
    grams: tuple


def _kstar_consts(ch: GaussianBc) -> _KstarConsts:
    """The :class:`_KstarConsts` of ``ch``."""
    noise = _noise2(ch)
    grams = tuple((a, np.trace(a), np.linalg.det(a)) for a in (g.T @ g for g in (ch.g1, ch.g2)))
    return _KstarConsts(noise, np.trace(noise), np.linalg.det(noise), grams)


def _kstar_tails(consts: _KstarConsts, p: float, u):
    """(e = p u^2, tr N + sum e, p - sum e) of rows u, N = (G2^T G2)^-1."""
    e = p * u**2
    total = e.sum(axis=1)
    return e, consts.tr_noise + total, p - total


def _det_i_plus_kstar(gram_j, e, turn) -> np.ndarray:
    """det(I + G K* G^T) of K* = V(theta) diag(e) V^T for t <= 2, from
    ``gram_j`` = (A, tr A, det A) of A = G^T G.

    ``turn`` holds (cos 2 theta, sin 2 theta) per row at t = 2 and is
    None at t = 1 (see :func:`_kstar_rates`).
    """
    a, tr_a, det_a = gram_j
    if turn is None:
        return 1.0 + e[:, 0] * a[0, 0]
    cos2, sin2 = turn
    along = 0.5 * (a[0, 0] + a[1, 1]) + 0.5 * (a[0, 0] - a[1, 1]) * cos2 + a[0, 1] * sin2
    e1, e2 = e[:, 0], e[:, 1]
    return 1.0 + e1 * along + e2 * (tr_a - along) + e1 * e2 * det_a


def _kstar_rates(ch: GaussianBc, consts: _KstarConsts, angles, tails) -> np.ndarray:
    """Rows (r1(K*), W(K*)) of K* = V(angles) diag(e) V^T, e = p u^2.

    ``consts`` is the :func:`_kstar_consts` of ``ch``; ``angles`` holds
    one row per node or one for all; ``tails`` is the :func:`_kstar_tails`
    of their u.  W(K*) is the best private rate over K = K* + Q with Q
    PSD and tr Q <= p - tr K*: water-filling over the spectrum of
    N + K* with N = (G2^T G2)^-1.  For t <= 2 each node is
    scored in closed form from its parameters, with no per-node matrix.
    With A_j = G_j^T G_j, d_j = det(I + G_j K* G_j^T) is 1 + e g_j^2 at
    t = 1 and at t = 2
    d_j = 1 + e_1 m_j + e_2 (tr A_j - m_j) + e_1 e_2 det A_j, where
    m_j = v^T A_j v = h_j + c_j cos 2 theta + A_j[0, 1] sin 2 theta is A_j
    along the first column v of V(theta), with h_j and c_j the half sum
    and half difference of its diagonal; r1 = max(0.5 log2(d1 / d2), 0).
    The spectrum of N + K* is the single value T = tr N + sum e for t = 1
    and for t = 2 the roots lo <= hi of nu^2 - T nu + D with D = det(N + K*)
    = det N * d2; the small root is taken as D / hi, free of cancellation.
    The two roots are water-filled in closed form, with the arithmetic of
    :func:`_water_fill`: mu = min(q + lo, (q + (lo + hi)) / 2) for the
    power q = max(p - sum e, 0) left.
    For t >= 3 the nodes are scored from K* itself: its angle grids hold
    many rows with the same K*, the Pareto mask keeps whichever of them
    rounds highest and the zoom refines around that one, so other
    arithmetic would move the frontier.
    """
    t = ch.t
    e, tr, left = tails
    if t >= 3:
        ks = _kstar_matrices(angles, e, t)
        r1 = half_log2_det(ch.g1, ks) - half_log2_det(ch.g2, ks)
        w, _ = _water_fill(np.linalg.eigvalsh(consts.noise + ks), left)
    else:
        turn = (np.cos(2.0 * angles[:, 0]), np.sin(2.0 * angles[:, 0])) if t == 2 else None
        d1, d2 = (_det_i_plus_kstar(a, e, turn) for a in consts.grams)
        r1 = half_log2(d1 / d2)
        if t == 1:
            w, _ = _water_fill(tr[:, None], left)
        else:
            det = consts.det_noise * d2
            hi = 0.5 * (tr + np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0)))
            lo = det / hi
            left = np.maximum(left, 0.0)
            mu = np.minimum(left + lo, (left + (lo + hi)) / 2.0)
            w = (np.log2(np.maximum(mu, lo) / lo) + np.log2(np.maximum(mu, hi) / hi)) / 2.0
    return np.column_stack([np.maximum(r1, 0.0), w])


def _water_filled(ch: GaussianBc, p: float, kstars) -> np.ndarray:
    """Constraints K = K* + V diag(q) V^T that attain W(K*), batched.

    V holds the eigenvectors of (G2^T G2)^-1 + K* and q the water-filling
    powers, so K* <= K and tr K = p hold by construction.
    """
    nu, v = np.linalg.eigh(_noise2(ch) + kstars)
    _, mu = _water_fill(nu, p - np.trace(kstars, axis1=-2, axis2=-1))
    q = np.maximum(mu[..., None] - nu, 0.0)
    k = kstars + (v * q[..., None, :]) @ np.swapaxes(v, -1, -2)
    return 0.5 * (k + np.swapaxes(k, -1, -2))


def _zoom_sweep(ch: GaussianBc, p: float, grid: GridSpec):
    """Pareto nodes of (r1(K*), W(K*)) over K* with tr K* <= p.

    The coarse grid crosses the :func:`_trace_grid` angles with the u-ball:
    ``trace_steps`` values of u in [0, 1] per eigenvalue e = p u^2
    (square-root spacing keeps small eigenvalues resolved), keeping
    sum u^2 <= 1.  Each zoom level evaluates a local grid of
    ``ZOOM_POINTS`` per axis spanning +-1 cell around every Pareto node,
    restricted to points that move at most ``ZOOM_AXES`` parameters (the
    full tensor grid grows as 3^(t(t+1)/2)), then halves the cell; points
    outside the ball sum u^2 <= 1 are pulled onto its surface
    (tr K* = p).  No level or u table is built whole: each block scores
    one angle against u rows of whole first entries, whose
    :func:`_kstar_tails` serve every angle, or Pareto nodes with all
    offsets, and keeps its exactly nondominated rows.  Merged in row
    order, they hold every row the slack-tolerant :func:`_pareto_mask`
    of the whole level keeps (as in :func:`frontier_fixed_cov`).  Returns
    (Pareto params, nodes evaluated per level, rows entering each mask).
    """
    t = ch.t
    m = t * (t - 1) // 2
    angles = diag_combos(canonical_angles(t, grid.theta_steps, _angle_span(t)), m)
    v = np.linspace(0.0, 1.0, grid.trace_steps)
    rest = diag_combos(v, t - 1)  # the u rows of one first entry, as diag_combos(v, t) orders them
    cell = np.array(
        [_angle_span(t) / grid.theta_steps] * m
        + [1.0 / max(grid.trace_steps - 1, 1)] * t
    )
    offsets = diag_combos(np.linspace(-1.0, 1.0, ZOOM_POINTS), m + t)
    moved = np.count_nonzero(offsets, axis=1)
    offsets = offsets[(moved >= 1) & (moved <= ZOOM_AXES)]

    consts = _kstar_consts(ch)
    per_angle, n_u = [[] for _ in angles], 0
    for lo, hi in row_blocks(len(v), len(rest) * _KSTAR_SHARE):
        u = np.column_stack([np.repeat(v[lo:hi], len(rest)), np.tile(rest, (hi - lo, 1))])
        u = u[np.sum(u * u, axis=1) <= 1.0]
        n_u += len(u)
        tails = _kstar_tails(consts, p, u)
        for i, part in enumerate(per_angle):
            rates = _kstar_rates(ch, consts, angles[i : i + 1], tails)
            keep = np.flatnonzero(_pareto_mask(rates[:, 0], rates[:, 1], 0.0))  # exact front
            part.append((np.column_stack([angles[[i] * len(keep)], u[keep]]), rates[keep]))
    x, rates = (np.vstack(c) for c in zip(*sum(per_angle, [])))  # angle-major
    counts, kept = [len(angles) * n_u], [len(x)]
    front = _pareto_mask(rates[:, 0], rates[:, 1])
    for _ in range(ZOOM_LEVELS):
        x, rates = x[front], rates[front]
        counts.append(len(x) * len(offsets))
        found = [(x, rates)]
        for lo, hi in row_blocks(len(x), len(offsets) * _KSTAR_SHARE):
            new = (x[lo:hi, None, :] + offsets * cell).reshape(-1, m + t)
            norm = np.sqrt(np.sum(new[:, m:] ** 2, axis=1))
            new[:, m:] /= np.maximum(norm, 1.0)[:, None]
            score = _kstar_rates(ch, consts, new[:, :m], _kstar_tails(consts, p, new[:, m:]))
            keep = np.flatnonzero(_pareto_mask(score[:, 0], score[:, 1], 0.0))
            found.append((new[keep], score[keep]))
        x, rates = (np.vstack(c) for c in zip(*found))
        kept.append(len(x))
        cell = cell / 2.0
        front = _pareto_mask(rates[:, 0], rates[:, 1])
    return x[front], counts, kept


def frontier_power(ch: GaussianBc, p: float, grid: GridSpec | None = None) -> Frontier:
    """Pareto frontier of the pair region under total power ``p``.

    R2 depends on the constraint K only through C2(K), so the union over
    K and K* <= K swaps into a union over tr K* <= p of the boxes
    [0, r1(K*)] x [0, W(K*)], where W(K*) is the water-filling capacity
    of (I + G2 K* G2^T)^(-1/2) G2 with power p - tr K* (closed form).
    :func:`_zoom_sweep` finds the Pareto K*; each kept point gets the
    constraint that attains W(K*), so tr K = p and K* <= K exactly.  The
    max-R1 corner re-water-fills the K* of :func:`wtc_capacity_power`;
    the max-R2 corner is K* = 0.  ``meta`` records the K* nodes scored
    per zoom level (``nodes_per_level``), the rows that survive their
    block cuts and enter each level's Pareto mask (``kept_per_level``)
    and the ``perf_counter`` seconds of the K* sweep, the wiretap corner
    and the point construction (``phase_s``).
    """
    grid = grid or GridSpec()
    check_power(p)
    t = ch.t
    meta = _meta(ch, grid, "one_confidential", p=p)
    if p == 0:
        return _zero_frontier(np.zeros((t, t)), ("k", "kstar"), meta)

    start = time.perf_counter()
    x, meta["nodes_per_level"], meta["kept_per_level"] = _zoom_sweep(ch, p, grid)
    swept = time.perf_counter()
    _, _, kstar_wtc = wtc_capacity_power(ch, p, grid)
    cornered = time.perf_counter()
    kstars = _kstar_matrices(x[:, :-t], p * x[:, -t:] ** 2, t)
    kstars = np.concatenate([kstars, kstar_wtc[None], np.zeros((1, t, t))])
    kmats = _water_filled(ch, p, kstars)
    h2 = half_log2_det(ch.g2, kstars)
    r1 = half_log2_det(ch.g1, kstars) - h2
    r2 = half_log2_det(ch.g2, kmats) - h2
    front = _pair_front(r1, r2, {"k": kmats, "kstar": kstars}, meta)
    meta["phase_s"] = {
        "kstar_sweep": swept - start,
        "wtc_corner": cornered - swept,
        "points": time.perf_counter() - cornered,
    }
    return front


def both_confidential_frontier(
    ch: GaussianBc, p: float, grid: GridSpec | None = None
) -> Frontier:
    """Comparison region with both private messages confidential.

    Each constraint K contributes one rectangle [0, r1] x [0, r2]: r1 is
    the closed-form wiretap optimum of K, and r2 that of K with the users
    swapped (Liu, Liu, Poor & Shamai, IEEE T-IT 2010).  Both sides and the
    argmax K* of r1 come from one pencil solve per constraint
    (:func:`_wtc_rectangle`).  The frontier is the Pareto filter of the
    rectangle corners over the trace-p manifold, plus two corner rows: the
    rectangles of the K of :func:`wtc_capacity_power` (max R1) and of the
    K of :func:`wtc_capacity_power` on the swapped channel (max R2).
    ``meta["phase_s"]`` holds the ``perf_counter`` seconds of the manifold
    ``scan`` and of the ``max_r1_corner`` and ``max_r2_corner``.
    """
    grid = grid or GridSpec()
    check_power(p)
    t = ch.t
    meta = _meta(ch, grid, "both_confidential", p=p)
    if p == 0:
        return _zero_frontier(np.zeros((t, t)), ("k", "kstar"), meta)

    marks = [time.perf_counter()]
    kmats = _manifold_scan(t, p, grid)
    r1, r2, ks = _wtc_rectangle(ch, kmats)
    rows = np.flatnonzero(_pareto_mask(r1, r2))
    parts = [(kmats[rows], r1[rows], r2[rows], ks[rows])]
    marks.append(time.perf_counter())
    for corner in (ch, GaussianBc(ch.g2, ch.g1)):
        kmat = wtc_capacity_power(corner, p, grid)[1]
        r1, r2, kstar = _wtc_rectangle(ch, kmat)
        parts.append((kmat[None], r1[None], r2[None], kstar[None]))
        marks.append(time.perf_counter())
    meta["phase_s"] = dict(
        zip(("scan", "max_r1_corner", "max_r2_corner"), np.diff(marks).tolist())
    )
    kmats, r1, r2, ks = (np.concatenate(col) for col in zip(*parts))
    return _pair_front(r1, r2, {"k": kmats, "kstar": ks}, meta)


def wtc_capacity_power(ch: GaussianBc, p: float, grid: GridSpec | None = None):
    """Wiretap secrecy capacity under a total power constraint.

    The optimum max h_1(K*) - h_2(K*) over tr K* <= p, with
    h_j(K*) = 0.5*log2 det(I + G_j K* G_j^T), is one smooth problem over
    K* = p C C^T with C in the :func:`_trace_ball`, polished by
    :func:`secbc.sweeps.spg_max` on :func:`secbc.sweeps.layered_value_grad`
    (root sqrt(p) I, one level, weights (1, -1)) from one start: C = B /
    sqrt(p), where K* = B B^T is the closed-form argmax under the isotropic
    constraint (p/t) I (:func:`_kept_root`).  By Sylvester's inertia its
    pencil has as many eigenvalues above 1 as G_1^T G_1 - G_2^T G_2 has
    positive eigenvalues, so the start already has the largest rank an
    optimum can have (a step never raises the rank of C).  The polished
    K* is spread to K = K* + (p - tr K*) I / t, so K* <= K and the
    closed-form optimum of K, formed once, is at least the polished
    value, which is at least that of (p/t) I; ``refine_iters=0`` gives
    the isotropic closed form.  Returns (value, constraint, argmax).
    """
    grid = grid or GridSpec()
    check_power(p)
    t = ch.t
    if p == 0:
        zero = np.zeros((t, t))
        return 0.0, zero, zero
    _, s, w, mu = _wtc_pencil(ch, p / t * np.eye(t))
    start = _kept_root(s, w, mu) / math.sqrt(p)
    value_grad = layered_value_grad(
        np.stack([ch.g1, ch.g2]), math.sqrt(p) * np.eye(t), np.array([[1.0, -1.0]])
    )
    cs, _, _, _ = spg_max(value_grad, _trace_ball, start[None, None], grid.refine_iters)
    kstar = gram(math.sqrt(p) * cs[0, 0])
    kmat = kstar + max(p - np.trace(kstar), 0.0) / t * np.eye(t)
    value, kstar = _wtc_gevd(ch, kmat)
    return float(value), kmat, kstar


# (r0, r1) cells per axis of the triple thinning.
_CELLS = 96


def _cell_index(r: np.ndarray, scale: float) -> np.ndarray:
    idx = (r / scale * _CELLS).astype(np.int64)
    return np.minimum(idx, _CELLS - 1, out=idx)


def _cell_winners(comb: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Row of the highest r2 in each occupied cell, the lowest on ties, in cell order."""
    best = np.full(_CELLS * _CELLS, -np.inf)
    np.maximum.at(best, comb, r2)
    sel = np.flatnonzero(r2 >= best[comb])
    _, firsts = np.unique(comb[sel], return_index=True)
    return sel[firsts]


def _common_triples(ch: GaussianBc, factors, kmats, tab, meta: dict) -> Frontier:
    """Pareto triples of the union of the common-message regions of ``kmats``.

    Each constraint K = B B^T (``factors`` B) is swept on the two-level
    grid of ``tab``: an outer sub-covariance K1+K2 (what is left carries
    the common message) and an inner split K2 below it, the confidential
    layer.  The cell scales are fixed before any inner node is scored:
    r0 by the outer rows of all constraints, r1 by the largest
    closed-form wiretap optimum (:func:`_wtc_gevd`), which bounds every
    grid r1.  The outer rows are streamed in :func:`row_blocks`, each
    block cut at once to the highest r2 per (r0, r1) cell, and the blocks
    merged in order, so the lowest grid index wins ties.  Each
    constraint's max-R1 triple (r0 = 0, K2 = K*, K1 = K - K*) joins the
    winners in one triple Pareto filter.  ``meta`` gets the grid rows
    (``candidates``), the rows entering that filter (``thinned``), those
    its cell prefilter drops (``prefiltered``) and the ``blocks``.
    """
    t = ch.t
    gains = (ch.g1, ch.g2)
    outer = children_factors(factors, tab.outer_rots, tab.combos).reshape(-1, t, t)
    m = len(tab.outer_rots) * len(tab.combos)  # outer rows per constraint
    n = len(tab.rots) * len(tab.combos)  # inner nodes per row
    c1k, c2k = (half_log2_det(g, kmats) for g in gains)
    l1o, l2o = (half_log2(det_i_plus_gram(g, outer)) for g in gains)
    r0 = np.maximum(np.minimum(np.repeat(c1k, m) - l1o, np.repeat(c2k, m) - l2o), 0.0)
    wtc, kstar = _wtc_gevd(ch, kmats)
    c0 = _cell_index(r0, r0.max() + 1e-12) * _CELLS
    s1 = wtc.max() + 1e-12
    spans = row_blocks(len(outer), n)

    def winners(span):
        lo, hi = span
        rows = np.arange(lo, hi)
        l1i, l2i = (
            half_log2(pair_dets_rows(g, outer, rows, tab.rots, tab.dgrids)).reshape(-1, n)
            for g in gains
        )
        # In place: fresh block-sized arrays each cost page faults, since
        # the heap shrinks again once a block's arrays are freed.
        r1 = np.maximum(np.subtract(l1i, l2i, out=l1i), 0.0, out=l1i).ravel()
        r2 = np.maximum(np.subtract(l2o[lo:hi, None], l2i, out=l2i), 0.0, out=l2i).ravel()
        comb = _cell_index(r1, s1)
        comb += np.repeat(c0[lo:hi], n)
        sel = _cell_winners(comb, r2)
        return comb[sel], r1[sel], r2[sel], sel + lo * n

    comb, r1, r2, flat = (np.concatenate(c) for c in zip(*map(winners, spans)))
    sel = _cell_winners(comb, r2)
    flat = flat[sel]
    corners = np.column_stack([np.zeros(len(kmats)), wtc, c2k - half_log2_det(ch.g2, kstar)])
    rates = np.vstack([np.column_stack([r0[flat // n], r1[sel], r2[sel]]), corners])
    meta.update(candidates=len(outer) * n, thinned=len(rates), blocks=len(spans))

    keep = np.sort(_triple_front(rates, meta=meta))  # grid winners first, then corners
    node, idx = np.divmod(flat[keep[keep < len(flat)]], m * n)
    corner = keep[keep >= len(flat)] - len(flat)
    # The inner split was swept from the chained outer factor, so the
    # same chain (not a fresh Cholesky root) must rebuild it.
    # One (angles, scalings) row per level; the width is explicit, since
    # no grid winner may survive the filter.
    cs = contractions(grid_params(tab, idx, 2).reshape(-1, 2, t * (t + 1) // 2), t)
    ks = gram(chained_factors(factors[node], cs))
    ksum = np.concatenate([ks[:, 0], kmats[corner]])
    k2 = np.concatenate([ks[:, 1], kstar[corner]])
    gens = {"k": _take(kmats, np.concatenate([node, corner])), "k1": ksum - k2, "k2": k2}
    kept = _clamp(rates[keep][:, [1, 2, 0]])  # rows (r1, r2, r0)
    order = np.lexsort(kept.T[::-1])
    return Frontier(kept[order], {name: _take(g, order) for name, g in gens.items()}, meta)


def region_common_fixed(ch: GaussianBc, k, grid: GridSpec | None = None) -> Frontier:
    """Pareto surface of (R0, R1, R2) under covariance constraint ``k``.

    The ``chain_*`` grid of :func:`_common_triples` over the single
    constraint ``k``, passed as a stride-0 stack so that generator "k"
    stores it once; its max-R1 corner is :func:`wtc_capacity`.
    """
    grid = grid or GridSpec()
    k = check_cov(ch, k)
    meta = _meta(ch, grid, "common", k=k)
    if np.abs(k).max() < 1e-15:
        return _zero_frontier(k, ("k", "k1", "k2"), meta)
    dvals = diag_values(grid.chain_diag_steps)
    tab = grid_tables(ch.t, grid.chain_theta_steps, dvals, chained=True)
    kmats = np.broadcast_to(k, (1,) + k.shape)
    return _common_triples(ch, sqrt_factor(k)[None], kmats, tab, meta)


def region_common_power(ch: GaussianBc, p: float, grid: GridSpec | None = None) -> Frontier:
    """Union of the common-message surfaces over the trace-p manifold.

    The manifold nodes are the :func:`_trace_grid` of ``deep_theta_steps``
    angles and the ``deep_trace_steps`` simplex; :func:`_common_triples`
    sweeps all of them at once on the ``deep_*`` grid.  At t = 1 the only
    node is K = p, swept as :func:`region_common_fixed` on the ``chain_*``
    grid.
    """
    grid = grid or GridSpec()
    check_power(p)
    t = ch.t
    meta = _meta(ch, grid, "common", p=p)
    if p == 0:
        return _zero_frontier(np.zeros((t, t)), ("k", "k1", "k2"), meta)
    if t == 1:
        fr = region_common_fixed(ch, np.array([[float(p)]]), grid)
        counts = ("candidates", "thinned", "blocks", "prefiltered")
        meta.update({k: fr.meta[k] for k in counts if k in fr.meta})
        return Frontier(fr.rates, fr.gens, meta)
    x = _trace_grid(t, grid.deep_theta_steps, simplex_grid(t, p, grid.deep_trace_steps))
    factors = contractions(x, t)
    dvals = diag_values(grid.deep_diag_steps)
    tab = grid_tables(t, grid.deep_theta_steps, dvals, chained=True)
    return _common_triples(ch, factors, gram(factors), tab, meta)


def check_k1_zero(ch: GaussianBc, k, samples: int = 100, seed: int = 0) -> bool:
    """Verify that dropping the artificial-noise layer never shrinks rates.

    For each random split (K1, K2) with K1 + K2 below ``k``, the rate
    pair of the split must be dominated by the point generated with
    K1 = 0 and the same total budget reassigned, i.e. by the wiretap
    optimum over K* below K1 + K2 (whose private rate is automatically
    at least the split's).  Comparisons carry a 1e-6 slack.
    """
    k = check_cov(ch, k)
    t = ch.t
    m = t * (t - 1) // 2
    # Rows (outer angles, scalings, inner angles, scalings); scaled U(0, 1)
    # angles are the draws of rng.uniform(0, 2 pi).
    draws = np.random.default_rng(seed).random((samples, 2 * (m + t)))
    draws[:, np.r_[:m, m + t : 2 * m + t]] *= 2 * math.pi
    cs = contractions(draws.reshape(samples, 2, m + t), t)
    ks = gram(chained_factors(sqrt_factor(k), cs))
    ksum, k2 = ks[:, 0], ks[:, 1]
    w, kstar = _wtc_gevd(ch, ksum)
    h1, h2 = (half_log2_det(g, np.stack([ksum, ksum - k2, kstar])) for g in (ch.g1, ch.g2))
    r1_split = h1[0] - h1[1] - h2[0] + h2[1]
    # r2 is C2(K) - h2, at K1 + K2 for the split and at K* for the optimum
    shrinks = (w + 1e-6 < np.maximum(0.0, r1_split)) | (h2[0] + 1e-6 < h2[2])
    return not shrinks.any()
