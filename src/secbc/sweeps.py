"""Batched grid sweeps over sub-covariances plus a projected-gradient polish.

The optimization problems in this package all have the same shape: a
smooth objective over one or more chained sub-covariances.  They are
attacked by a coarse tensor grid over their parameterizations (Givens
angles, diagonal scalings in [0, 1]) evaluated with vectorized numpy,
followed by one polish of the best grid nodes: spectral projected
gradient over contraction factors (:func:`spg_max`), for the envelopes
and for the power corners alike.

Every matrix V diag(d) V^T of a sub-covariance grid is reached through
several rotations of the [0, 2*pi) angle lattice: V and V P S (P a
permutation, S a diagonal sign matrix) span the same matrices over the
scaling tuples, which hold every ordering of their values.
:func:`grid_tables` keeps one rotation per such class: at t = 2 the
angles in [0, pi/2), at t = 3 mostly one of the many signed
permutations of a rotation (1 of 64 at 4 steps, 14 of 512 at 8).  The
innermost level of a grid sweeps the classes; the outer levels of a
chained grid do so only when the lattice is closed under the dropped
P S (every t <= 2; at t = 3 the 4-, 6- and 10-step lattices, not the
8-, 12- or 16-step ones), since a dropped outer member's children are
turned by its P S; otherwise they keep the whole lattice.  Either way a
grid holds every matrix, and every chain of matrices, of the full
lattice.  The trace-p grids of :mod:`secbc.regions` use
:func:`canonical_angles`, the t = 2 half of the same rule.

The grid half works on square-root factors: a child of the factor ``B``
under parameters (theta, d) is ``B @ C`` with C = V(theta) diag(sqrt(d))
the contraction of :mod:`secbc.matops`, whose Gram matrix is exactly
the sub-covariance.  One :class:`GridTables` holds the angle tuples and
rotations of the innermost and of the outer levels and the scaling
tuples, built once per resolution and shared read-only by every later
sweep, and :func:`grid_params` turns a flat index of a chained grid
back into its parameter vector.  Every level of every grid is scored by
:func:`pair_dets`: ``I + G K* G^T`` over a whole diagonal grid from the
principal-minor expansion of ``det(I + D M)`` (:func:`det_i_plus_diag`),
2^t coefficient arrays instead of one determinant per grid node.

Grids are reduced in row blocks (:func:`row_blocks`), so no sweep holds
more than about ``GRID_BLOCK_NODES`` nodes at once.  In
:func:`top_k_rows` each block is cut to its own top k and the survivors
are merged.  Selection keeps the k best distinct values
(:func:`top_k_flat`): exactly tied grid nodes count once, and each value
is taken at its lowest flat index, i.e. the lexicographically smallest
parameter vector.  The merged top k is therefore exactly the top k of
the whole grid, whatever the block size.  Every sweep scores its blocks
in order on one thread.  Given an upper bound per row,
:func:`top_k_bounded` scores a sixteenth of the rows, the
best-bounded ones, first and then only the rows whose bound reaches the
k-th value found there; its top k is still exact.

The polish half works on the chains of contractions C_1, ..., C_L of
:mod:`secbc.matops`, which also maps every grid node (angles, d) to its
contraction, so a grid node and its chain give the same matrices.
:func:`layered_value_grad` gives the value and closed-form gradient of
any weighted sum of the h_j(B_l B_l^T) =
0.5*log2 det(I + G_j B_l B_l^T G_j^T), and :func:`spg_max` ascends it
with a projection onto the callers' convex set of chains.  It runs a
batch of starts in lockstep: every objective call evaluates the live
starts at once, and a start that has finished is masked out, so each
performs exactly the steps and evaluations it would perform alone.
Objectives therefore map a batch of points (S, ...) to (S,) values and
their gradients.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .matops import _chain, _half_log2_det_of, contractions, rotation

__all__ = [
    "GridSpec",
    "theta_values",
    "canonical_angles",
    "canonical_steps",
    "diag_values",
    "diag_combos",
    "diag_values_sqrt",
    "GridTables",
    "grid_tables",
    "grid_params",
    "children_factors",
    "det_i_plus_diag",
    "pair_dets",
    "simplex_grid",
    "contractions",
    "layered_value_grad",
    "spg_max",
    "top_k_flat",
    "top_k_rows",
    "top_k_bounded",
    "row_blocks",
]

# Grid nodes per row block of row_blocks.
GRID_BLOCK_NODES = 1 << 16
# Grid nodes that seed the polish.
STARTS = 4
# Least eigenvalue of C C^T in the full-rank copy of the polish's best
# start: a projected-gradient step never raises the rank of a contraction.
LIFT = 1e-6
# Projected-gradient polish: Armijo fraction, the values its nonmonotone
# reference spans, the Barzilai-Borwein step range and the relative change
# below which a start stops.
SPG_ARMIJO = 1e-4
SPG_MEMORY = 10
SPG_STEPS = (1e-30, 1e30)
SPG_RTOL = 1e-15


@dataclass(frozen=True)
class GridSpec:
    """Resolutions and refinement budget for region / envelope sweeps.

    ``theta_steps`` / ``diag_steps`` / ``trace_steps`` drive single-level
    pair sweeps (the documented defaults give sub-1e-2-bit frontiers for
    t = 2 in seconds).  The power-constraint pair region uses only
    ``theta_steps`` and ``trace_steps`` (angles and per-eigenvalue steps
    of its coarse K* grid; its zoom schedule is fixed in
    :mod:`secbc.regions`).  Chained two-level sweeps use the ``chain_*``
    steps per level and three-level sweeps the ``deep_*`` steps; the full
    defaults would be astronomically large there.  ``refine_iters``
    caps the iterations per start of the projected-gradient polish
    (:func:`spg_max`) of the envelopes and of the power corners, which
    stops on its own once it no longer gains; 0 keeps the best start,
    which for a power corner is the closed form of the isotropic
    constraint (P/t) I.  Above 0, the envelopes of a t = 1 channel (every
    level) and ``v_eta`` at eta = 1 (any t) take their exact closed
    forms and sweep no grid; at 0 they return the grid maximum too.
    """

    theta_steps: int = 64
    diag_steps: int = 33
    trace_steps: int = 65
    chain_theta_steps: int = 16
    chain_diag_steps: int = 9
    deep_theta_steps: int = 8
    deep_diag_steps: int = 5
    deep_trace_steps: int = 17
    refine_iters: int = 1000

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            val, least = getattr(self, name), 0 if name == "refine_iters" else 1
            if isinstance(val, bool) or not isinstance(val, numbers.Integral) or val < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {val!r}")


def theta_values(steps: int, full: float = 2.0 * math.pi) -> np.ndarray:
    """Angle grid on [0, full); endpoint omitted because of periodicity."""
    return np.linspace(0.0, full, steps, endpoint=False)


def canonical_angles(t: int, steps: int, full: float) -> np.ndarray:
    """The angles of ``theta_values(steps, full)`` that give distinct matrices.

    At t = 2, V(theta + pi/2) diag(b, a) V^T = V(theta) diag(a, b) V^T, so
    for any scaling table closed under swapping its two entries, the
    angles mod pi/2 already hold every matrix of the [0, full) grid.  With
    c = full / (pi/2) quarter turns, those are the steps / gcd(c, steps)
    angles of [0, pi/2) on the grid's own lattice (bitwise its first
    steps / c angles when c divides ``steps``).  Any other t gets the
    plain table.
    """
    if t != 2:
        return theta_values(steps, full)
    return theta_values(canonical_steps(t, steps, full), 0.5 * math.pi)


def canonical_steps(t: int, steps: int, full: float) -> int:
    """How many angles :func:`canonical_angles` keeps, counted without building them."""
    return steps // math.gcd(round(full / (0.5 * math.pi)), steps) if t == 2 else steps


def diag_values(steps: int) -> np.ndarray:
    """Scaling grid on [0, 1] inclusive, so K* = 0 and K* = K are nodes."""
    return np.linspace(0.0, 1.0, steps)


def diag_values_sqrt(steps: int) -> np.ndarray:
    """Square-root-spaced scaling grid on [0, 1].

    Envelope optima often sit at tiny splits; squaring a uniform grid
    concentrates nodes near zero (first nonzero step (1/(n-1))^2 instead
    of 1/(n-1)) while keeping both endpoints.  Doubling ``steps`` to
    2n - 1 yields a superset grid, as with the uniform spacing.
    """
    return np.linspace(0.0, 1.0, steps) ** 2


def diag_combos(values: np.ndarray, n: int) -> np.ndarray:
    """All n-tuples of ``values`` in C (lexicographic) order, shape
    (len(values)**n, n); the single empty tuple for n = 0."""
    if n == 0:
        return np.zeros((1, 0))
    grids = np.meshgrid(*([values] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


@dataclass(frozen=True)
class GridTables:
    """The levels of a sub-covariance grid: angle tuples (nv, m) and their
    rotations (nv, t, t) for the innermost (or only) level, one per
    rotation class (see :func:`grid_tables`); ``outer_tuples`` and
    ``outer_rots`` for every outer level of a chained grid; the per-axis
    scaling values and the scaling tuples (nd, t), shared by all levels."""

    tuples: np.ndarray
    rots: np.ndarray
    outer_tuples: np.ndarray
    outer_rots: np.ndarray
    dvals: np.ndarray
    combos: np.ndarray

    @property
    def dgrids(self) -> list[np.ndarray]:
        return [self.dvals] * self.combos.shape[1]


def _row_ids(keys: np.ndarray) -> np.ndarray:
    """Dense ids of the rows of an integer array (n, w): equal rows, equal ids."""
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    ids = np.empty(len(keys), dtype=np.intp)
    ids[order] = np.cumsum(new) - 1
    return ids


def _class_ids(rots: np.ndarray) -> np.ndarray:
    """Ids of the classes V ~ V P S of rotations (n, t, t): equal class, equal id.

    P is a permutation and S a diagonal sign matrix, so a class is the
    unordered set of its column projectors v_k v_k^T.  Each projector is
    keyed by its upper triangle rounded to multiples of 2^-30: rounding
    may split a class (a duplicate is kept) but merges two rotations only
    if all their projector entries agree to about 1e-9.
    """
    n, t = rots.shape[:2]
    i, j = np.triu_indices(t)
    proj = np.swapaxes(rots[:, i, :] * rots[:, j, :], 1, 2)  # (n, t, t(t+1)/2)
    pid = _row_ids(np.rint(proj * 2.0**30).astype(np.int64).reshape(n * t, -1))
    return _row_ids(np.sort(pid.reshape(n, t), axis=1))


def _closed(rots: np.ndarray, cls: np.ndarray, first: np.ndarray) -> bool:
    """Whether the classes of ``rots`` are closed under left multiplication
    by every P S that turns a kept rotation (``first`` of its class
    ``cls``) into a dropped member of its class.

    The child factors of a dropped member are its kept one's times P S,
    so its children are the kept one's turned by P S; a chained grid may
    drop it only if turning every class by P S gives a class of the
    table.  Rounding errs towards "not closed".
    """
    t = rots.shape[1]
    ps = np.rint(np.einsum("nji,njk->nik", rots[first[cls]], rots)).astype(np.int64)
    _, moves = np.unique(_row_ids(ps.reshape(len(ps), -1)), return_index=True)
    kept = rots[first]
    turned = np.einsum("uij,kjl->ukil", ps[moves].astype(float), kept).reshape(-1, t, t)
    ids = _class_ids(np.concatenate([kept, turned]))
    return bool(np.isin(ids[len(kept):], ids[: len(kept)]).all())


def grid_tables(t: int, theta_steps: int, dvals: np.ndarray, chained: bool = False) -> GridTables:
    """Tables of ``theta_steps`` angles on [0, 2*pi) per Givens angle times
    ``dvals``, one rotation per class.

    Tables are built once per (t, theta_steps, bits of ``dvals``,
    chained) and shared by every later call, so their arrays are
    read-only; a list and an array of the same values share one entry.

    A rotation V and V P S (P a permutation, S a diagonal sign matrix)
    span the same matrices V diag(d) V^T over the scaling tuples, which
    are closed under permutation, so the innermost level keeps only the
    lowest-index rotation of each class, in table order, which is the one
    that won exact ties when all were scored.  At t = 2 these are the
    angles in [0, pi/2) (bitwise the first ``theta_steps / 4`` when 4
    divides it); at t = 3 the [0, 2*pi)^3 lattice is mostly signed
    permutations (1 class of 64 rotations at 4 steps, 14 of 512 at 8).

    The outer levels of a ``chained`` grid keep the same rotations only
    if the lattice is closed under the dropped P S (:func:`_closed`):
    a dropped member's children are its kept one's turned by P S, which
    the lattice need not hold.  That holds at every t <= 2 and at t = 3
    with 4 steps; otherwise the outer levels keep the whole lattice, so
    every chained grid holds the (outer, inner) pairs of the full one.
    """
    dvals = np.asarray(dvals, dtype=float)
    return _cached_tables(int(t), int(theta_steps), dvals.tobytes(), bool(chained))


@functools.lru_cache(maxsize=32)
def _cached_tables(t: int, theta_steps: int, dbytes: bytes, chained: bool) -> GridTables:
    """The :func:`grid_tables` of the scaling values held in ``dbytes``."""
    dvals = np.frombuffer(dbytes)
    tuples = diag_combos(theta_values(theta_steps), t * (t - 1) // 2)
    rots = rotation(tuples, t)
    cls = _class_ids(rots)
    _, first = np.unique(cls, return_index=True)
    keep = outer = np.sort(first)
    if chained and not _closed(rots, cls, first):
        outer = np.arange(len(rots))
    tables = GridTables(
        tuples[keep], rots[keep], tuples[outer], rots[outer], dvals, diag_combos(dvals, t)
    )
    for f in fields(tables):
        getattr(tables, f.name).flags.writeable = False
    return tables


def grid_params(tables: GridTables, flat, levels: int) -> np.ndarray:
    """Chained parameter vectors of flat indices into a ``levels``-level grid.

    The grid tensor has axes (rotation, scaling) per level in C order,
    outermost level first, the outer levels over ``outer_tuples`` and the
    last over ``tuples``; returns one row of (angles, scalings) per
    level, concatenated, for each index in ``flat``.
    """
    angles = [tables.outer_tuples] * (levels - 1) + [tables.tuples]
    shape = [n for a in angles for n in (len(a), len(tables.combos))]
    idx = np.unravel_index(np.atleast_1d(flat).astype(np.intp), shape)
    return np.hstack(
        [
            part
            for lev, a in enumerate(angles)
            for part in (a[idx[2 * lev]], tables.combos[idx[2 * lev + 1]])
        ]
    )


def children_factors(
    parents: np.ndarray, vbatch: np.ndarray, dcombos: np.ndarray
) -> np.ndarray:
    """Square-root factors of all sub-covariances of all parents.

    parents (N,t,t), vbatch (nv,t,t), dcombos (nd,t) combine to factors of
    shape (N, nv, nd, t, t) with B_child = B C, C = V diag(sqrt(d)) the
    contraction of :mod:`secbc.matops`, so each child is bitwise the
    factor that :func:`secbc.matops.chained_factors` builds from its row.
    """
    cs = vbatch[:, None] * np.sqrt(dcombos)[None, :, None, :]
    return parents[:, None, None] @ cs


def pair_dets(
    g: np.ndarray,
    parents: np.ndarray,
    vbatch: np.ndarray,
    dgrids: list[np.ndarray],
) -> np.ndarray:
    """det(I + G K* G^T) over the full diagonal tensor grid.

    parents (N,t,t) are square-root factors of the constraint matrices,
    vbatch (nv,t,t) the rotations; the result has shape
    (N, nv, len(d_0), ..., len(d_{t-1})) and is evaluated through the
    principal-minor expansion of det(I + D M) with M = (G B V)^T (G B V).
    Flattened, it is in the order (N, nv, nd) of :func:`children_factors`.
    A parent gets the same bits in any batch, and a zero scaling drops its
    terms exactly, so rank-deficient nodes stay exact.
    """
    t = parents.shape[-1]
    if len(dgrids) != t:
        raise ValueError("need one diagonal grid per dimension")
    # M = V^T P V with P = (G B)^T (G B): one Gram per parent, then all
    # rotations as one (1, t^2) @ (t^2, nv t^2) product per parent, since
    # a product of several rows rounds differently.
    n, nv = parents.shape[0], vbatch.shape[0]
    gb = g @ parents
    p = (np.swapaxes(gb, -1, -2) @ gb).reshape(n, 1, t * t)
    w = np.einsum("vki,vlj->klvij", vbatch, vbatch).reshape(t * t, nv * t * t)
    m = (p @ w).reshape(n, nv, t, t)
    dres = [
        np.asarray(d, dtype=float).reshape(
            (1,) * i + (len(d),) + (1,) * (t - 1 - i)
        )
        for i, d in enumerate(dgrids)
    ]
    # Each (parent, rotation) matrix faces the whole diagonal grid, whose
    # t axes trail the matrix axes.
    return det_i_plus_diag(m.reshape((n, nv) + (1,) * t + (t, t)), dres)


def det_i_plus_diag(m: np.ndarray, d: list[np.ndarray]) -> np.ndarray:
    """det(I + diag(d) M) by the principal-minor expansion.

    ``m`` (..., t, t) is symmetric and ``d`` holds one array per diagonal
    entry, each broadcasting against the leading shape of ``m``; the
    result has their broadcast shape.  det(I + D M) is the sum over
    index subsets S of det(M[S, S]) times the product of d_i over S, so
    a whole grid of diagonals costs 2^t coefficient arrays instead of one
    determinant per grid node.
    """
    t = m.shape[-1]
    # Terms are summed in subset order; the sum stays at the broadcast
    # shape of the terms so far and is updated in place once it is full.
    out = np.ones(m.shape[:-2])
    for r in range(1, t + 1):
        for subset in itertools.combinations(range(t), r):
            idx = list(subset)
            if r == 1:
                minors = m[..., idx[0], idx[0]]
            elif r == 2:
                i, j = idx
                minors = m[..., i, i] * m[..., j, j] - m[..., i, j] * m[..., j, i]
            else:
                minors = np.linalg.det(m[..., idx, :][..., idx])
            dfact = d[idx[0]]
            for i in idx[1:]:
                dfact = dfact * d[i]
            term = minors * dfact
            if np.broadcast_shapes(out.shape, term.shape) == out.shape:
                out += term
            else:
                out = out + term
    return out


def simplex_grid(t: int, total: float, steps: int) -> np.ndarray:
    """Nonnegative t-tuples summing to ``total`` on a uniform grid.

    The first t-1 coordinates run over ``steps`` values in [0, total]
    and the last takes the remainder; tuples with a negative remainder
    are dropped.  For t = 1 the single tuple (total,) is returned.
    """
    head = diag_combos(np.linspace(0.0, total, steps), t - 1)
    rest = total - head.sum(axis=1)
    keep = rest >= -1e-12
    return np.column_stack([head[keep], np.maximum(rest[keep], 0.0)])


def layered_value_grad(gains: np.ndarray, b0: np.ndarray, weights: np.ndarray):
    """Value and gradient of a layered objective over contraction chains.

    ``gains`` stacks (G_1, G_2) and ``weights`` (L, 2) holds each level's
    weights of (h_1, h_2); the chain C (S, L, t, t) gives K_l = B_l B_l^T
    with B_l = B_{l-1} C_l, B_0 = ``b0``.  One pass builds A = G_j B_l
    and M = I + A^T A for every level and gain: h_j is 0.5*log2 det M
    from its log-determinant, checked as :func:`secbc.matops.half_log2_det`
    checks it (``FloatingPointError`` unless positive and finite), and
    dh_j/dB_l = G_j^T A M^-1 / ln 2.  One reverse pass over the levels
    turns the sums D_l = df/dB_l into df/dC_l = B_{l-1}^T D_l, with
    D_{l-1} gaining D_l C_l^T; the D_l overwrite the direct terms, and
    one product gives every level's gradient.
    """
    levels, t = len(weights), b0.shape[0]
    scaled = weights[:, :, None, None] * np.swapaxes(gains, -1, -2) / math.log(2.0)
    eye = np.eye(t)

    def value_grad(cs):
        chain = _chain(b0, cs)
        a = gains @ chain[:, 1:, None]
        m = a.swapaxes(-1, -2) @ a
        m += eye
        h = _half_log2_det_of(m)
        d = (scaled @ a @ np.linalg.inv(m)).sum(axis=2)
        for lev in range(levels - 1, 0, -1):
            d[:, lev - 1] += d[:, lev] @ cs[:, lev].swapaxes(-1, -2)
        return (h * weights).sum(axis=(1, 2)), chain[:, :-1].swapaxes(-1, -2) @ d

    return value_grad


def spg_max(fg, project, x0: np.ndarray, budget: int):
    """Spectral projected-gradient ascent of a batch of starts, in lockstep.

    ``x0`` holds one start per row (S, ...); ``fg`` maps points (S', ...)
    to their values (S',) and gradients (S', ...), and ``project`` maps
    points to their Euclidean projections onto a closed convex set.  Each
    iteration steps from x along the projected direction
    p = project(x + alpha*g) - x, alpha the Barzilai-Borwein step
    <s, s> / -<s, y> of the last move s and gradient change y (clipped to
    ``SPG_STEPS``; the first is 1 / max|project(x + g) - x|), and backtracks
    by safeguarded quadratic interpolation until the nonmonotone Armijo
    test f(x + lam*p) >= min(last ``SPG_MEMORY`` values) +
    ``SPG_ARMIJO``*lam*<g, p> holds (Birgin, Martinez & Raydan 2000;
    Grippo, Lampariello & Lucidi 1986).  A start stops when an iteration
    changes its value by no more than ``SPG_RTOL``*(1 + |f|), when the
    gain a step could still promise, lam*<g, p>, falls to that floor, or
    when it has used ``budget`` iterations.

    Every objective call evaluates the live starts at once, so each start
    takes exactly the steps it would take alone.  Only the points, their
    gradients and steps are arrays; each start's scalars (value, memory,
    lam, slope, alpha, iterations, best value) are Python floats, since a
    batch rarely holds more than a few live starts and a numpy call on
    so few costs more than its arithmetic.  Returns (x, fx, gx, used):
    the best point each start reached, its value (>= f(project(x0))
    row-wise) and gradient, and the iterations each start used.
    """
    x = project(np.array(x0, dtype=float))
    n = len(x)
    axes = tuple(range(1, x.ndim))
    pad = (slice(None),) + (None,) * (x.ndim - 1)
    f0, g = fg(x)
    best, gbest = x.copy(), g.copy()
    if budget < 1:
        return best, f0.copy(), gbest, np.zeros(n, dtype=int)
    lo, hi = SPG_STEPS
    unit = np.abs(project(x + g) - x).max(axis=axes)
    alpha = np.clip(1.0 / np.maximum(unit, lo), lo, hi).tolist()
    fx = f0.tolist()
    fbest = list(fx)
    recent = [[f] * SPG_MEMORY for f in fx]
    used = [0] * n
    lam, slope = [1.0] * n, [0.0] * n

    def floor(f):
        return SPG_RTOL * (1.0 + abs(f))

    def direction(lanes, xr, gr):
        """Projected steps of ``lanes`` at points ``xr`` with gradients ``gr``;
        sets their slopes and lam = 1 and flags those that can still gain."""
        pr = project(xr + np.array([alpha[i] for i in lanes])[pad] * gr) - xr
        gain = []
        for i, sl in zip(lanes, (gr * pr).sum(axis=axes).tolist()):
            slope[i], lam[i] = sl, 1.0
            gain.append(sl > floor(fx[i]))
        return pr, gain

    # The live starts in ascending order and, row for row, their points,
    # gradients and steps; a start that stops leaves them for good.
    live = list(range(n))
    xs, gs = x, g
    ps, keep = direction(live, xs, gs)
    while True:
        if not all(keep):
            live = [i for i, k in zip(live, keep) if k]
            xs, gs, ps = xs[keep], gs[keep], ps[keep]
        if not live:
            break
        y = xs + np.array([lam[i] for i in live])[pad] * ps
        fy, gy = fg(y)
        fy = fy.tolist()
        ok = [f >= min(recent[i]) + SPG_ARMIJO * lam[i] * slope[i] for i, f in zip(live, fy)]
        rows = [j for j, k in enumerate(ok) if k]
        keep = [False] * len(live)
        if rows:
            whole = len(rows) == len(live)
            ya, ga = (y, gy) if whole else (y[rows], gy[rows])
            s = ya - (xs if whole else xs[rows])
            sy = (s * (ga - (gs if whole else gs[rows]))).sum(axis=axes).tolist()
            ss = (s * s).sum(axis=axes).tolist()
            if whole:
                xs, gs = y, gy
            else:
                xs[rows], gs[rows] = ya, ga
            up, go = [], []  # accepted rows that gained; live rows that go on
            # r counts the accepted rows, j is a row of the batch, i its start
            for r, (j, sy_j, ss_j) in enumerate(zip(rows, sy, ss)):
                i, f = live[j], fy[j]
                sy_j = -sy_j
                alpha[i] = min(max(ss_j / sy_j, lo), hi) if sy_j > 0.0 else hi
                change = abs(f - fx[i])
                fx[i] = f
                recent[i][used[i] % SPG_MEMORY] = f
                used[i] += 1
                if f > fbest[i]:
                    fbest[i] = f
                    up.append(r)
                if used[i] < budget and change > floor(f):
                    go.append(j)
            if up:
                lanes = [live[rows[r]] for r in up]
                if len(up) < len(rows):
                    ya, ga = ya[up], ga[up]
                best[lanes], gbest[lanes] = ya, ga
            if go:
                every = len(go) == len(live)
                lanes = [live[j] for j in go]
                pr, gain = direction(lanes, *((xs, gs) if every else (xs[go], gs[go])))
                if every:
                    ps = pr
                else:
                    ps[go] = pr
                for j, k in zip(go, gain):
                    keep[j] = k
        for j, (i, f, k) in enumerate(zip(live, fy, ok)):
            if k:
                continue
            step = lam[i]
            lam[i] = _backtrack(step, slope[i], fx[i] + step * slope[i] - f)
            if lam[i] * slope[i] > floor(fx[i]):
                keep[j] = True
            else:
                used[i] += 1
    return best, np.array(fbest), gbest, np.array(used, dtype=int)


def _backtrack(step: float, slope: float, drop: float) -> float:
    """The peak of the quadratic through f(x), its slope along p and a
    rejected value ``drop`` below the linear model at ``step``, kept
    within [0.1, 0.5] of the step.  A zero ``drop`` divides as numpy
    does: an infinite peak goes to its bound, an undefined one to 0.1."""
    num, den = step * step * slope, 2.0 * drop
    if den:
        quad = num / den
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            quad = float(np.divide(num, den))
    if quad != quad:
        quad = 0.0
    return min(max(quad, 0.1 * step), 0.5 * step)


def top_k_flat(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest distinct values, each at its lowest index.

    The result is ordered by value, descending.  Exactly tied entries
    count once, so fewer than k indices come back when ``values`` holds
    fewer than k distinct values.
    """
    _, first = np.unique(-np.asarray(values).ravel(), return_index=True)
    return first[:k]


def row_blocks(n_rows: int, n_cols: int) -> list[tuple[int, int]]:
    """Row ranges (lo, hi) of an (n_rows, n_cols) grid, in row order.

    Each block holds max(1, GRID_BLOCK_NODES // n_cols) rows, so at most
    GRID_BLOCK_NODES nodes unless one row alone is larger.
    """
    rows = max(1, GRID_BLOCK_NODES // n_cols)
    return [(lo, min(lo + rows, n_rows)) for lo in range(0, n_rows, rows)]


def top_k_rows(score, n_rows: int, n_cols: int, k: int):
    """:func:`top_k_flat` of an (n_rows, n_cols) matrix scored in row blocks.

    ``score(lo, hi)`` returns rows lo..hi-1 of the matrix.  The blocks of
    :func:`row_blocks` are scored in order, each cut to its own top k.  A
    value's lowest index lies in the earliest block that holds it, and
    each block keeps a value at most once, so the top k of the survivors,
    concatenated in row order, is exactly the top k of the whole matrix.
    Returns (flat indices, their values, blocks).
    """

    def block(span):
        lo, hi = span
        vals = np.asarray(score(lo, hi))
        # The k best distinct row maxima are k distinct values, so the
        # block's top k all reach the k-th of them: rank only those entries.
        rmax = vals.max(axis=1)
        rbest = top_k_flat(rmax, k)
        floor = rmax[rbest[-1]] if len(rbest) == k else -np.inf
        flat = vals.ravel()
        cand = np.flatnonzero(flat >= floor)
        idx = cand[top_k_flat(flat[cand], k)]
        return idx + lo * n_cols, flat[idx]

    parts = [block(span) for span in row_blocks(n_rows, n_cols)]
    idx = np.concatenate([p[0] for p in parts])
    vals = np.concatenate([p[1] for p in parts])
    best = top_k_flat(vals, k)
    return idx[best], vals[best], len(parts)


def top_k_bounded(score, bound: np.ndarray, n_cols: int, k: int):
    """:func:`top_k_rows` that skips the rows unable to reach the top k.

    ``score(rows)`` returns the rows ``rows`` (an ascending index array)
    of an (len(bound), n_cols) matrix, each row with the same bits
    whichever rows come with it (as :func:`pair_dets` gives them), and
    ``bound[r]`` is an upper bound on the maximum of row r, up to
    rounding.  The rows with the highest distinct bounds are scored
    first, max(k, n_rows / 16) of them (rounded up) but at most one
    :func:`row_blocks` block; the k-th best distinct value found there,
    tau, is at most the k-th best of the whole matrix.  A row whose bound
    plus a relative slack of 1e-9 stays below tau holds none of the top
    k, so only the remaining rows go through :func:`top_k_rows`, in row
    order.  Both parts keep each value at its lowest index, and the
    merged top k is exactly that of the whole matrix.  Returns (flat
    indices, their values, blocks, rows scored).
    """
    bound = np.asarray(bound, dtype=float)

    def top(rows):
        idx, vals, blocks = top_k_rows(lambda lo, hi: score(rows[lo:hi]), rows.size, n_cols, k)
        return rows[idx // n_cols] * n_cols + idx % n_cols, vals, blocks

    n_rows = len(bound)
    size = min(max(k, -(-n_rows // 16)), row_blocks(n_rows, n_cols)[0][1])
    probe = np.sort(top_k_flat(bound, size))
    parts = [top(probe)]
    tau = parts[0][1][-1] if len(parts[0][1]) == k else -np.inf
    # NaN bounds are kept: they bound nothing
    keep = ~(bound + 1e-9 * (1.0 + np.abs(bound)) < tau)
    keep[probe] = False
    rest = np.flatnonzero(keep)
    if rest.size:
        parts.append(top(rest))
    idx = np.concatenate([p[0] for p in parts])
    vals = np.concatenate([p[1] for p in parts])
    order = np.argsort(idx, kind="stable")
    pick = order[top_k_flat(vals[order], k)]
    return idx[pick], vals[pick], sum(p[2] for p in parts), probe.size + rest.size
