"""Batched grid sweeps over sub-covariances plus derivative-free refinement.

The optimization problems in this package all have the same shape: a
smooth objective over one or more chained sub-covariance parameterizations
(angles in [0, 2*pi), diagonal scalings in [0, 1]).  They are attacked by
a coarse tensor grid evaluated with vectorized numpy, followed by
coordinate-wise golden-section polish of the best grid nodes.

The grid half works on square-root factors: a child of the factor ``B``
under parameters (theta, d) is ``B @ V(theta) @ diag(sqrt(d))``, whose
Gram matrix is exactly the sub-covariance.  Determinants of
``I + G K* G^T`` over a whole diagonal grid come from the principal-minor
expansion of ``det(I + D M)``, which costs 2^t coefficient arrays instead
of one determinant per grid node.

Ties during argmax selection always resolve to the lowest flat index,
i.e. the lexicographically smallest parameter vector, so sweeps are
reproducible regardless of how callers parallelize.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .matops import givens_pairs, rotation

__all__ = [
    "GridSpec",
    "chain_factor",
    "half_log2_det_gram",
    "theta_values",
    "diag_values",
    "theta_tuple_grid",
    "diag_combos",
    "diag_values_sqrt",
    "rotation_batch",
    "children_factors",
    "det_i_plus_gram",
    "pair_dets",
    "simplex_grid",
    "golden_max",
    "coordinate_refine",
    "top_k_flat",
    "worker_count",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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
    defaults would be astronomically large there.  ``starts``,
    ``refine_iters`` and ``refine_tol`` budget the golden-section polish.
    """

    theta_steps: int = 64
    diag_steps: int = 33
    trace_steps: int = 65
    chain_theta_steps: int = 16
    chain_diag_steps: int = 9
    deep_theta_steps: int = 8
    deep_diag_steps: int = 5
    deep_trace_steps: int = 17
    refine_iters: int = 200
    refine_tol: float = 1e-6
    starts: int = 4

    def __post_init__(self):
        for name in (
            "theta_steps",
            "diag_steps",
            "trace_steps",
            "chain_theta_steps",
            "chain_diag_steps",
            "deep_theta_steps",
            "deep_diag_steps",
            "deep_trace_steps",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.refine_iters < 0 or self.starts < 1:
            raise ValueError("invalid refinement settings")


def worker_count() -> int:
    """Parallel workers: SECBC_THREADS if set, else logical core count."""
    env = os.environ.get("SECBC_THREADS", "").strip()
    if env:
        try:
            n = int(env)
        except ValueError:
            n = 0
        if n < 1:
            raise ValueError(f"SECBC_THREADS must be an integer >= 1, got {env!r}")
        return n
    return os.cpu_count() or 1


def theta_values(steps: int, full: float = 2.0 * math.pi) -> np.ndarray:
    """Angle grid on [0, full); endpoint omitted because of periodicity."""
    return np.linspace(0.0, full, steps, endpoint=False)


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


def theta_tuple_grid(m: int, steps: int, full: float = 2.0 * math.pi) -> np.ndarray:
    """All angle tuples, shape (steps**m, m); a single empty tuple for m=0."""
    if m == 0:
        return np.zeros((1, 0))
    vals = theta_values(steps, full)
    grids = np.meshgrid(*([vals] * m), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def diag_combos(dvalues: np.ndarray, t: int) -> np.ndarray:
    """All diagonal tuples in C (lexicographic) order, shape (steps**t, t)."""
    grids = np.meshgrid(*([dvalues] * t), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def rotation_batch(theta_cols: np.ndarray, t: int) -> np.ndarray:
    """Vectorized :func:`secbc.matops.rotation` over rows of ``theta_cols``."""
    theta_cols = np.atleast_2d(np.asarray(theta_cols, dtype=float))
    n = theta_cols.shape[0]
    pairs = givens_pairs(t)
    if theta_cols.shape[1] != len(pairs):
        raise ValueError("angle tuple length does not match dimension")
    out = np.broadcast_to(np.eye(t), (n, t, t)).copy()
    for k, (i, j) in enumerate(pairs):
        c = np.cos(theta_cols[:, k])
        s = np.sin(theta_cols[:, k])
        g = np.zeros((n, t, t))
        g[:, np.arange(t), np.arange(t)] = 1.0
        g[:, i, i] = c
        g[:, j, j] = c
        g[:, i, j] = -s
        g[:, j, i] = s
        out = out @ g
    return out


def children_factors(
    parents: np.ndarray, vbatch: np.ndarray, dcombos: np.ndarray
) -> np.ndarray:
    """Square-root factors of all sub-covariances of all parents.

    parents (N,t,t), vbatch (nv,t,t), dcombos (nd,t) combine to factors of
    shape (N, nv, nd, t, t) with B_child = B V diag(sqrt(d)); the Gram
    matrix B_child @ B_child.T is the sub-covariance exactly.
    """
    w = np.einsum("nij,vjk->nvik", parents, vbatch)
    sq = np.sqrt(dcombos)  # (nd, t) scales columns
    return w[:, :, None, :, :] * sq[None, None, :, None, :]


def det_i_plus_gram(g: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """det(I + G B B^T G^T) for a batch of factors B (..., t, t)."""
    a = np.einsum("ij,...jk->...ik", g, factors)
    t = a.shape[-1]
    m = np.einsum("...ki,...kj->...ij", a, a)
    m[..., np.arange(t), np.arange(t)] += 1.0
    return np.linalg.det(m)


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
    """
    t = parents.shape[-1]
    if len(dgrids) != t:
        raise ValueError("need one diagonal grid per dimension")
    a = np.einsum("ij,njk,vkl->nvil", g, parents, vbatch)
    m = np.einsum("nvki,nvkj->nvij", a, a)
    n, nv = m.shape[0], m.shape[1]
    dshape = tuple(len(d) for d in dgrids)
    dres = [
        np.asarray(d, dtype=float).reshape(
            (1,) * i + (len(d),) + (1,) * (t - 1 - i)
        )
        for i, d in enumerate(dgrids)
    ]
    out = np.ones((n, nv) + dshape)
    lead = (slice(None), slice(None)) + (None,) * t
    for r in range(1, t + 1):
        for subset in itertools.combinations(range(t), r):
            idx = list(subset)
            minors = np.linalg.det(m[:, :, idx][:, :, :, idx])
            dfact = dres[idx[0]]
            for i in idx[1:]:
                dfact = dfact * dres[i]
            out = out + minors[lead] * dfact[None, None]
    return out


def simplex_grid(t: int, total: float, steps: int) -> np.ndarray:
    """Nonnegative t-tuples summing to ``total`` on a uniform grid.

    The first t-1 coordinates run over ``steps`` values in [0, total]
    and the last takes the remainder; tuples with a negative remainder
    are dropped.  For t = 1 the single tuple (total,) is returned.
    """
    if t == 1:
        return np.array([[total]])
    vals = np.linspace(0.0, total, steps)
    grids = np.meshgrid(*([vals] * (t - 1)), indexing="ij")
    head = np.stack([g.ravel() for g in grids], axis=-1)
    rest = total - head.sum(axis=1)
    keep = rest >= -1e-12
    return np.column_stack([head[keep], np.maximum(rest[keep], 0.0)])


def golden_max(f, lo: float, hi: float, xtol: float = 1e-6):
    """Golden-section maximization of ``f`` on [lo, hi]; returns (x, f(x))."""
    a, b = float(lo), float(hi)
    if b <= a:
        return a, f(a)
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > xtol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
    if f1 >= f2:
        return x1, f1
    return x2, f2


def coordinate_refine(
    f,
    x0: np.ndarray,
    bounds: list[tuple[float, float]],
    spans: np.ndarray,
    xtol: float = 1e-6,
    budget: int = 200,
):
    """Coordinate-wise golden-section polish of a grid optimum.

    Each line search brackets one coordinate within +-span of the current
    point (the grid already localized the basin) and runs golden section
    to ``xtol``.  ``budget`` caps the total number of line searches.
    Returns (x, fx) with fx >= f(x0).
    """
    x = np.array(x0, dtype=float)
    fx = f(x)
    used = 0
    n = x.size
    while used < budget:
        moved = 0.0
        for i in range(n):
            if used >= budget:
                break
            lo = max(bounds[i][0], x[i] - spans[i])
            hi = min(bounds[i][1], x[i] + spans[i])
            if hi - lo < xtol:
                continue

            def line(v, i=i):
                y = x.copy()
                y[i] = v
                return f(y)

            xi, fi = golden_max(line, lo, hi, xtol)
            used += 1
            if fi > fx:
                moved = max(moved, abs(xi - x[i]))
                x[i] = xi
                fx = fi
        if moved < xtol:
            break
    return x, fx


def top_k_flat(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries, ties broken by lowest index."""
    flat = np.asarray(values).ravel()
    k = min(k, flat.size)
    part = np.argpartition(-flat, k - 1)[:k] if k < flat.size else np.arange(flat.size)
    order = np.lexsort((part, -flat[part]))
    return part[order]


def chain_factor(
    b0: np.ndarray, params: np.ndarray, t: int, levels: int
) -> list[np.ndarray]:
    """Chained square-root factors [B_1, ..., B_levels].

    ``params`` concatenates (angles, diag) per level; each level's factor
    is parent @ V(angles) @ diag(sqrt(diag)).  Angles are taken mod 2*pi
    and scalings clipped to [0, 1] so refinement may wander slightly out
    of the box without breaking the parameterization.
    """
    m = t * (t - 1) // 2
    per = m + t
    params = np.asarray(params, dtype=float)
    out: list[np.ndarray] = []
    b = b0
    for lev in range(levels):
        chunk = params[lev * per : (lev + 1) * per]
        ang = np.mod(chunk[:m], 2.0 * math.pi)
        d = np.clip(chunk[m:], 0.0, 1.0)
        b = (b @ rotation(ang, t)) * np.sqrt(d)
        out.append(b)
    return out


def half_log2_det_gram(g: np.ndarray, factor: np.ndarray) -> float:
    """0.5 * log2 det(I + G B B^T G^T) for a single factor B."""
    a = g @ factor
    m = np.eye(a.shape[1]) + a.T @ a
    _, ld = np.linalg.slogdet(m)
    return 0.5 * ld / math.log(2.0)
