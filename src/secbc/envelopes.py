"""Weighted mutual-information functionals and their Gaussian maxima.

Three nested objectives sit behind the region computations, all
evaluated over Gaussian input families (restricting to Gaussians is
lossless for the maximized values, which is what the Gaussian-maximizer
structure guarantees):

- level 1:  s(K*) = I(X;Y2) - eta * I(X;Y1), maximized over K* below a
  constraint to give ``v_eta``;
- level 2:  lam1*I(X;Y1) - (lam1+lam2)*I(X;Y2) + lam1*s(inner split),
  maximized over chained splits to give ``v_hat``;
- level 3:  an (alpha, lam0)-weighted combination on top of level 2,
  maximized over three chained splits to give ``v_tilde``.

Each maximization is a coarse tensor-grid sweep over sub-covariance
parameters followed by multi-start coordinate golden-section refinement.
The grid is streamed: its innermost level is scored in row blocks of
outer nodes (:func:`secbc.sweeps.top_k_rows`), so memory stays at one
block whatever the grid size.  The seeds are the ``GridSpec.starts``
best distinct grid values, each at its lowest flat index (the
lexicographically smallest parameter vector); exactly tied nodes are
almost always one split reached through a degenerate parameterization
(a zero scaling makes the angles below it irrelevant), so they would
refine to the same point.  Results are deterministic under any parallel
evaluation order.  Grid seeds and the best spectral rank-one seeds are
then refined together, in lockstep, by one batched
:func:`secbc.sweeps.coordinate_refine`; the objectives therefore take a
batch of parameter vectors.  ``EnvelopeResult.grid_meta`` records the
grid nodes scored, the blocks and the line searches each start used.

``bound_b`` is the closed-form eigenvalue bound certifying that the
level-2 objective stays bounded over all inputs, and
``factorization_gap`` checks the sub-additivity of all three levels on
product channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import GaussianBc, make_channel, mi_xy
from .matops import logdet2, rotation_angles, sqrt_factor, validate_psd
from .sweeps import (
    GridSpec,
    chain_factor,
    children_factors,
    coordinate_refine,
    det_i_plus_gram,
    diag_combos,
    diag_values_sqrt,
    half_log2_det_gram,
    pair_dets,
    rotation_batch,
    theta_tuple_grid,
    top_k_rows,
)

__all__ = [
    "EnvelopeWeights",
    "EnvelopeResult",
    "s_eta",
    "v_eta",
    "t_lambda_eta",
    "v_hat",
    "f_value",
    "v_tilde",
    "bound_b",
    "factorization_gap",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class EnvelopeWeights:
    """Weight bundle (lam0, lam1, lam2, eta, alpha) for the functionals.

    All lambdas must be positive and eta must lie in (0, 2); eta > 1 is
    the regime of the boundedness results, smaller values are allowed for
    convexity scans.  ``lambda0 > lambda2`` is additionally required by
    the level-3 computations and checked there.
    """

    lambda0: float = 2.0
    lambda1: float = 1.0
    lambda2: float = 1.0
    eta: float = 1.1
    alpha: float = 0.5

    def __post_init__(self):
        if self.lambda0 <= 0 or self.lambda1 <= 0 or self.lambda2 <= 0:
            raise ValueError("all lambda weights must be positive")
        if not 0.0 < self.eta < 2.0:
            raise ValueError("eta must lie in (0, 2)")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")


@dataclass
class EnvelopeResult:
    """Maximized value, the optimizing split(s) and sweep bookkeeping."""

    value: float
    argmax_splits: list[np.ndarray]
    grid_meta: dict


def s_eta(ch: GaussianBc, kx, eta: float) -> float:
    """I(X;Y2) - eta * I(X;Y1) for Gaussian X with covariance ``kx``."""
    return mi_xy(ch, kx, 2) - eta * mi_xy(ch, kx, 1)


def _bounds_spans(t: int, theta_steps: int, diag_steps: int, levels: int):
    """Refinement box and bracket half-widths of a chained parameter vector."""
    m = t * (t - 1) // 2
    bounds = [(0.0, 2.0 * math.pi)] * m + [(0.0, 1.0)] * t
    spans = [2.0 * math.pi / theta_steps] * m
    # widest gap of the sqrt-spaced scaling grid sits at the top end
    spans += [2.0 / max(diag_steps - 1, 1)] * t
    return bounds * levels, np.tile(spans, levels)


def _level_logdets(ch: GaussianBc, b0: np.ndarray, params, levels: int):
    """0.5*log2 det(I + G_j K G_j^T) of each chained level, shape (S, levels, 2).

    ``params`` is a batch (S, n) of chained parameter vectors below the
    factor ``b0``; the last axis holds j = 1, 2 from one ``slogdet``.
    """
    factors = chain_factor(b0, params, ch.t, levels)
    return half_log2_det_gram(np.stack([ch.g1, ch.g2]), factors[:, :, None])


def _rank1_angles(b0: np.ndarray, u: np.ndarray, t: int):
    """Angles aligning the first scaled column of B V with direction u."""
    x, *_ = np.linalg.lstsq(b0, u, rcond=None)
    nrm = np.linalg.norm(x)
    if nrm < 1e-12:
        return None
    x = x / nrm
    basis = np.eye(t)
    basis[:, 0] = x
    q, _ = np.linalg.qr(basis)
    if q[:, 0] @ x < 0:
        q[:, 0] = -q[:, 0]
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return rotation_angles(q)


def _spectral_seeds(ch: GaussianBc, b0: np.ndarray, eta: float, levels: int):
    """Rank-one starting points for the chained envelope optimizations.

    Optima with tiny splits live inside narrow direction cones that a
    coarse angle grid can step over entirely, and (for any t, scalar
    channels included) below the first nonzero scaling node; the extreme
    directions of the linearized objectives (generalized eigenvectors of
    the two gain Grams, top eigenvector of W2 - eta*W1) seed those basins
    directly with small splits delta.  For t = 1 the only direction is
    the scalar one, which needs no angles.
    """
    from scipy.linalg import eigh as generalized_eigh

    t = ch.t
    m = t * (t - 1) // 2
    if t == 1:
        angles = [np.zeros(0)]
    else:
        w1 = ch.g1.T @ ch.g1
        w2 = ch.g2.T @ ch.g2
        dirs = []
        try:
            _, vecs = generalized_eigh(w1, w2)
            dirs += [vecs[:, 0], vecs[:, -1]]
        except np.linalg.LinAlgError:  # pragma: no cover - defensive
            pass
        _, vecs = np.linalg.eigh(w2 - eta * w1)
        dirs.append(vecs[:, -1])
        angles = [_rank1_angles(b0, u / np.linalg.norm(u), t) for u in dirs]

    zeros_level = np.zeros(m + t)
    ones_level = np.concatenate([np.zeros(m), np.ones(t)])
    seeds = []
    for ang in angles:
        if ang is None:
            continue
        for delta in (1e-3, 1e-2, 1e-1):
            lead = np.concatenate([ang, [delta], np.zeros(t - 1)])
            if levels == 1:
                seeds.append(lead)
            elif levels == 2:
                seeds.append(np.concatenate([lead, zeros_level]))
                seeds.append(np.concatenate([lead, ones_level]))
                seeds.append(np.concatenate([ones_level, lead]))
            else:
                seeds.append(np.concatenate([lead, ones_level, zeros_level]))
                seeds.append(np.concatenate([lead, ones_level, ones_level]))
                seeds.append(np.concatenate([lead, zeros_level, zeros_level]))
                seeds.append(np.concatenate([ones_level, lead, zeros_level]))
                seeds.append(np.concatenate([ones_level, ones_level, lead]))
    return seeds


def _refine(objective, seeds, top_value, extra, keep, box, grid):
    """(argmax params, value, line searches per start) after a grid sweep.

    Without a refinement budget the best grid node stands.  Otherwise the
    grid seeds plus the ``keep`` best-scoring ``extra`` seeds (scored in
    one batch, ties to the earlier seed) are polished together by
    :func:`coordinate_refine`; the best start wins, ties to the earlier.
    """
    if grid.refine_iters == 0:
        return seeds[0], float(top_value), []
    starts = list(seeds)
    if extra:
        scores = objective(np.array(extra))
        starts += [extra[i] for i in np.argsort(-scores, kind="stable")[:keep]]
    bounds, spans = box
    x, fx, used = coordinate_refine(
        objective, np.array(starts), bounds, spans, grid.refine_tol, grid.refine_iters
    )
    best = int(np.argmax(fx))
    return x[best], float(fx[best]), used.tolist()


def _seed_params(flat_idx, shapes, theta_tuples_list, dcombos_list):
    """Parameter vector(s) for flat indices of a chained sweep tensor.

    ``shapes`` lists the per-axis sizes in C order, alternating rotation
    and scaling axes level by level.
    """
    out = []
    for flat in np.atleast_1d(flat_idx):
        rest = int(flat)
        idx = []
        for size in reversed(shapes):
            rest, here = divmod(rest, size)
            idx.append(here)
        idx.reverse()
        parts = []
        for level, (tuples, combos) in enumerate(
            zip(theta_tuples_list, dcombos_list)
        ):
            parts.append(tuples[idx[2 * level]])
            parts.append(combos[idx[2 * level + 1]])
        out.append(np.concatenate(parts))
    return out


def _grid_meta(grid, theta_steps, diag_steps, levels, seeds, nodes, blocks, used):
    return {
        "resolution": {
            "theta_steps": theta_steps,
            "diag_steps": diag_steps,
            "levels": levels,
        },
        "refine_budget": grid.refine_iters,
        "starts": len(seeds),
        "grid_nodes": nodes,
        "grid_blocks": blocks,
        "line_searches": used,
    }


def v_eta(ch: GaussianBc, k, eta: float, grid: GridSpec | None = None) -> EnvelopeResult:
    """Maximum of the level-1 objective over all ``K*`` below ``k``.

    The value is always >= 0 because K* = 0 is feasible and scores 0.
    ``eta`` must be >= 1 (equality is the direct continuity evaluation).
    """
    if eta < 1.0:
        raise ValueError("v_eta requires eta >= 1")
    grid = grid or GridSpec()
    k = validate_psd(k, name="k")
    t = ch.t
    if k.shape[0] != t:
        raise ValueError("constraint dimension does not match the channel")
    b0 = sqrt_factor(k)
    m = t * (t - 1) // 2
    tuples = theta_tuple_grid(m, grid.theta_steps)
    vb = rotation_batch(tuples, t)
    dvals = diag_values_sqrt(grid.diag_steps)
    dgrids = [dvals] * t
    dcombos = diag_combos(dvals, t)

    def score(lo, hi):
        l1 = 0.5 * np.log2(pair_dets(ch.g1, b0[None], vb[lo:hi], dgrids)[0])
        l2 = 0.5 * np.log2(pair_dets(ch.g2, b0[None], vb[lo:hi], dgrids)[0])
        return (l2 - eta * l1).reshape(hi - lo, -1)

    flat, top, blocks = top_k_rows(score, len(vb), len(dcombos), grid.starts)
    seeds = _seed_params(flat, [len(vb), len(dcombos)], [tuples], [dcombos])

    def objective(params):
        h = _level_logdets(ch, b0, params, 1)
        return h[:, 0, 1] - eta * h[:, 0, 0]

    box = _bounds_spans(t, grid.theta_steps, grid.diag_steps, 1)
    x, val, used = _refine(
        objective, seeds, top[0], _spectral_seeds(ch, b0, eta, 1), 2, box, grid
    )
    bstar = chain_factor(b0, x, t, 1)[0, 0]
    kstar = bstar @ bstar.T
    meta = _grid_meta(
        grid, grid.theta_steps, grid.diag_steps, 1, seeds,
        len(vb) * len(dcombos), blocks, used,
    )
    return EnvelopeResult(val, [0.5 * (kstar + kstar.T)], meta)


def t_lambda_eta(
    ch: GaussianBc, kx, w: EnvelopeWeights, grid: GridSpec | None = None
) -> float:
    """Level-2 objective of a Gaussian input with covariance ``kx``.

    lam1*I(X;Y1) - (lam1+lam2)*I(X;Y2) + lam1*v_eta(kx): for Gaussian
    inputs the inner envelope value is the level-1 maximum over the
    input's own covariance.
    """
    inner = v_eta(ch, kx, w.eta, grid)
    return (
        w.lambda1 * mi_xy(ch, kx, 1)
        - (w.lambda1 + w.lambda2) * mi_xy(ch, kx, 2)
        + w.lambda1 * inner.value
    )


def v_hat(
    ch: GaussianBc, k, w: EnvelopeWeights, grid: GridSpec | None = None
) -> EnvelopeResult:
    """Maximum of the level-2 objective over splits ``K1 + K2`` below ``k``.

    Sweeps the chained parameterization (outer K1+K2 below k, inner K1
    below K1+K2) jointly, streaming the inner level in row blocks of
    outer nodes; argmax_splits holds [K1, K2].
    """
    grid = grid or GridSpec()
    k = validate_psd(k, name="k")
    t = ch.t
    if k.shape[0] != t:
        raise ValueError("constraint dimension does not match the channel")
    lam1, lam2, eta = w.lambda1, w.lambda2, w.eta
    b0 = sqrt_factor(k)
    m = t * (t - 1) // 2

    tup = theta_tuple_grid(m, grid.chain_theta_steps)
    vb = rotation_batch(tup, t)
    dvals = diag_values_sqrt(grid.chain_diag_steps)
    dc = diag_combos(dvals, t)
    dgrids = [dvals] * t
    flat_kids = children_factors(b0[None], vb, dc)[0].reshape(-1, t, t)

    l1o = 0.5 * np.log2(det_i_plus_gram(ch.g1, flat_kids))
    l2o = 0.5 * np.log2(det_i_plus_gram(ch.g2, flat_kids))
    gterm = lam1 * l1o - (lam1 + lam2) * l2o  # (N1,)

    def score(lo, hi):
        di1 = 0.5 * np.log2(pair_dets(ch.g1, flat_kids[lo:hi], vb, dgrids))
        di2 = 0.5 * np.log2(pair_dets(ch.g2, flat_kids[lo:hi], vb, dgrids))
        return gterm[lo:hi, None] + lam1 * (di2 - eta * di1).reshape(hi - lo, -1)

    flat, top, blocks = top_k_rows(score, len(flat_kids), len(vb) * len(dc), grid.starts)
    shapes = [len(vb), len(dc)] * 2
    seeds = _seed_params(flat, shapes, [tup, tup], [dc, dc])

    def objective(params):
        h = _level_logdets(ch, b0, params, 2)
        val = lam1 * h[:, 0, 0]
        val -= (lam1 + lam2) * h[:, 0, 1]
        val += lam1 * (h[:, 1, 1] - eta * h[:, 1, 0])
        return val

    box = _bounds_spans(t, grid.chain_theta_steps, grid.chain_diag_steps, 2)
    x, val, used = _refine(
        objective, seeds, top[0], _spectral_seeds(ch, b0, eta, 2), 3, box, grid
    )
    bsum, binner = chain_factor(b0, x, t, 2)[0]
    ksum = bsum @ bsum.T
    k1 = binner @ binner.T
    k1 = 0.5 * (k1 + k1.T)
    k2 = 0.5 * (ksum + ksum.T) - k1
    meta = _grid_meta(
        grid, grid.chain_theta_steps, grid.chain_diag_steps, 2, seeds,
        len(flat_kids) * len(vb) * len(dc), blocks, used,
    )
    return EnvelopeResult(val, [k1, k2], meta)


def f_value(
    ch: GaussianBc, kx, w: EnvelopeWeights, grid: GridSpec | None = None
) -> float:
    """Level-3 objective of a Gaussian input with covariance ``kx``.

    (lam2 - (1-alpha)*lam0)*I(X;Y2) - alpha*lam0*I(X;Y1) plus the level-2
    envelope of the input's covariance.  Requires lambda0 > lambda2.
    """
    if w.lambda0 <= w.lambda2:
        raise ValueError("level-3 computations require lambda0 > lambda2")
    abar = 1.0 - w.alpha
    return (
        (w.lambda2 - abar * w.lambda0) * mi_xy(ch, kx, 2)
        - w.alpha * w.lambda0 * mi_xy(ch, kx, 1)
        + v_hat(ch, kx, w, grid).value
    )


def v_tilde(
    ch: GaussianBc, k, w: EnvelopeWeights, grid: GridSpec | None = None
) -> EnvelopeResult:
    """Maximum of the layered level-3 objective over triple splits.

    Sweeps K1 + K2 + K3 below ``k`` through three chained sub-covariance
    levels (coarser per-level grids, the innermost level streamed in row
    blocks of two-level nodes, then a joint 3-level refinement);
    argmax_splits holds [K1, K2, K3].
    """
    if w.lambda0 <= w.lambda2:
        raise ValueError("level-3 computations require lambda0 > lambda2")
    grid = grid or GridSpec()
    k = validate_psd(k, name="k")
    t = ch.t
    if k.shape[0] != t:
        raise ValueError("constraint dimension does not match the channel")
    lam0, lam1, lam2 = w.lambda0, w.lambda1, w.lambda2
    alpha, abar, eta = w.alpha, 1.0 - w.alpha, w.eta
    b0 = sqrt_factor(k)
    m = t * (t - 1) // 2

    tup = theta_tuple_grid(m, grid.deep_theta_steps)
    vb = rotation_batch(tup, t)
    dvals = diag_values_sqrt(grid.deep_diag_steps)
    dc = diag_combos(dvals, t)
    dgrids = [dvals] * t

    flat1 = children_factors(b0[None], vb, dc)[0].reshape(-1, t, t)
    a1 = 0.5 * np.log2(det_i_plus_gram(ch.g1, flat1))
    a2 = 0.5 * np.log2(det_i_plus_gram(ch.g2, flat1))
    aterm = (lam2 - abar * lam0) * a2 - alpha * lam0 * a1  # (N1,)

    n1 = len(flat1)
    flat2 = children_factors(flat1, vb, dc).reshape(-1, t, t)
    n2 = len(flat2) // n1
    b1 = 0.5 * np.log2(det_i_plus_gram(ch.g1, flat2))
    b2 = 0.5 * np.log2(det_i_plus_gram(ch.g2, flat2))
    bterm = lam1 * b1 - (lam1 + lam2) * b2  # (N1*N2,)
    outer = np.repeat(aterm, n2) + bterm

    def score(lo, hi):
        c1 = 0.5 * np.log2(pair_dets(ch.g1, flat2[lo:hi], vb, dgrids))
        c2 = 0.5 * np.log2(pair_dets(ch.g2, flat2[lo:hi], vb, dgrids))
        return outer[lo:hi, None] + lam1 * (c2 - eta * c1).reshape(hi - lo, -1)

    flat, top, blocks = top_k_rows(score, len(flat2), len(vb) * len(dc), grid.starts)
    shapes = [len(vb), len(dc)] * 3
    seeds = _seed_params(flat, shapes, [tup] * 3, [dc] * 3)

    def objective(params):
        h = _level_logdets(ch, b0, params, 3)
        val = (lam2 - abar * lam0) * h[:, 0, 1]
        val -= alpha * lam0 * h[:, 0, 0]
        val += lam1 * h[:, 1, 0]
        val -= (lam1 + lam2) * h[:, 1, 1]
        val += lam1 * (h[:, 2, 1] - eta * h[:, 2, 0])
        return val

    box = _bounds_spans(t, grid.deep_theta_steps, grid.deep_diag_steps, 3)
    x, val, used = _refine(
        objective, seeds, top[0], _spectral_seeds(ch, b0, eta, 3), 3, box, grid
    )
    b123, b12, binner = chain_factor(b0, x, t, 3)[0]
    k123 = 0.5 * ((b123 @ b123.T) + (b123 @ b123.T).T)
    k12 = 0.5 * ((b12 @ b12.T) + (b12 @ b12.T).T)
    k1 = 0.5 * ((binner @ binner.T) + (binner @ binner.T).T)
    meta = _grid_meta(
        grid, grid.deep_theta_steps, grid.deep_diag_steps, 3, seeds,
        len(flat2) * len(vb) * len(dc), blocks, used,
    )
    return EnvelopeResult(val, [k1, k12 - k1, k123 - k12], meta)


def bound_b(ch: GaussianBc, w: EnvelopeWeights) -> float:
    """Closed-form upper bound on the doubled level-2 MI difference.

    With Sigma_j = (G_j^T G_j)^{-1} and lam = (lam1+lam2)/lam1, returns

        -lam1*log2|Sigma_1| + (lam1+lam2)*log2|Sigma_2|
        + lam1 * t * log2[(mu* + mu_max(Sigma_1)) / (mu* + mu_min(Sigma_2))^lam]

    where mu* = max{0, (mu_min(Sigma_2) - lam*mu_max(Sigma_1)) / (lam-1)}
    maximizes the eigenvalue-ratio term over nonnegative shifts.
    This bounds 2*[lam1*I(X;Y1) - (lam1+lam2)*I(X;Y2)] for every Gaussian
    input and is finite for every valid channel.
    """
    t = ch.t
    s1 = np.linalg.inv(ch.g1.T @ ch.g1)
    s2 = np.linalg.inv(ch.g2.T @ ch.g2)
    s1 = 0.5 * (s1 + s1.T)
    s2 = 0.5 * (s2 + s2.T)
    lam = (w.lambda1 + w.lambda2) / w.lambda1
    mu_max1 = float(np.linalg.eigvalsh(s1).max())
    mu_min2 = float(np.linalg.eigvalsh(s2).min())
    # Stationary point of log2(x + mu_max1) - lam*log2(x + mu_min2) on
    # x >= 0; the lam - 1 denominator picks the maximizing branch.
    mu_star = max(0.0, (mu_min2 - lam * mu_max1) / (lam - 1.0))
    tail = math.log2(mu_star + mu_max1) - lam * math.log2(mu_star + mu_min2)
    return (
        -w.lambda1 * logdet2(s1)
        + (w.lambda1 + w.lambda2) * logdet2(s2)
        + w.lambda1 * t * tail
    )


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    t1, t2 = a.shape[0], b.shape[0]
    out = np.zeros((t1 + t2, t1 + t2))
    out[:t1, :t1] = a
    out[t1:, t1:] = b
    return out


def factorization_gap(
    ch_a: GaussianBc,
    ch_b: GaussianBc,
    k_a,
    k_b,
    w: EnvelopeWeights,
    grid: GridSpec | None = None,
    mode: str = "v",
) -> tuple[float, float]:
    """Product-channel optimum vs the sum of single-channel optima.

    Builds the product channel with block-diagonal gains and constraint
    diag(k_a, k_b), then maximizes the envelope level selected by
    ``mode`` ("v", "vhat" or "vtilde") over (a) block-diagonal splits,
    which score exactly the sum of the single-channel optima by
    additivity, and (b) a full-matrix sweep.  Sub-additivity of the
    envelopes guarantees product_value <= sum_value up to grid slack.
    """
    grid = grid or GridSpec()
    ops = {
        "v": lambda ch, k, g: v_eta(ch, k, w.eta, g),
        "vhat": lambda ch, k, g: v_hat(ch, k, w, g),
        "vtilde": lambda ch, k, g: v_tilde(ch, k, w, g),
    }
    if mode not in ops:
        raise ValueError(f"mode must be one of {sorted(ops)}, got {mode!r}")
    op = ops[mode]
    res_a = op(ch_a, validate_psd(k_a, name="k_a"), grid)
    res_b = op(ch_b, validate_psd(k_b, name="k_b"), grid)
    sum_value = res_a.value + res_b.value

    ch_p = make_channel(
        _block_diag(ch_a.g1, ch_b.g1), _block_diag(ch_a.g2, ch_b.g2)
    )
    k_p = _block_diag(np.asarray(k_a, float), np.asarray(k_b, float))
    pgrid = grid
    if ch_p.t > 2 and mode == "v":
        # A full-resolution single-level sweep is hopeless above t = 2.
        pgrid = replace(
            grid,
            theta_steps=grid.chain_theta_steps,
            diag_steps=grid.chain_diag_steps,
        )
    full_value = op(ch_p, k_p, pgrid).value
    return max(full_value, sum_value), sum_value
