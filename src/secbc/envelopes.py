"""Weighted mutual-information functionals and their Gaussian maxima.

Three nested objectives sit behind the region computations, all
evaluated over Gaussian input families (restricting to Gaussians is
lossless for the maximized values, which is what the Gaussian-maximizer
structure guarantees).  They are one layered objective over chained
splits K_L <= ... <= K_1 <= K: with h_j(K_l) = I(X;Y_j) =
0.5*log2 det(I + G_j K_l G_j^T),

    sum_{l<L} (a_l*h_1(K_l) + b_l*h_2(K_l)) + c*(h_2(K_L) - eta*h_1(K_L)),

and each level is one weight table:

- level 1, ``v_eta`` (L = 1): no outer levels, c = 1, i.e.
  s(K*) = I(X;Y2) - eta*I(X;Y1) over K* below the constraint;
- level 2, ``v_hat`` (L = 2): outer (lam1, -(lam1+lam2)), c = lam1;
- level 3, ``v_tilde`` (L = 3): outer (-alpha*lam0, lam2 - (1-alpha)*lam0)
  and (lam1, -(lam1+lam2)), c = lam1.

One maximizer serves all three: a coarse tensor-grid sweep over the
chained sub-covariance parameters (``GridSpec`` theta/diag steps for one
level, ``chain_*`` for two, ``deep_*`` for three) followed by one
batched spectral projected-gradient polish.  The outer levels are
enumerated; the innermost level is streamed, scored in row blocks of
its parents (:func:`secbc.sweeps.top_k_rows`), so memory stays at one
block whatever the grid size.  Since K_L <= K_{L-1} and c > 0, no
child of a parent scores above terms + c*h2(parent), with the outer
terms and h2(parent) already known from the outer level, so
:func:`secbc.sweeps.top_k_bounded` scores only the parents whose bound
can reach the top k, with the same result.  The seeds are the
``sweeps.STARTS`` best distinct grid values, each at its lowest flat
index (the lexicographically smallest parameter vector); exactly tied
nodes are almost always one split reached through a degenerate
parameterization (a zero scaling makes the angles below it irrelevant),
so they would refine to the same point.  Every grid keeps one rotation
per class V ~ V P S (:func:`secbc.sweeps.grid_tables`).

The polish works on chained contractions: level l's factor is
B_l = B_{l-1} C_l with B_0 = sqrt_factor(k) and spectral norm
||C_l|| <= 1, so K_L <= ... <= K_1 <= k holds by construction, singular
k included.  A grid node (angles, d) is C = V(angles) diag(sqrt(d)), a
spectral seed the rank-one sqrt(delta) x e_1^T (:func:`_spectral_seeds`).
The objective's gradient is closed form
(:func:`secbc.sweeps.layered_value_grad`) and the projection clips each
C_l's singular values at 1 (:func:`_contract`), so
:func:`secbc.sweeps.spg_max` polishes the grid
seeds, a full-rank copy of the best one and the best spectral seeds
together, in lockstep; the objective therefore takes a batch of chains.
The polish is equivariant under (C_l R, R^T C_{l+1}) for orthogonal R,
which maps V to V P S, so a dropped duplicate of a grid rotation would
follow the same path in K.  Results do not depend on the block size.
``EnvelopeResult.grid_meta`` records the grid nodes, the nodes scored,
the blocks, the iterations each start used, the starts that hit the
``refine_iters`` cap (``capped``), the
objective calls of the polish (``evaluations``; each evaluates the live
starts at once), the projected-gradient residual ||P(C + grad f) - C||
at the returned chain (``kkt_residual``), its distance from first-order
stationarity, and the ``perf_counter`` seconds of the two phases
(``phase_s``): ``grid`` (tables, outer levels, streamed sweep and
seeds) and ``polish`` (spectral seeds, :func:`secbc.sweeps.spg_max`,
splits and residual).  Only ``phase_s`` varies from run to run.

``bound_b`` is the closed-form eigenvalue bound certifying that the
level-2 objective stays bounded over all inputs, and
``factorization_gap`` checks the sub-additivity of all three levels on
product channels.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .channel import GaussianBc, check_cov, make_channel, mi_xy
from .matops import chained_factors, contractions, gram, half_log2, logdet2, sqrt_factor
from .sweeps import (
    LIFT,
    STARTS,
    GridSpec,
    children_factors,
    det_i_plus_gram,
    diag_values_sqrt,
    grid_params,
    grid_tables,
    layered_value_grad,
    pair_dets,
    pair_dets_rows,
    spg_max,
    top_k_bounded,
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

@dataclass(frozen=True)
class EnvelopeWeights:
    """Weight bundle (lam0, lam1, lam2, eta, alpha) for the functionals.

    All lambdas must be positive and finite, and eta must lie in (0, 2);
    eta > 1 is the regime of the boundedness results, smaller values are
    allowed for convexity scans.  Each envelope level adds its own rule
    (:meth:`check_level`).
    """

    lambda0: float = 2.0
    lambda1: float = 1.0
    lambda2: float = 1.0
    eta: float = 1.1
    alpha: float = 0.5

    def __post_init__(self):
        lams = (self.lambda0, self.lambda1, self.lambda2)
        if not all(0.0 < lam < math.inf for lam in lams):
            raise ValueError("all lambda weights must be positive and finite")
        if not 0.0 < self.eta < 2.0:
            raise ValueError("eta must lie in (0, 2)")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")

    def check_level(self, level: str) -> None:
        """Raise ValueError unless the weights suit the envelope ``level``:
        "v_eta" needs eta >= 1, "v_tilde" (and :func:`f_value`) needs
        lambda0 > lambda2, and "v_hat" takes any weights."""
        if level == "v_eta":
            _check_eta(self.eta)
        elif level == "v_tilde" and not self.lambda0 > self.lambda2:
            raise ValueError("level-3 computations require lambda0 > lambda2")


def _check_eta(eta: float) -> None:
    """The rule of the level-1 envelope: eta >= 1."""
    if not eta >= 1.0:
        raise ValueError("v_eta requires eta >= 1")


@dataclass
class EnvelopeResult:
    """Maximized value, the optimizing split(s) and sweep bookkeeping."""

    value: float
    argmax_splits: list[np.ndarray]
    grid_meta: dict


def s_eta(ch: GaussianBc, kx, eta: float) -> float:
    """I(X;Y2) - eta * I(X;Y1) for Gaussian X with covariance ``kx``."""
    return mi_xy(ch, kx, 2) - eta * mi_xy(ch, kx, 1)


def _spectral_seeds(ch: GaussianBc, b0: np.ndarray, eta: float, levels: int) -> np.ndarray:
    """Rank-one contraction chains (n, levels, t, t) to start the polish from.

    Optima with tiny splits live inside narrow direction cones that a
    coarse angle grid can step over entirely, and (for any t, scalar
    channels included) below the first nonzero scaling node; the extreme
    directions u of the linearized objectives (generalized eigenvectors of
    the two gain Grams, top eigenvector of W2 - eta*W1) seed those basins
    directly with small splits delta*B x x^T B^T, B = ``b0`` and x the
    normalized least-squares solution of B x = u: the contraction
    sqrt(delta)*x*e_1^T at one level, the identity at the levels above it
    and the identity or zero below.  For t = 1 the only direction is the
    scalar one.  The generalized eigenvectors of (W1, W2) come from
    whitening: with W2 = L L^T (positive definite, since the gains are
    invertible) they are L^-T y for the eigenvectors y of L^-1 W1 L^-T.
    """
    t = ch.t
    if t == 1:
        dirs = [np.ones(1)]
    else:
        w1 = ch.g1.T @ ch.g1
        w2 = ch.g2.T @ ch.g2
        linv = np.linalg.inv(np.linalg.cholesky(w2))
        vecs = linv.T @ np.linalg.eigh(linv @ w1 @ linv.T)[1]
        dirs = [vecs[:, 0], vecs[:, -1]]
        _, vecs = np.linalg.eigh(w2 - eta * w1)
        dirs.append(vecs[:, -1])
    eye = np.eye(t)
    # Each layout gives every level the seed (s), the identity (1) or zero (0).
    layouts = {1: ["s"], 2: ["s0", "s1", "1s"], 3: ["s10", "s11", "s00", "1s0", "11s"]}[levels]
    leads = []
    for u in dirs:
        x, *_ = np.linalg.lstsq(b0, u / np.linalg.norm(u), rcond=None)
        if np.linalg.norm(b0 @ x) < 1e-12:  # u is orthogonal to the range of K
            continue
        leads.append(np.outer(x / np.linalg.norm(x), eye[0]))
    # (direction, delta, layout, level) in C order
    seeds = np.empty((len(leads), 3, len(layouts), levels, t, t))
    scaled = np.sqrt([1e-3, 1e-2, 1e-1])[:, None, None] * np.reshape(leads, (-1, 1, t, t))
    for r, row in enumerate(layouts):
        for lev, c in enumerate(row):
            seeds[:, :, r, lev] = scaled if c == "s" else eye if c == "1" else 0.0
    return seeds.reshape(-1, levels, t, t)


def _contract(cs: np.ndarray) -> np.ndarray:
    """Nearest chain of contractions: singular values above 1 clipped to 1.

    ``cs`` (..., t, t) holds one matrix per level; the Frobenius-nearest
    matrix of spectral norm at most 1 keeps the singular vectors and
    clips the singular values.  Matrices already inside are returned
    as they are.  The largest singular value is at most the Frobenius
    norm, so only the matrices with ||C||_F^2 > 1 - 1e-9 (or not finite)
    go through the SVD, each with the bits it gets in any batch; the
    margin dwarfs the rounding of both norms.
    """
    near = ~(np.square(cs).sum(axis=(-2, -1)) <= 1.0 - 1e-9)
    if not near.any():
        return cs
    u, s, vh = np.linalg.svd(cs[near])
    over = s[:, 0] > 1.0
    if not over.any():
        return cs
    if not over.all():
        near[near] = over  # now marks the members to clip
        u, s, vh = u[over], s[over], vh[over]
    out = cs.copy()
    out[near] = (u * np.minimum(s, 1.0)[:, None, :]) @ vh
    return out


# Grid resolution (angle steps, scaling steps) and the number of spectral
# seeds kept, by the number of chained levels.
_LEVEL_GRID = {
    1: ("theta_steps", "diag_steps", 2),
    2: ("chain_theta_steps", "chain_diag_steps", 3),
    3: ("deep_theta_steps", "deep_diag_steps", 3),
}


def _layered_max(ch: GaussianBc, k, outer, inner: float, eta: float, grid):
    """Maximize the layered objective (module docstring) below ``k``.

    ``outer`` lists (a_l, b_l) from the outermost level in, ``inner`` is
    c; L = len(outer) + 1 picks the grid resolution.  The outer levels
    are enumerated on the grid and summed per level, then across levels;
    the innermost level is streamed by :func:`top_k_rows`, its rows being
    the innermost parents (or the rotations when ``k`` is the only
    parent).  With outer levels, :func:`top_k_bounded` scores
    only the parents whose bound terms + c*h2(parent) can reach the top
    k, with the same result.  argmax_splits holds K_L, K_{L-1} - K_L,
    ..., K_1 - K_2.
    """
    start = time.perf_counter()
    k = check_cov(ch, k)
    t = ch.t
    levels = len(outer) + 1
    theta_name, diag_name, keep = _LEVEL_GRID[levels]
    theta_steps, diag_steps = getattr(grid, theta_name), getattr(grid, diag_name)
    gains = (ch.g1, ch.g2)
    b0 = sqrt_factor(k)
    dvals = diag_values_sqrt(diag_steps)
    tab = grid_tables(t, theta_steps, dvals, chained=bool(outer))
    nv, nd = len(tab.rots), len(tab.combos)

    parents, terms = b0[None], None
    for a, b in outer:
        parents = children_factors(parents, tab.outer_rots, tab.combos).reshape(-1, t, t)
        h1, h2 = (half_log2(det_i_plus_gram(g, parents)) for g in gains)
        term = a * h1 + b * h2
        terms = term if terms is None else np.repeat(terms, len(tab.outer_rots) * nd) + term

    def score(rows):
        if outer:
            dets = (pair_dets_rows(g, parents, rows, tab.rots, tab.dgrids) for g in gains)
        else:
            dets = (pair_dets(g, parents, tab.rots[rows], tab.dgrids) for g in gains)
        h1, h2 = (half_log2(d).reshape(len(rows), -1) for d in dets)
        last = inner * (h2 - eta * h1)
        return last if terms is None else terms[rows, None] + last

    n_rows, n_cols = (len(parents), nv * nd) if outer else (nv, nd)
    if outer:
        # K_L <= K_{L-1} gives h2(K_L) <= h2(K_{L-1}) and h1(K_L) >= 0, so
        # with c, eta > 0 a parent's row stays below terms + c*h2(parent).
        bound = terms + inner * h2
        flat, top, blocks, scored = top_k_bounded(score, bound, n_cols, STARTS)
    else:
        flat, top, blocks = top_k_rows(
            lambda lo, hi: score(np.arange(lo, hi)), n_rows, n_cols, STARTS
        )
        scored = n_rows
    m = t * (t - 1) // 2
    params = grid_params(tab, flat, levels).reshape(-1, levels, m + t)
    seeds = contractions(params, t)
    weights = np.array([*outer, (-inner * eta, inner)], dtype=float)
    value_grad = layered_value_grad(np.stack(gains), b0, weights)
    gridded = time.perf_counter()
    evaluations = 0

    def counted(cs):
        nonlocal evaluations
        evaluations += 1
        return value_grad(cs)

    if grid.refine_iters == 0:
        cs, value, used = seeds[0], float(top[0]), []
        grad = value_grad(seeds[:1])[1][0]
    else:
        # Grid seeds, a copy of the best one with every scaling raised to
        # at least LIFT, and the ``keep`` best spectral seeds (scored in
        # one batch, ties to the earlier seed); the best start wins, ties
        # to the earlier.  The polish keeps the null space of a level whose
        # gradient vanishes there (the innermost level always), so only the
        # copy can reach an optimum of higher rank than the node.
        starts = seeds
        lifted = params[0].copy()
        lifted[:, m:] = np.maximum(lifted[:, m:], LIFT)
        if (lifted != params[0]).any():
            starts = np.concatenate([starts, contractions(lifted, t)[None]])
        extra = _spectral_seeds(ch, b0, eta, levels)
        if len(extra):
            scores = value_grad(extra)[0]
            starts = np.concatenate([starts, extra[np.argsort(-scores, kind="stable")[:keep]]])
        xs, fx, gx, used = spg_max(counted, _contract, starts, grid.refine_iters)
        best = int(np.argmax(fx))
        cs, value, grad, used = xs[best], float(fx[best]), gx[best], used.tolist()
    grams = gram(chained_factors(b0, cs[None])[0])
    splits = [grams[-1]] + [grams[lev - 1] - grams[lev] for lev in range(levels - 1, 0, -1)]
    meta = {
        "resolution": {
            "theta_steps": theta_steps,
            "diag_steps": diag_steps,
            "levels": levels,
        },
        "refine_budget": grid.refine_iters,
        "starts": len(seeds),
        "grid_nodes": n_rows * n_cols,
        "nodes_scored": scored * n_cols,
        "grid_blocks": blocks,
        "iterations": used,
        "capped": [i for i, u in enumerate(used) if u >= grid.refine_iters],
        "evaluations": evaluations,
        "kkt_residual": float(np.linalg.norm(_contract(cs + grad) - cs)),
    }
    meta["phase_s"] = {"grid": gridded - start, "polish": time.perf_counter() - gridded}
    return EnvelopeResult(value, splits, meta)


def v_eta(ch: GaussianBc, k, eta: float, grid: GridSpec | None = None) -> EnvelopeResult:
    """Maximum of the level-1 objective over all ``K*`` below ``k``.

    The value is always >= 0 because K* = 0 is feasible and scores 0.
    ``eta`` must be >= 1 (equality is the direct continuity evaluation).
    One level: no outer weights, inner weight 1.
    """
    _check_eta(eta)
    return _layered_max(ch, k, [], 1.0, eta, grid or GridSpec())


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

    Two chained levels (outer K1+K2 below k, inner K1 below K1+K2) with
    outer weights (lam1, -(lam1+lam2)) and inner weight lam1, swept
    jointly at the ``chain_*`` resolution; argmax_splits holds [K1, K2].
    """
    lam1, lam2 = w.lambda1, w.lambda2
    return _layered_max(
        ch, k, [(lam1, -(lam1 + lam2))], lam1, w.eta, grid or GridSpec()
    )


def f_value(
    ch: GaussianBc, kx, w: EnvelopeWeights, grid: GridSpec | None = None
) -> float:
    """Level-3 objective of a Gaussian input with covariance ``kx``.

    (lam2 - (1-alpha)*lam0)*I(X;Y2) - alpha*lam0*I(X;Y1) plus the level-2
    envelope of the input's covariance.  Requires lambda0 > lambda2.
    """
    w.check_level("v_tilde")
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

    Three chained levels (K1+K2+K3 below ``k``, K1+K2 below that, K1
    innermost) at the coarser ``deep_*`` resolution: outer weights
    (-alpha*lam0, lam2 - (1-alpha)*lam0) and (lam1, -(lam1+lam2)), inner
    weight lam1; argmax_splits holds [K1, K2, K3].
    """
    w.check_level("v_tilde")
    lam0, lam1, lam2, alpha = w.lambda0, w.lambda1, w.lambda2, w.alpha
    outer = [(-alpha * lam0, lam2 - (1.0 - alpha) * lam0), (lam1, -(lam1 + lam2))]
    return _layered_max(ch, k, outer, lam1, w.eta, grid or GridSpec())


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
    res_a = op(ch_a, check_cov(ch_a, k_a, "k_a"), grid)
    res_b = op(ch_b, check_cov(ch_b, k_b, "k_b"), grid)
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
