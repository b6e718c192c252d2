"""Rate-region enumeration and Pareto frontiers.

Four families of regions are computed, all as unions of boxes indexed by
generating covariances:

- fixed-covariance pair region: rectangles over sub-covariances K* of K
  (confidential rate, private rate);
- power-constraint pair region: the private rate depends on K only
  through C2(K), so the union over K and K* <= K is taken over K* alone
  with tr K* <= P, each box reaching the closed-form water-filling
  capacity W(K*) of the power left after K*; a coarse (angles,
  eigenvalues) grid of K* is zoomed around its Pareto nodes;
- common-message triple regions (fixed covariance and power);
- the comparison region where both private messages are confidential.

Frontiers carry the generating covariances on every point so any output
row can be re-verified by plugging the matrices back into the rate
formulas.  Sweeps follow the grid resolutions in :class:`GridSpec`.  The
max-confidential-rate corner of every region is the closed-form wiretap
optimum of its constraint matrix (:func:`wtc_capacity`); under a power
constraint that optimum is polished by golden section over the trace-p
manifold parameters.

Manifold and K* chunks may be evaluated in parallel (see SECBC_THREADS);
chunk results are always merged in node order, so output is independent
of the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .channel import GaussianBc, mi_xy
from .matops import rotation, sqrt_factor, validate_psd
from .sweeps import (
    GridSpec,
    chain_factor,
    children_factors,
    coordinate_refine,
    det_i_plus_gram,
    diag_combos,
    diag_values,
    pair_dets,
    rotation_batch,
    simplex_grid,
    theta_tuple_grid,
    worker_count,
)

__all__ = [
    "RatePoint",
    "RateTriple",
    "Frontier",
    "pareto_filter_pairs",
    "pareto_filter_triples",
    "frontier_fixed_cov",
    "wtc_capacity",
    "wtc_capacity_power",
    "augment_trace",
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
_ZOOM_CHUNK = 32768  # nodes per evaluation chunk (and per worker task)


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
    """Pareto-maximal points sorted by R1 ascending, plus sweep metadata."""

    points: list
    meta: dict = field(default_factory=dict)

    @property
    def is_triple(self) -> bool:
        return bool(self.points) and isinstance(self.points[0], RateTriple)

    def rates(self) -> np.ndarray:
        if self.is_triple:
            return np.array([[p.r1, p.r2, p.r0] for p in self.points])
        return np.array([[p.r1, p.r2] for p in self.points])

    def max_r1(self) -> float:
        return max((p.r1 for p in self.points), default=0.0)

    def max_r2(self) -> float:
        return max((p.r2 for p in self.points), default=0.0)

    def r2_available(self, r1: float, slack: float = 0.0) -> float:
        """Largest R2 on the frontier among points with R1 >= r1 - slack."""
        best = -np.inf
        for p in self.points:
            if p.r1 >= r1 - slack:
                best = max(best, p.r2)
        return best


def _pareto_mask(r1: np.ndarray, r2: np.ndarray, slack: float = PARETO_SLACK):
    """Boolean mask of Pareto-maximal (r1, r2) pairs, slack-tolerant."""
    n = r1.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((-r2, -r1))  # r1 desc, r2 desc within ties
    r2s = r2[order]
    cummax = np.maximum.accumulate(r2s)
    keep_sorted = np.empty(n, dtype=bool)
    keep_sorted[0] = True
    keep_sorted[1:] = r2s[1:] > cummax[:-1] + slack
    mask = np.zeros(n, dtype=bool)
    mask[order[keep_sorted]] = True
    return mask


def pareto_filter_pairs(points: list, slack: float = PARETO_SLACK) -> list:
    """Drop dominated pairs; result is sorted by R1 ascending.

    Filtering is idempotent: applying it to its own output changes
    nothing.
    """
    if not points:
        return []
    r1 = np.array([p.r1 for p in points])
    r2 = np.array([p.r2 for p in points])
    mask = _pareto_mask(r1, r2, slack)
    kept = [p for p, m in zip(points, mask) if m]
    kept.sort(key=lambda p: (p.r1, p.r2))
    return kept


def _pareto_rows_triples(arr: np.ndarray, slack: float = PARETO_SLACK) -> np.ndarray:
    """Row indices of Pareto-maximal (r0, r1, r2) rows, duplicates deduped."""
    if arr.shape[0] == 0:
        return np.zeros(0, dtype=int)
    uniq, first = np.unique(arr, axis=0, return_index=True)
    dominated = np.zeros(len(uniq), dtype=bool)
    for s in range(0, len(uniq), 256):
        blk = uniq[s : s + 256]
        geq = (uniq[None, :, :] >= blk[:, None, :]).all(axis=-1)
        strict = (uniq[None, :, :] > blk[:, None, :] + slack).any(axis=-1)
        dominated[s : s + 256] = (geq & strict).any(axis=1)
    return first[~dominated]


def pareto_filter_triples(points: list, slack: float = PARETO_SLACK) -> list:
    """Drop dominated triples (componentwise, slack-tolerant dominance)."""
    if not points:
        return []
    arr = np.array([[p.r0, p.r1, p.r2] for p in points])
    kept = [points[i] for i in _pareto_rows_triples(arr, slack)]
    kept.sort(key=lambda p: (p.r1, p.r2, p.r0))
    return kept


def _grid_tables(t: int, theta_steps: int, diag_steps: int):
    m = t * (t - 1) // 2
    tuples = theta_tuple_grid(m, theta_steps)
    vb = rotation_batch(tuples, t)
    dvals = diag_values(diag_steps)
    return tuples, vb, dvals, diag_combos(dvals, t)


def _half_log2_pair(g, parents, vb, dvals, t):
    return 0.5 * np.log2(pair_dets(g, parents, vb, [dvals] * t))


def _subcov_from_flat(b0, tuples, dcombos, flat, t):
    """(sub-covariance, its chained factor, params) for a flat grid index."""
    nd = dcombos.shape[0]
    vi, di = divmod(int(flat), nd)
    params = np.concatenate([tuples[vi], dcombos[di]])
    (b,) = chain_factor(b0, params, t, 1)
    ks = b @ b.T
    return 0.5 * (ks + ks.T), b, params


def _half_log2_det(g, k):
    """0.5 * log2 det(I + G K G^T) for one covariance or a batch (..., t, t)."""
    _, ld = np.linalg.slogdet(np.eye(g.shape[0]) + g @ k @ g.T)
    return 0.5 * ld / math.log(2.0)


def _wtc_gevd(ch: GaussianBc, k):
    """Closed-form wiretap optimum over K* below ``k``: (value, argmax).

    ``k`` is one covariance (t, t) or a batch (..., t, t); both outputs
    keep its leading shape.  With S = K^(1/2) and A_j = I + S G_j^T G_j S,
    the optimum is 1/2 sum log2 max(lambda_i, 1) over the generalized
    eigenvalues of the pencil (A_1, A_2), attained at K* = S P S where P
    is the orthogonal projector onto the eigenvectors with lambda_i > 1
    (Liu & Shamai, IEEE T-IT 2009).  The pencil is solved as
    lambda_i - 1 = eig(L^-1 (A_1 - A_2) L^-T) with A_2 = L L^T, forming
    A_1 - A_2 = S (G_1^T G_1 - G_2^T G_2) S directly, so equal gains give
    K* = 0 exactly.  S comes from ``eigh``, so singular K is fine.
    """
    w, v = np.linalg.eigh(k)
    s = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.swapaxes(v, -1, -2)
    a2 = np.eye(ch.t) + s @ (ch.g2.T @ ch.g2) @ s
    linv = np.linalg.inv(np.linalg.cholesky(a2))
    linv_t = np.swapaxes(linv, -1, -2)
    gap = ch.g1.T @ ch.g1 - ch.g2.T @ ch.g2
    mu, u = np.linalg.eigh(linv @ s @ gap @ s @ linv_t)
    # Descending order puts the kept eigenvectors first, so the leading
    # columns of their QR factor Q span them.
    mu, u = mu[..., ::-1], u[..., ::-1]
    keep = mu > 0.0
    q, _ = np.linalg.qr(linv_t @ u)
    f = s @ (q * keep[..., None, :])
    kstar = f @ np.swapaxes(f, -1, -2)
    value = np.sum(np.log1p(np.maximum(mu, 0.0)), axis=-1) / (2.0 * math.log(2.0))
    return value, 0.5 * (kstar + np.swapaxes(kstar, -1, -2))


def wtc_capacity(ch: GaussianBc, k):
    """Wiretap secrecy capacity under the covariance constraint ``k``.

    Returns (value, argmax) of the closed-form maximum of the
    confidential rate over all K* below k; the value is nonnegative.
    """
    k = validate_psd(k, name="k")
    if k.shape[0] != ch.t:
        raise ValueError("constraint dimension does not match the channel")
    value, kstar = _wtc_gevd(ch, k)
    return float(value), kstar


def frontier_fixed_cov(ch: GaussianBc, k, grid: GridSpec | None = None) -> Frontier:
    """Pareto frontier of the pair region under covariance constraint ``k``.

    Sweeps sub-covariances of ``k`` on the (angles, scalings) grid,
    clamps the raw confidential rate at zero, Pareto-filters, and splices
    in the closed-form max-R1 corner of :func:`wtc_capacity`.  The K* = 0
    node puts (0, max R2) on the frontier exactly.
    """
    grid = grid or GridSpec()
    k = validate_psd(k, name="k")
    t = ch.t
    if k.shape[0] != t:
        raise ValueError("constraint dimension does not match the channel")
    meta = {
        "kind": "fixed_cov",
        "mode": "one_confidential",
        "constraint": k,
        "channel": (ch.g1, ch.g2),
        "grid": grid,
    }
    if np.abs(k).max() < 1e-15:
        return Frontier(
            [RatePoint(0.0, 0.0, {"k": k, "kstar": np.zeros_like(k)})], meta
        )
    c2k = mi_xy(ch, k, 2)
    b0 = sqrt_factor(k)
    tuples, vb, dvals, dcombos = _grid_tables(t, grid.theta_steps, grid.diag_steps)
    nd = dcombos.shape[0]

    cand: list[tuple[float, float, int]] = []
    chunk = max(1, int(4_000_000 // max(nd, 1)))
    for s in range(0, len(vb), chunk):
        vsel = vb[s : s + chunk]
        l1 = _half_log2_pair(ch.g1, b0[None], vsel, dvals, t)[0].reshape(len(vsel), -1)
        l2 = _half_log2_pair(ch.g2, b0[None], vsel, dvals, t)[0].reshape(len(vsel), -1)
        r1 = np.maximum(l1 - l2, 0.0).ravel()
        r2 = (c2k - l2).ravel()
        mask = _pareto_mask(r1, r2)
        idx = np.flatnonzero(mask)
        base = s * nd
        cand.extend(zip(r1[idx], r2[idx], (idx + base).tolist()))

    r1 = np.array([c[0] for c in cand])
    r2 = np.array([c[1] for c in cand])
    mask = _pareto_mask(r1, r2)
    points = []
    for i in np.flatnonzero(mask):
        ks, _, _ = _subcov_from_flat(b0, tuples, dcombos, cand[i][2], t)
        points.append(RatePoint(cand[i][0], cand[i][1], {"k": k, "kstar": ks}))

    rmax, kstar = _wtc_gevd(ch, k)
    r2_at = c2k - _half_log2_det(ch.g2, kstar)
    points.append(RatePoint(rmax, r2_at, {"k": k, "kstar": kstar}))
    return Frontier(pareto_filter_pairs(points), meta)


def augment_trace(kprime, p: float) -> np.ndarray:
    """Raise the (1,1) entry of ``kprime`` until the trace reaches ``p``.

    The result dominates ``kprime`` in the PSD order and has trace
    exactly ``p``; raising only a diagonal entry keeps PSD-ness.
    """
    kprime = validate_psd(kprime, name="kprime")
    tr = float(np.trace(kprime))
    if tr > p + 1e-9 * (1.0 + abs(p)):
        raise ValueError(f"trace {tr} exceeds the power budget {p}")
    out = kprime.copy()
    out[0, 0] += max(p - tr, 0.0)
    return out


def _angle_span(t: int) -> float:
    """Range of each rotation angle: pi covers every 2x2 eigenbasis."""
    return math.pi if t == 2 else 2.0 * math.pi


def _manifold_nodes(t: int, p: float, theta_steps: int, trace_steps: int):
    """Constraint matrices of trace p: factors B = V(angles) diag(sqrt(q))."""
    m = t * (t - 1) // 2
    tuples = theta_tuple_grid(m, theta_steps, full=_angle_span(t))
    vmani = rotation_batch(tuples, t)
    qs = simplex_grid(t, p, trace_steps)
    return tuples, vmani, qs


def _mani_factor(vmani_row: np.ndarray, q_row: np.ndarray) -> np.ndarray:
    return vmani_row * np.sqrt(q_row)[None, :]


def _map_ordered(fn, items):
    w = worker_count()
    if w <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=w) as ex:
        return list(ex.map(fn, items))


def _manifold_scan(t: int, p: float, grid: GridSpec):
    """Constraint matrices at the trace-p manifold nodes, in node order.

    Returns (kmats, params); each params row holds the node's rotation
    angles and the first t-1 entries of its trace split, the coordinates
    that :func:`_power_corner_refine` polishes.
    """
    tuples, vmani, qs = _manifold_nodes(t, p, grid.theta_steps, grid.trace_steps)
    b = (vmani[:, None] * np.sqrt(qs)[None, :, None, :]).reshape(-1, t, t)
    kmats = b @ np.swapaxes(b, -1, -2)
    params = np.column_stack(
        [np.repeat(tuples, len(qs), axis=0), np.tile(qs[:, :-1], (len(vmani), 1))]
    )
    return 0.5 * (kmats + np.swapaxes(kmats, -1, -2)), params


def _power_corner_refine(ch, p, grid, scan, objective):
    """Maximize ``objective(K)`` over the trace-p manifold.

    ``objective`` maps a constraint matrix, or a batch of them, to a
    value.  The ``grid.starts`` best nodes of ``scan`` seed coordinate-wise
    golden section over the manifold parameters; returns the best
    constraint matrix.  An infeasible trace tail scores -inf, which golden
    section simply avoids.
    """
    t = ch.t
    m = t * (t - 1) // 2
    full = _angle_span(t)
    bounds = [(0.0, full)] * m + [(0.0, p)] * (t - 1)
    spans = np.array(
        [full / grid.theta_steps] * m + [p / max(grid.trace_steps - 1, 1)] * (t - 1)
    )

    def constraint(x):
        q = np.append(x[m:], p - x[m:].sum())
        b = rotation(x[:m], t) * np.sqrt(np.maximum(q, 0.0))
        kmat = b @ b.T
        return 0.5 * (kmat + kmat.T), q[-1] >= 0.0

    def f(x):
        kmat, feasible = constraint(x)
        return float(objective(kmat)) if feasible else -np.inf

    kmats, params = scan
    best_x, best_f = None, -np.inf
    for node in np.argsort(-objective(kmats), kind="stable")[: grid.starts]:
        x, fx = coordinate_refine(
            f, params[node], bounds, spans, grid.refine_tol, grid.refine_iters
        )
        if fx > best_f:
            best_x, best_f = x, fx
    return constraint(best_x)[0]


def _water_fill(nu, power):
    """Water-filling over parallel channels with noise levels ``nu``.

    ``nu`` (..., t) holds positive noise levels in ascending order and
    ``power`` (...) the budget, clamped at zero.  Returns (rate in bits,
    water level mu); channel i gets power max(mu - nu_i, 0).  The level
    L_j = (power + nu_1 + ... + nu_j) / j falls while channel j belongs to
    the active set and rises after it, so mu is the smallest L_j, and zero
    power gives mu = nu_1 and rate 0 (Telatar 1999).
    """
    t = nu.shape[-1]
    power = np.maximum(np.asarray(power, dtype=float), 0.0)
    levels = (power[..., None] + np.cumsum(nu, axis=-1)) / np.arange(1, t + 1)
    mu = levels.min(axis=-1)
    rate = np.sum(np.log2(np.maximum(mu[..., None], nu) / nu), axis=-1) / 2.0
    return rate, mu


def _kstar_nodes(x, p: float, t: int):
    """K* = V(angles) diag(p u^2) V^T for parameter rows x = (angles, u)."""
    m = t * (t - 1) // 2
    v = rotation_batch(x[:, :m], t)
    e = p * x[:, m:] ** 2
    ks = (v * e[:, None, :]) @ np.swapaxes(v, -1, -2)
    return 0.5 * (ks + np.swapaxes(ks, -1, -2)), e.sum(axis=1)


def _noise2(ch: GaussianBc) -> np.ndarray:
    """(G2^T G2)^-1, so that I + G2 K G2^T = G2 (N + K) G2^T."""
    ginv = np.linalg.inv(ch.g2)
    n = ginv @ ginv.T
    return 0.5 * (n + n.T)


def _kstar_rates(ch: GaussianBc, p: float, x) -> np.ndarray:
    """Rows (r1(K*), W(K*)) for parameter rows ``x`` of :func:`_kstar_nodes`.

    W(K*) is the best private rate over K = K* + Q with Q PSD and
    tr Q <= p - tr K*: water-filling over the eigenvalues of
    (G2^T G2)^-1 + K*.
    """
    ks, tr = _kstar_nodes(x, p, ch.t)
    r1 = np.maximum(_half_log2_det(ch.g1, ks) - _half_log2_det(ch.g2, ks), 0.0)
    w, _ = _water_fill(np.linalg.eigvalsh(_noise2(ch) + ks), p - tr)
    return np.column_stack([r1, w])


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

    The coarse grid crosses the ``theta_steps`` angle tuples of
    :func:`_manifold_nodes` with ``trace_steps`` values of u in [0, 1] per
    eigenvalue e = p u^2 (square-root spacing keeps small eigenvalues
    resolved), keeping sum u^2 <= 1.  Each zoom level evaluates a local
    grid of ``ZOOM_POINTS`` per axis spanning +-1 cell around every Pareto
    node, restricted to points that move at most ``ZOOM_AXES`` parameters
    (the full tensor grid grows as 3^(t(t+1)/2)), then halves the cell;
    points outside the ball sum u^2 <= 1 are pulled onto its surface
    (tr K* = p).  Returns (Pareto params, nodes evaluated per level).
    """
    t = ch.t
    m = t * (t - 1) // 2
    span = _angle_span(t)
    u = diag_combos(np.linspace(0.0, 1.0, grid.trace_steps), t)
    u = u[np.sum(u * u, axis=1) <= 1.0]
    angles = theta_tuple_grid(m, grid.theta_steps, full=span)
    x = np.column_stack(
        [np.repeat(angles, len(u), axis=0), np.tile(u, (len(angles), 1))]
    )
    cell = np.array(
        [span / grid.theta_steps] * m + [1.0 / max(grid.trace_steps - 1, 1)] * t
    )
    offsets = diag_combos(np.linspace(-1.0, 1.0, ZOOM_POINTS), m + t)
    moved = np.count_nonzero(offsets, axis=1)
    offsets = offsets[(moved >= 1) & (moved <= ZOOM_AXES)]

    def evaluate(x):
        chunks = [x[s : s + _ZOOM_CHUNK] for s in range(0, len(x), _ZOOM_CHUNK)]
        return np.vstack(_map_ordered(lambda c: _kstar_rates(ch, p, c), chunks))

    rates = evaluate(x)
    counts = [len(x)]
    for _ in range(ZOOM_LEVELS):
        front = _pareto_mask(rates[:, 0], rates[:, 1])
        x, rates = x[front], rates[front]
        new = (x[:, None, :] + offsets * cell).reshape(-1, m + t)
        norm = np.sqrt(np.sum(new[:, m:] ** 2, axis=1))
        new[:, m:] /= np.maximum(norm, 1.0)[:, None]
        x = np.vstack([x, new])
        rates = np.vstack([rates, evaluate(new)])
        counts.append(len(new))
        cell = cell / 2.0
    return x[_pareto_mask(rates[:, 0], rates[:, 1])], counts


def frontier_power(ch: GaussianBc, p: float, grid: GridSpec | None = None) -> Frontier:
    """Pareto frontier of the pair region under total power ``p``.

    R2 depends on the constraint K only through C2(K), so the union over
    K and K* <= K swaps into a union over tr K* <= p of the boxes
    [0, r1(K*)] x [0, W(K*)], where W(K*) is the water-filling capacity
    of (I + G2 K* G2^T)^(-1/2) G2 with power p - tr K* (closed form).
    :func:`_zoom_sweep` finds the Pareto K*; each kept point gets the
    constraint that attains W(K*), so tr K = p and K* <= K exactly.  The
    max-R1 corner re-water-fills the K* of :func:`wtc_capacity_power`;
    the max-R2 corner is K* = 0.
    """
    grid = grid or GridSpec()
    if p < 0:
        raise ValueError("power must be nonnegative")
    t = ch.t
    meta = {
        "kind": "power",
        "mode": "one_confidential",
        "power": p,
        "channel": (ch.g1, ch.g2),
        "grid": grid,
    }
    if p == 0:
        zero = np.zeros((t, t))
        return Frontier([RatePoint(0.0, 0.0, {"k": zero, "kstar": zero})], meta)

    x, counts = _zoom_sweep(ch, p, grid)
    meta["nodes_per_level"] = counts
    _, _, kstar_wtc = wtc_capacity_power(ch, p, grid)
    kstars = np.concatenate(
        [_kstar_nodes(x, p, t)[0], kstar_wtc[None], np.zeros((1, t, t))]
    )
    kmats = _water_filled(ch, p, kstars)
    r1 = _half_log2_det(ch.g1, kstars) - _half_log2_det(ch.g2, kstars)
    r2 = _half_log2_det(ch.g2, kmats) - _half_log2_det(ch.g2, kstars)
    points = [
        RatePoint(a, b, {"k": k, "kstar": ks})
        for a, b, k, ks in zip(r1, r2, kmats, kstars)
    ]
    return Frontier(pareto_filter_pairs(points), meta)


def both_confidential_frontier(
    ch: GaussianBc, p: float, grid: GridSpec | None = None
) -> Frontier:
    """Comparison region with both private messages confidential.

    For a constraint K and sub-covariance K* the two bounds are coupled:
    R2 equals the raw R1 plus C2(K) - C1(K), so each constraint
    contributes one rectangle whose corner is the closed-form wiretap
    optimum of K (Liu, Liu, Poor & Shamai, IEEE T-IT 2010).  The frontier
    is the Pareto filter of those corners over the trace-p manifold,
    plus the max-R1 and max-R2 corners polished over its parameters.
    """
    grid = grid or GridSpec()
    if p < 0:
        raise ValueError("power must be nonnegative")
    t = ch.t
    meta = {
        "kind": "power",
        "mode": "both_confidential",
        "power": p,
        "channel": (ch.g1, ch.g2),
        "grid": grid,
    }
    if p == 0:
        zero = np.zeros((t, t))
        return Frontier([RatePoint(0.0, 0.0, {"k": zero, "kstar": zero})], meta)

    def rates(kmat):
        r1, ks = _wtc_gevd(ch, kmat)
        excess = _half_log2_det(ch.g2, kmat) - _half_log2_det(ch.g1, kmat)
        return r1, r1 + excess, ks

    scan = _manifold_scan(t, p, grid)
    r1, r2, ks = rates(scan[0])
    points = [
        RatePoint(r1[i], r2[i], {"k": scan[0][i], "kstar": ks[i]})
        for i in np.flatnonzero(_pareto_mask(r1, np.maximum(r2, 0.0)))
    ]
    for corner in (0, 1):
        kmat = _power_corner_refine(ch, p, grid, scan, lambda k: rates(k)[corner])
        r1v, r2v, ksv = rates(kmat)
        points.append(RatePoint(r1v, r2v, {"k": kmat, "kstar": ksv}))
    return Frontier(pareto_filter_pairs(points), meta)


def wtc_capacity_power(ch: GaussianBc, p: float, grid: GridSpec | None = None):
    """Wiretap secrecy capacity under a total power constraint.

    Maximizes the closed-form fixed-constraint optimum over the trace-p
    manifold (node scan, then golden-section polish of its parameters);
    returns (value, constraint, argmax).
    """
    grid = grid or GridSpec()
    t = ch.t
    if p <= 0:
        zero = np.zeros((t, t))
        return 0.0, zero, zero
    scan = _manifold_scan(t, p, grid)
    kmat = _power_corner_refine(ch, p, grid, scan, lambda k: _wtc_gevd(ch, k)[0])
    value, kstar = _wtc_gevd(ch, kmat)
    return float(value), kmat, kstar


def _common_candidates(ch, b0, kmat, theta_steps, diag_steps):
    """Candidate (r0, r1, r2, outer_flat, inner_flat) rows for one constraint."""
    t = ch.t
    tuples, vb, dvals, dcombos = _grid_tables(t, theta_steps, diag_steps)
    c1k = mi_xy(ch, kmat, 1)
    c2k = mi_xy(ch, kmat, 2)
    kids = children_factors(b0[None], vb, dcombos)[0]
    n1 = kids.shape[0] * kids.shape[1]
    flat1 = kids.reshape(n1, t, t)
    l1o = 0.5 * np.log2(det_i_plus_gram(ch.g1, flat1))
    l2o = 0.5 * np.log2(det_i_plus_gram(ch.g2, flat1))
    r0 = np.minimum(c1k - l1o, c2k - l2o)
    l1i = _half_log2_pair(ch.g1, flat1, vb, dvals, t).reshape(n1, -1)
    l2i = _half_log2_pair(ch.g2, flat1, vb, dvals, t).reshape(n1, -1)
    nflat = l1i.shape[1]
    r1 = np.maximum(l1i - l2i, 0.0).ravel()
    r2 = np.maximum(l2o[:, None] - l2i, 0.0).ravel()
    outer = np.repeat(np.arange(n1), nflat)
    inner = np.tile(np.arange(nflat), n1)
    cand = np.column_stack(
        [np.maximum(r0, 0.0)[outer], r1, r2, outer, inner]
    )
    tables = {"tuples": tuples, "dcombos": dcombos}
    return cand, tables


def _reduce_triples(cand: np.ndarray, bins: int = 96) -> np.ndarray:
    """Thin triple candidates: max r2 per (r0, r1) cell, then exact filter."""
    if cand.shape[0] == 0:
        return cand
    r0, r1, r2 = cand[:, 0], cand[:, 1], cand[:, 2]
    s0 = r0.max() + 1e-12
    s1 = r1.max() + 1e-12
    b0 = np.minimum((r0 / s0 * bins).astype(np.int64), bins - 1)
    b1 = np.minimum((r1 / s1 * bins).astype(np.int64), bins - 1)
    comb = b0 * bins + b1
    best = np.full(bins * bins, -np.inf)
    np.maximum.at(best, comb, r2)
    sel = np.flatnonzero(r2 >= best[comb])
    _, firsts = np.unique(comb[sel], return_index=True)
    return cand[sel[firsts]]


def _triples_from_candidates(ch, b0, kmat, cand, tables) -> list:
    t = ch.t
    out = []
    for row in cand:
        # The inner split was swept from the chained outer factor, so the
        # same factor (not a fresh Cholesky root) must rebuild it.
        ksum, bsum, _ = _subcov_from_flat(
            b0, tables["tuples"], tables["dcombos"], int(row[3]), t
        )
        k2, _, _ = _subcov_from_flat(
            bsum, tables["tuples"], tables["dcombos"], int(row[4]), t
        )
        k1 = ksum - k2
        out.append(
            RateTriple(row[0], row[1], row[2], {"k": kmat, "k1": k1, "k2": k2})
        )
    return out


def region_common_fixed(ch: GaussianBc, k, grid: GridSpec | None = None) -> Frontier:
    """Pareto surface of (R0, R1, R2) under covariance constraint ``k``.

    Sweeps the chained parameterization: an outer sub-covariance K1+K2 of
    ``k`` (what is left carries the common message) and an inner split of
    it into the confidential layer K2 and receiver 2's private layer K1.
    """
    grid = grid or GridSpec()
    k = validate_psd(k, name="k")
    t = ch.t
    if k.shape[0] != t:
        raise ValueError("constraint dimension does not match the channel")
    meta = {
        "kind": "fixed_cov",
        "mode": "common",
        "constraint": k,
        "channel": (ch.g1, ch.g2),
        "grid": grid,
    }
    zero = np.zeros((t, t))
    if np.abs(k).max() < 1e-15:
        return Frontier([RateTriple(0, 0, 0, {"k": k, "k1": zero, "k2": zero})], meta)
    b0 = sqrt_factor(k)
    cand, tables = _common_candidates(
        ch, b0, k, grid.chain_theta_steps, grid.chain_diag_steps
    )
    cand = _reduce_triples(cand)
    cand = cand[_pareto_rows_triples(cand[:, :3])]
    points = _triples_from_candidates(ch, b0, k, cand, tables)
    return Frontier(pareto_filter_triples(points), meta)


def region_common_power(ch: GaussianBc, p: float, grid: GridSpec | None = None) -> Frontier:
    """Union of the common-message surfaces over the trace-p manifold."""
    grid = grid or GridSpec()
    if p < 0:
        raise ValueError("power must be nonnegative")
    t = ch.t
    meta = {
        "kind": "power",
        "mode": "common",
        "power": p,
        "channel": (ch.g1, ch.g2),
        "grid": grid,
    }
    zero = np.zeros((t, t))
    if p == 0:
        return Frontier(
            [RateTriple(0, 0, 0, {"k": zero, "k1": zero, "k2": zero})], meta
        )
    if t == 1:
        fr = region_common_fixed(ch, np.array([[float(p)]]), grid)
        return Frontier(fr.points, meta)
    mani_tuples, vmani, qs = _manifold_nodes(
        t, p, grid.deep_theta_steps, grid.deep_trace_steps
    )
    nodes = [(vi, qi) for vi in range(len(vmani)) for qi in range(len(qs))]

    def node_factor(node):
        vi, qi = node
        b = _mani_factor(vmani[vi], qs[qi])
        kmat = b @ b.T
        return b, 0.5 * (kmat + kmat.T)

    def work(item):
        node_idx, node = item
        b, kmat = node_factor(node)
        cand, tables = _common_candidates(
            ch, b, kmat, grid.deep_theta_steps, grid.deep_diag_steps
        )
        cand = _reduce_triples(cand, bins=64)
        return np.column_stack([cand, np.full(cand.shape[0], node_idx)]), tables

    parts = _map_ordered(work, list(enumerate(nodes)))
    tables = parts[0][1]
    cand = np.vstack([c for c, _ in parts])
    cand = _reduce_triples(cand)
    cand = cand[_pareto_rows_triples(cand[:, :3])]
    points = []
    for row in cand:
        b, kmat = node_factor(nodes[int(row[5])])
        points.extend(
            _triples_from_candidates(ch, b, kmat, row[None, :5], tables)
        )
    return Frontier(pareto_filter_triples(points), meta)


def check_k1_zero(ch: GaussianBc, k, samples: int = 100, seed: int = 0) -> bool:
    """Verify that dropping the artificial-noise layer never shrinks rates.

    For each random split (K1, K2) with K1 + K2 below ``k``, the rate
    pair of the split must be dominated by the point generated with
    K1 = 0 and the same total budget reassigned, i.e. by the wiretap
    optimum over K* below K1 + K2 (whose private rate is automatically
    at least the split's).  Comparisons carry a 1e-6 slack.
    """
    k = validate_psd(k, name="k")
    t = ch.t
    rng = np.random.default_rng(seed)
    m = t * (t - 1) // 2
    b0 = sqrt_factor(k)
    c2k = _half_log2_det(ch.g2, k)
    for _ in range(samples):
        p_out = np.concatenate(
            [rng.uniform(0, 2 * math.pi, m), rng.uniform(0, 1, t)]
        )
        p_in = np.concatenate(
            [rng.uniform(0, 2 * math.pi, m), rng.uniform(0, 1, t)]
        )
        (bsum,) = chain_factor(b0, p_out, t, 1)
        ksum = bsum @ bsum.T
        (b2,) = chain_factor(bsum, p_in, t, 1)
        k2 = b2 @ b2.T
        k1 = ksum - k2
        r1_split = (
            _half_log2_det(ch.g1, ksum)
            - _half_log2_det(ch.g1, k1)
            - _half_log2_det(ch.g2, ksum)
            + _half_log2_det(ch.g2, k1)
        )
        r2_split = c2k - _half_log2_det(ch.g2, ksum)
        w, kstar = _wtc_gevd(ch, ksum)
        r2_at = c2k - _half_log2_det(ch.g2, kstar)
        if w + 1e-6 < max(0.0, r1_split):
            return False
        if r2_at + 1e-6 < r2_split:
            return False
    return True
