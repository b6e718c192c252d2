"""Independent brute-force oracles used to record goldens and cross-check.

Everything here is assembled directly from the rate formulas with plain
numpy (explicit matrices, explicit 2x2 determinants, eigen square roots)
and deliberately shares no code with the package's sweep machinery, so
agreement between the two is a genuine cross-check.
"""

import numpy as np


def mi_gauss(g, k):
    """0.5*log2 det(I + G K G^T), direct evaluation."""
    g = np.asarray(g, float)
    k = np.asarray(k, float)
    t = g.shape[0]
    return 0.5 * np.log2(np.linalg.det(np.eye(t) + g @ k @ g.T))


def det2_i_plus(g, kbatch):
    """det(I + G K G^T) for a batch of 2x2 covariances, explicit formula."""
    m = np.einsum("ij,njk,lk->nil", g, kbatch, g)
    return (1.0 + m[:, 0, 0]) * (1.0 + m[:, 1, 1]) - m[:, 0, 1] * m[:, 1, 0]


def eig_sqrt(k):
    """Symmetric PSD square root (eigen-based, unlike the package)."""
    w, v = np.linalg.eigh(np.asarray(k, float))
    return v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.T


def subcov_batch_2x2(k, n_theta, n_d):
    """All K* = B V D V^T B^T over the (theta, d1, d2) grid, explicitly."""
    b = eig_sqrt(k)
    thetas = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    ds = np.linspace(0.0, 1.0, n_d)
    out = []
    for th in thetas:
        c, s = np.cos(th), np.sin(th)
        v = np.array([[c, -s], [s, c]])
        w = b @ v
        for d1 in ds:
            for d2 in ds:
                out.append(w @ np.diag([d1, d2]) @ w.T)
    return np.array(out)


def wtc_oracle_fixed(g1, g2, k, n_theta, n_d):
    """Grid maximum of the confidential rate over K* below k (2x2)."""
    best = 0.0
    b = eig_sqrt(np.asarray(k, float))
    thetas = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    ds = np.linspace(0.0, 1.0, n_d)
    g1 = np.asarray(g1, float)
    g2 = np.asarray(g2, float)
    for th in thetas:
        c, s = np.cos(th), np.sin(th)
        w = b @ np.array([[c, -s], [s, c]])
        batch = []
        for d1 in ds:
            for d2 in ds:
                batch.append((w * [d1, d2]) @ w.T)
        batch = np.array(batch)
        r1 = 0.5 * np.log2(det2_i_plus(g1, batch) / det2_i_plus(g2, batch))
        best = max(best, float(r1.max()))
    return best


def fig2_oracle(g1, g2, p, n_phi=48, n_q=49, n_theta=48, n_d=17, bins=512):
    """Both power-constraint regions on an independent grid.

    Returns the max confidential rates, the one-confidential frontier as
    a staircase over r1 bins (bin centers, best R2), the two-confidential
    corner list, and the largest inclusion gap at matched r1.
    """
    g1 = np.asarray(g1, float)
    g2 = np.asarray(g2, float)
    phis = np.linspace(0.0, np.pi, n_phi, endpoint=False)
    qs = np.linspace(0.0, p, n_q)
    ds = np.linspace(0.0, 1.0, n_d)
    thetas = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    r1cap = mi_gauss(g1, p * np.eye(2)) + 1e-9
    stair = np.full(bins, -np.inf)
    max_r1_one = 0.0
    max_r1_both = 0.0
    both_corners = []
    dgrid = np.array([[d1, d2] for d1 in ds for d2 in ds])
    for phi in phis:
        c, s = np.cos(phi), np.sin(phi)
        rot = np.array([[c, -s], [s, c]])
        for q in qs:
            kmat = rot @ np.diag([q, p - q]) @ rot.T
            c1k = mi_gauss(g1, kmat)
            c2k = mi_gauss(g2, kmat)
            b = eig_sqrt(kmat)
            raw_best = -np.inf
            for th in thetas:
                ct, st = np.cos(th), np.sin(th)
                w = b @ np.array([[ct, -st], [st, ct]])
                batch = np.einsum("ik,nk,jk->nij", w, dgrid, w)
                d1v = det2_i_plus(g1, batch)
                d2v = det2_i_plus(g2, batch)
                raw = 0.5 * np.log2(d1v / d2v)
                r1 = np.maximum(raw, 0.0)
                r2 = c2k - 0.5 * np.log2(d2v)
                idx = np.minimum((r1 / r1cap * bins).astype(int), bins - 1)
                np.maximum.at(stair, idx, r2)
                raw_best = max(raw_best, float(raw.max()))
            max_r1_one = max(max_r1_one, raw_best)
            both_r1 = max(0.0, raw_best)
            both_r2 = max(0.0, raw_best + (c2k - c1k))
            both_corners.append((both_r1, both_r2))
            max_r1_both = max(max_r1_both, both_r1)
    # Availability of the one-confidential region at or beyond each r1.
    avail = np.maximum.accumulate(stair[::-1])[::-1]
    # Lower bin edges: the bin's winner has r1 at or above its edge, so a
    # finer frontier must cover (edge, best_r2) up to its own resolution.
    centers = np.arange(bins) * r1cap / bins
    # The inclusion gap is measured frontier-to-frontier, so dominated
    # two-confidential corners are dropped first.
    corners = sorted(both_corners, key=lambda c: (-c[0], -c[1]))
    pareto = []
    best = -np.inf
    for r1, r2 in corners:
        if r2 > best + 1e-12:
            pareto.append((r1, r2))
            best = r2
    max_gap = 0.0
    for r1, r2 in pareto:
        idx = min(int(r1 / r1cap * bins), bins - 1)
        if np.isfinite(avail[idx]):
            max_gap = max(max_gap, float(avail[idx] - r2))
    return {
        "max_r1_one": max_r1_one,
        "max_r1_both": max_r1_both,
        "max_gap": max_gap,
        "stair_r1": centers[np.isfinite(stair)],
        "stair_r2": stair[np.isfinite(stair)],
        "both_corners": np.array(both_corners),
    }


def water_fill_oracle(g, p, iters=200):
    """max over tr Q <= p of 0.5*log2 det(I + G Q G^T), by bisection.

    The channel splits into parallel gains s_i^2 (singular values of G);
    the water level is bisected until the powers max(level - 1/s_i^2, 0)
    use up p.
    """
    gains = np.linalg.svd(np.asarray(g, float), compute_uv=False) ** 2
    floors = 1.0 / gains
    lo, hi = floors.min(), floors.max() + p
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.sum(np.maximum(mid - floors, 0.0)) > p:
            hi = mid
        else:
            lo = mid
    q = np.maximum(0.5 * (lo + hi) - floors, 0.0)
    return 0.5 * float(np.sum(np.log2(1.0 + gains * q)))
