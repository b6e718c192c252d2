"""Independent output checks: rate formulas, closed forms and region sizes.

Nothing here imports secbc.  Every rate is recomputed from the generating
covariances with plain 1/2 log2 det formulas, so a check cannot pass just
because the package agrees with itself.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh

RATE_TOL = 1e-6  # CSV rates carry 6 decimals
CLOSED_TOL = 1e-9  # fixed-K secrecy value vs the GEVD closed form
ORDER_TOL = 1e-8  # PSD ordering of generating covariances


class CheckError(Exception):
    """An output failed an independent check."""


def cap(g: np.ndarray, k: np.ndarray) -> float:
    """1/2 log2 det(I + G K G^T)."""
    m = np.eye(g.shape[0]) + g @ k @ g.T
    sign, ld = np.linalg.slogdet(0.5 * (m + m.T))
    if sign <= 0:
        raise CheckError("I + G K G^T is not positive definite")
    return 0.5 * ld / math.log(2.0)


def psd_sqrt(k: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (k + k.T))
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def gevd_secrecy(ga: np.ndarray, gb: np.ndarray, k: np.ndarray) -> float:
    """max over K* below K of cap(ga, K*) - cap(gb, K*), in closed form.

    1/2 sum log2 max(lambda_i, 1) over the generalized eigenvalues of the
    pencil (I + S ga^T ga S, I + S gb^T gb S) with S = K^(1/2)
    (Liu & Shamai, IEEE T-IT 2009).
    """
    s = psd_sqrt(k)
    eye = np.eye(k.shape[0])
    a = eye + s @ ga.T @ ga @ s
    b = eye + s @ gb.T @ gb @ s
    lam = eigh(0.5 * (a + a.T), 0.5 * (b + b.T), eigvals_only=True)
    return 0.5 * float(np.sum(np.log2(np.maximum(lam, 1.0))))


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def check_psd_leq(lo: np.ndarray, hi: np.ndarray, what: str, tol: float = ORDER_TOL):
    """Require 0 <= lo <= hi in the PSD order, up to a scaled tolerance."""
    scale = tol * (1.0 + float(np.abs(hi).max()))
    d = hi - lo
    require(np.linalg.eigvalsh(0.5 * (lo + lo.T)).min() >= -scale, f"{what}: not PSD")
    require(np.linalg.eigvalsh(0.5 * (d + d.T)).min() >= -scale, f"{what}: not below K")


def read_csv(path: str):
    """Rows of a frontier CSV as (rates, {matrix name: t x t array})."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    nrates = sum(1 for h in header if h in ("R0", "R1", "R2"))
    names: list[str] = []
    for h in header[nrates:]:
        stem = h.rsplit("_", 1)[0]
        if stem not in names:
            names.append(stem)
    t = math.isqrt((len(header) - nrates) // len(names))
    rows = []
    for ln in lines[1:]:
        vals = [float(x) for x in ln.split(",")]
        require(len(vals) == len(header), f"{path}: ragged row")
        rates = dict(zip(header[:nrates], vals[:nrates]))
        mats = {
            name: np.array(vals[nrates + i * t * t : nrates + (i + 1) * t * t]).reshape(t, t)
            for i, name in enumerate(names)
        }
        rows.append((rates, mats))
    require(len(rows) > 0, f"{path}: no rows")
    return rows


def pair_rates(g1, g2, k, ks, both_confidential=False):
    """(r1, r2) of a pair-region point from its generating covariances."""
    raw = cap(g1, ks) - cap(g2, ks)
    if both_confidential:
        ck = cap(g2, k) - cap(g1, k)
        return max(0.0, raw), max(0.0, raw + ck)
    return max(0.0, raw), cap(g2, k) - cap(g2, ks)


def triple_rates(g1, g2, k, k1, k2):
    """(r0, r1, r2) of a common-message point from (K, K1, K2)."""
    ksum = k1 + k2
    r0 = min(cap(g1, k) - cap(g1, ksum), cap(g2, k) - cap(g2, ksum))
    r1 = cap(g1, k2) - cap(g2, k2)
    r2 = cap(g2, ksum) - cap(g2, k2)
    return max(0.0, r0), max(0.0, r1), max(0.0, r2)


def verify_pairs(rows, g1, g2, *, power=None, both_confidential=False, k_fixed=None, wtc=False):
    """Re-verify every pair row; returns [(r1, r2, reeval_r1, K)] per row.

    ``wtc`` rows (``secbc wtc --out``) carry the secrecy value in R1 and
    a placeholder 0 in R2.
    """
    out = []
    for rates, mats in rows:
        k, ks = mats["k"], mats["ks"]
        check_psd_leq(ks, k, "K* <= K")
        if power is not None:
            require(np.trace(k) <= power + 1e-9 * (1.0 + power), "tr K exceeds the power")
        if k_fixed is not None:
            require(np.allclose(k, k_fixed, atol=1e-9), "row constraint differs from K")
        r1, r2 = pair_rates(g1, g2, k, ks, both_confidential)
        require(abs(r1 - rates["R1"]) <= RATE_TOL, f"R1 {rates['R1']} re-evaluates to {r1}")
        if not wtc:
            require(abs(r2 - rates["R2"]) <= RATE_TOL, f"R2 {rates['R2']} re-evaluates to {r2}")
        require(r1 <= gevd_secrecy(g1, g2, k) + CLOSED_TOL, "R1 above the closed form")
        out.append((rates["R1"], rates["R2"], r1, k))
    return out


def verify_triples(rows, g1, g2, *, power=None, k_fixed=None):
    """Re-verify every triple row; returns [(r0, r1, r2)]."""
    out = []
    for rates, mats in rows:
        k, k1, k2 = mats["k"], mats["k1"], mats["k2"]
        check_psd_leq(k2, k2 + k1, "K2 <= K1 + K2")
        check_psd_leq(k1 + k2, k, "K1 + K2 <= K")
        if power is not None:
            require(np.trace(k) <= power + 1e-9 * (1.0 + power), "tr K exceeds the power")
        if k_fixed is not None:
            require(np.allclose(k, k_fixed, atol=1e-9), "row constraint differs from K")
        r0, r1, r2 = triple_rates(g1, g2, k, k1, k2)
        for name, val in (("R0", r0), ("R1", r1), ("R2", r2)):
            require(abs(val - rates[name]) <= RATE_TOL, f"{name} {rates[name]} re-evaluates to {val}")
        out.append((rates["R0"], rates["R1"], rates["R2"]))
    return out


def area_2d(points) -> float:
    """Area of the union of boxes [0, r1] x [0, r2]."""
    arr = np.asarray(points, dtype=float).reshape(-1, 2)
    if arr.shape[0] == 0:
        return 0.0
    arr = arr[np.argsort(-arr[:, 0], kind="stable")]
    tallest = np.maximum.accumulate(arr[:, 1])
    widths = arr[:, 0] - np.append(arr[1:, 0], 0.0)
    return float(np.sum(widths * tallest))


def volume_3d(triples) -> float:
    """Volume of the union of boxes [0, r0] x [0, r1] x [0, r2]."""
    pts = sorted(triples, key=lambda p: -p[0])
    vol = 0.0
    for i, (r0, _, _) in enumerate(pts):
        lower = pts[i + 1][0] if i + 1 < len(pts) else 0.0
        if r0 > lower:
            vol += (r0 - lower) * area_2d([(p[1], p[2]) for p in pts[: i + 1]])
    return vol


def r2_available(pairs, r1: float, slack: float) -> float:
    return max((p[1] for p in pairs if p[0] >= r1 - slack), default=-math.inf)
