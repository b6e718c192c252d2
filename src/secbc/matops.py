"""PSD matrix algebra and the sub-covariance parameterization.

Every covariance that enters a rate formula is a real symmetric positive
semidefinite (PSD) matrix.  This module provides the ordering test, the
base-2 log-determinant, square-root factors, Givens rotation products and
the (angles, diagonal scalings) parameterization of all sub-covariances
``K* ⪯ K``:

    K* = K^{1/2} V D V^T (K^{1/2})^T,   V = rotation(angles),  D = diag(d),

with every diagonal scaling in [0, 1].  The parameterization turns the
matrix-ordered feasible set into a box, which is what makes grid sweeps of
rate regions tractable.

Tolerance conventions (kept apart on purpose): input validation accepts
eigenvalues down to -1e-9 * max(1, ||a||) (spectral norm, so rounding of
large matrices passes), round trips through the parameterization are
good to 1e-7 in Frobenius norm, and exact identities hold to 1e-10.

All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpstrf

from .errors import SingularMatrixError

__all__ = [
    "SubCovParams",
    "givens_pairs",
    "psd_leq",
    "logdet2",
    "sqrt_factor",
    "rotation",
    "rotation_angles",
    "compose_sub_cov",
    "decompose_sub_cov",
    "validate_psd",
]

_LOG2 = math.log(2.0)

# Validation accepts slightly negative eigenvalues, relative to the matrix
# norm; factorization round trips are looser than exact identities.
PSD_TOL = 1e-9
ORDER_TOL = 1e-8
ROUNDTRIP_TOL = 1e-7


def _as_square(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def validate_psd(a, tol: float = PSD_TOL, name: str = "matrix") -> np.ndarray:
    """Check symmetry and PSD-ness of ``a``; return a symmetrized copy.

    Symmetry must hold entrywise to 1e-12 relative accuracy and all
    eigenvalues must be >= -tol * max(1, ||a||), ||a|| the spectral norm.
    """
    a = _as_square(a, name)
    if not np.all(np.abs(a - a.T) <= 1e-12 * (1.0 + np.abs(a))):
        raise ValueError(f"{name} is not symmetric")
    sym = 0.5 * (a + a.T)
    if sym.shape[0]:
        eig = np.linalg.eigvalsh(sym)
        if eig[0] < -tol * max(1.0, -eig[0], eig[-1]):
            raise ValueError(
                f"{name} is not positive semidefinite within {tol} of its norm"
            )
    return sym


def psd_leq(a, b, tol: float = PSD_TOL) -> bool:
    """True iff ``a ⪯ b`` in the PSD ordering.

    That is min eig(b - a) >= -tol * max(1, ||a||, ||b||) with spectral
    norms, so the test is invariant to scaling both matrices.
    """
    a = _as_square(a, "a")
    b = _as_square(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    diff = b - a
    diff = 0.5 * (diff + diff.T)
    scale = max(1.0, np.linalg.norm(a, 2), np.linalg.norm(b, 2))
    return float(np.linalg.eigvalsh(diff).min()) >= -tol * scale


def logdet2(a) -> float:
    """Base-2 log-determinant of a strictly positive definite matrix.

    Computed from a Cholesky factor for stability.  Raises
    ``SingularMatrixError`` when the smallest eigenvalue is <= 1e-12.
    """
    a = validate_psd(a, name="logdet2 input")
    if np.linalg.eigvalsh(a).min() <= 1e-12:
        raise SingularMatrixError("matrix is singular within tolerance 1e-12")
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise SingularMatrixError("Cholesky factorization failed") from exc
    return float(2.0 * np.sum(np.log2(np.diag(chol))))


def sqrt_factor(k) -> np.ndarray:
    """A matrix B with ``B @ B.T == k`` for PSD ``k``.

    Uses the Cholesky factor when ``k`` is positive definite and a
    rank-revealing pivoted Cholesky (LAPACK dpstrf) when it is singular,
    so the result is deterministic in both cases.
    """
    k = validate_psd(k, name="sqrt_factor input")
    t = k.shape[0]
    if t == 0:
        return k.copy()
    try:
        return np.linalg.cholesky(k)
    except np.linalg.LinAlgError:
        pass
    c, piv, rank, info = dpstrf(k, lower=1)
    if info < 0:  # pragma: no cover - bad call, not a data condition
        raise ValueError(f"pivoted Cholesky failed with info={info}")
    factor = np.tril(c)
    factor[:, rank:] = 0.0
    b = np.zeros_like(factor)
    b[piv - 1, :] = factor  # undo the symmetric permutation
    return b


def givens_pairs(t: int) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, in the fixed lexicographic sweep order."""
    return [(i, j) for i in range(t) for j in range(i + 1, t)]


def rotation(angles, t: int) -> np.ndarray:
    """Product of Givens rotations over all index pairs in lex order.

    ``angles`` must contain t(t-1)/2 values, one per pair (i, j) with
    i < j.  For t = 2 this is the plane rotation by ``angles[0]``.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    pairs = givens_pairs(t)
    if angles.size != len(pairs):
        raise ValueError(
            f"expected {len(pairs)} angles for t={t}, got {angles.size}"
        )
    v = np.eye(t)
    for (i, j), theta in zip(pairs, angles):
        g = np.eye(t)
        c, s = math.cos(theta), math.sin(theta)
        g[i, i] = c
        g[j, j] = c
        g[i, j] = -s
        g[j, i] = s
        v = v @ g
    return v


def rotation_angles(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`rotation`: angles (lex pair order) for ``v`` in SO(t).

    Peels one column per recursion level using spherical coordinates; the
    reconstruction ``rotation(rotation_angles(v), t)`` reproduces ``v``
    exactly up to floating point.
    """
    v = _as_square(v, "rotation matrix")
    t = v.shape[0]
    w = v.copy()
    angles: list[float] = []
    for i in range(t - 1):
        col = w[i:, i]
        # col = (c1..cm, s1 c2..cm, s2 c3..cm, ..., sm); the first angle
        # gets the full circle, the rest live in [-pi/2, pi/2].
        level = [math.atan2(col[1], col[0])]
        run = math.hypot(col[0], col[1])
        for k in range(2, col.size):
            level.append(math.atan2(col[k], run))
            run = math.hypot(run, col[k])
        angles.extend(level)
        inv = np.eye(t)
        pairs = [(i, j) for j in range(i + 1, t)]
        for (pi, pj), theta in zip(pairs, level):
            g = np.eye(t)
            c, s = math.cos(theta), math.sin(theta)
            g[pi, pi] = c
            g[pj, pj] = c
            g[pi, pj] = s  # transpose = inverse rotation
            g[pj, pi] = -s
            inv = g @ inv
        w = inv @ w
    return np.mod(np.asarray(angles, dtype=float), 2.0 * math.pi)


@dataclass(frozen=True)
class SubCovParams:
    """Rotation angles plus diagonal scalings describing some ``K* ⪯ K``.

    ``angles`` has t(t-1)/2 entries in [0, 2*pi) and ``diag`` has t
    entries in [0, 1].  ``diag`` all ones reproduces K itself, all zeros
    the zero matrix.
    """

    angles: np.ndarray
    diag: np.ndarray

    def __init__(self, angles, diag):
        angles = np.atleast_1d(np.asarray(angles, dtype=float)).copy()
        diag = np.atleast_1d(np.asarray(diag, dtype=float)).copy()
        t = diag.size
        expected = t * (t - 1) // 2
        if angles.size != expected:
            raise ValueError(
                f"need {expected} angles for dimension {t}, got {angles.size}"
            )
        if np.any(diag < 0.0) or np.any(diag > 1.0):
            raise ValueError("diagonal scalings must lie in [0, 1]")
        angles.setflags(write=False)
        diag.setflags(write=False)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "diag", diag)

    @property
    def dim(self) -> int:
        return self.diag.size


def compose_sub_cov(k, p: SubCovParams) -> np.ndarray:
    """Evaluate the parameterization: ``K^{1/2} V D V^T (K^{1/2})^T``."""
    k = validate_psd(k, name="k")
    if p.dim != k.shape[0]:
        raise ValueError(f"params are for t={p.dim}, matrix is {k.shape[0]}")
    b = sqrt_factor(k)
    w = b @ rotation(p.angles, p.dim)
    out = (w * p.diag) @ w.T
    return 0.5 * (out + out.T)


def decompose_sub_cov(k, kstar) -> SubCovParams:
    """Recover parameters with ``compose_sub_cov(k, result) ≈ kstar``.

    Works through the eigendecomposition of ``K^{-1/2} K* K^{-T/2}``; the
    eigenvalues are the diagonal scalings (clamped into [0, 1] against
    rounding) and the eigenvector basis supplies the angles.  Requires
    ``kstar ⪯ k`` and strictly positive definite ``k``.
    """
    k = validate_psd(k, name="k")
    kstar = validate_psd(kstar, name="kstar")
    if not psd_leq(kstar, k, ORDER_TOL):
        raise ValueError("precondition violated: kstar is not below k")
    if np.linalg.eigvalsh(k).min() <= 1e-12:
        raise SingularMatrixError("k is singular; decomposition undefined")
    b = np.linalg.cholesky(k)
    x = solve_triangular(b, kstar, lower=True)
    m = solve_triangular(b, x.T, lower=True)
    m = 0.5 * (m + m.T)
    evals, vecs = np.linalg.eigh(m)
    if np.any(evals < -PSD_TOL) or np.any(evals > 1.0 + PSD_TOL):
        raise ValueError("recovered scalings leave [0, 1] beyond tolerance")
    if np.linalg.det(vecs) < 0.0:
        vecs = vecs.copy()
        vecs[:, 0] = -vecs[:, 0]
    return SubCovParams(rotation_angles(vecs), np.clip(evals, 0.0, 1.0))
