"""PSD matrix algebra and the sub-covariance parameterization.

Every covariance that enters a rate formula is a real symmetric positive
semidefinite (PSD) matrix.  This module provides the ordering test, the
base-2 log-determinant, the checked rate kernel, square-root factors,
Givens rotation products and the (angles, diagonal scalings)
parameterization of all sub-covariances ``K* ⪯ K``:

    K* = K^{1/2} V D V^T (K^{1/2})^T,   V = rotation(angles),  D = diag(d),

with every diagonal scaling in [0, 1].  The parameterization turns the
matrix-ordered feasible set into a box, which is what makes grid sweeps of
rate regions tractable.

Every rate term 0.5 log2 det(I + G K G^T) comes from :func:`half_log2_det`
(whose log-determinant and check :func:`secbc.sweeps.layered_value_grad`
shares) or :func:`half_log2` of grid determinants; both raise
``FloatingPointError`` on a determinant that is not positive and finite.
:func:`logdet2` is the validated log-determinant of the
mutual-information oracle.

:func:`logdet2`, :func:`psd_leq`, :func:`sqrt_factor`, the rotations and
the sub-covariance parameterization also take stacks (..., n, n): every
check runs per member, and one bad member raises the error its own call
would raise.  :func:`validate_psd` takes one matrix, and
:func:`validate_psd_stack` its stacked form.

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
from scipy.linalg.lapack import dpstrf

from .errors import SingularMatrixError

__all__ = [
    "SubCovParams",
    "givens_pairs",
    "gram",
    "half_log2",
    "half_log2_det",
    "psd_leq",
    "logdet2",
    "sqrt_factor",
    "rotation",
    "rotation_batch",
    "rotation_angles",
    "compose_sub_cov",
    "decompose_sub_cov",
    "validate_psd",
    "validate_psd_stack",
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


def _as_stack(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square or a stack of squares, got shape {a.shape}")
    return a


def _checked_spectrum(a, tol: float, name: str):
    """:func:`validate_psd_stack` that also returns the eigenvalues it checked."""
    a = _as_stack(a, name)
    at = np.swapaxes(a, -1, -2)
    if not np.all(np.abs(a - at) <= 1e-12 * (1.0 + np.abs(a))):
        raise ValueError(f"{name} is not symmetric")
    # Halving first keeps a finite matrix finite; it is exact, so the
    # bits equal 0.5 * (a + a.T) wherever that sum does not overflow.
    sym = 0.5 * a + 0.5 * at
    eig = np.linalg.eigvalsh(sym)
    lo = eig[..., :1]
    # Only a negative eigenvalue can fail; most inputs skip the scaled test.
    if lo.size and lo.min() < 0.0:
        if np.any(lo < -tol * np.maximum(np.maximum(1.0, -lo), eig[..., -1:])):
            raise ValueError(f"{name} is not positive semidefinite within {tol} of its norm")
    return sym, eig


def validate_psd(a, tol: float = PSD_TOL, name: str = "matrix") -> np.ndarray:
    """Check symmetry and PSD-ness of ``a``; return a symmetrized copy.

    Symmetry must hold entrywise to 1e-12 relative accuracy and all
    eigenvalues must be >= -tol * max(1, ||a||), ||a|| the spectral norm.
    """
    return _checked_spectrum(_as_square(a, name), tol, name)[0]


def validate_psd_stack(a, tol: float = PSD_TOL, name: str = "matrix") -> np.ndarray:
    """:func:`validate_psd` of one matrix or of every member of a stack (..., n, n).

    One bad member fails the whole stack, with the error it raises alone.
    """
    return _checked_spectrum(a, tol, name)[0]


def psd_leq(a, b, tol: float = PSD_TOL):
    """True iff ``a ⪯ b`` in the PSD ordering.

    That is min eig(b - a) >= -tol * max(1, ||a||, ||b||) with spectral
    norms, so the test is invariant to scaling both matrices.  Stacks
    (..., n, n) broadcast against each other and give one bool per member.
    """
    a = _as_stack(a, "a")
    b = _as_stack(b, "b")
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    diff = b - a
    diff = 0.5 * (diff + np.swapaxes(diff, -1, -2))
    norm_a, norm_b = (np.linalg.norm(m, 2, axis=(-2, -1)) for m in (a, b))
    scale = np.maximum(np.maximum(1.0, norm_a), norm_b)
    ok = np.linalg.eigvalsh(diff).min(axis=-1) >= -tol * scale
    return bool(ok) if ok.ndim == 0 else ok


def logdet2(a):
    """Base-2 log-determinant of a strictly positive definite matrix.

    Computed from a Cholesky factor for stability.  Raises
    ``SingularMatrixError`` when the smallest eigenvalue is <= 1e-12; the
    validation's eigenvalues serve that test too.  A stack (..., n, n)
    gives an array of log-determinants, checked member by member: one
    singular member raises ``SingularMatrixError``, one asymmetric or
    indefinite member ``ValueError``.  Each member's bits equal those of
    its own call.
    """
    a, eig = _checked_spectrum(a, PSD_TOL, "logdet2 input")
    if eig.size and eig.min() <= 1e-12:
        raise SingularMatrixError("matrix is singular within tolerance 1e-12")
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise SingularMatrixError("Cholesky factorization failed") from exc
    out = 2.0 * np.sum(np.log2(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    return float(out) if out.ndim == 0 else out


def half_log2(dets):
    """0.5 * log2 of determinants; FloatingPointError unless all are positive and finite."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log2(dets)
    out *= 0.5
    if not np.isfinite(out).all():
        raise FloatingPointError("a determinant is not positive and finite")
    return out


def half_log2_det(g, k=None, *, factors=None):
    """0.5 * log2 det(I + G K G^T) for one covariance or a batch (..., t, t).

    ``g`` is one gain (r, t) or a stack (..., r, t) broadcasting against
    the leading axes of ``k``.  Square-root ``factors`` B of K = B B^T
    give det(I + (G B)^T (G B)) instead, without forming K.  Raises
    ``FloatingPointError`` unless every determinant is positive and finite.
    """
    if factors is None:
        m = np.eye(g.shape[-2]) + g @ k @ np.swapaxes(g, -1, -2)
    else:
        a = g @ factors
        m = np.swapaxes(a, -1, -2) @ a
        m += np.eye(a.shape[-1])
    return _half_log2_det_of(m)


def _half_log2_det_of(m: np.ndarray) -> np.ndarray:
    """0.5 * log2 det(m) of matrices ``m`` (..., n, n) of the form I + A^T A;
    ``FloatingPointError`` unless every determinant is positive and finite."""
    sign, ld = np.linalg.slogdet(m)
    # Two cheap reductions: the polish calls this thousands of times on
    # small batches.  A NaN or inf log makes the sum non-finite.
    if not (sign.min() > 0 and abs(ld.sum()) < math.inf):
        raise FloatingPointError("det(I + G K G^T) is not positive and finite")
    return 0.5 * ld / _LOG2


def sqrt_factor(k) -> np.ndarray:
    """A matrix B with ``B @ B.T == k`` for PSD ``k``, or one per member of a stack.

    Uses the Cholesky factor when ``k`` is positive definite and a
    rank-revealing pivoted Cholesky (LAPACK dpstrf) when it is singular,
    so the result is deterministic in both cases.  A stack holding a
    singular member is factored member by member.
    """
    k = validate_psd_stack(k, name="sqrt_factor input")
    t = k.shape[-1]
    if t == 0:
        return k.copy()
    try:
        return np.linalg.cholesky(k)
    except np.linalg.LinAlgError:
        pass
    if k.ndim > 2:
        return np.stack([sqrt_factor(m) for m in k.reshape(-1, t, t)]).reshape(k.shape)
    c, piv, rank, info = dpstrf(k, lower=1)
    if info < 0:  # pragma: no cover - bad call, not a data condition
        raise ValueError(f"pivoted Cholesky failed with info={info}")
    factor = np.tril(c)
    factor[:, rank:] = 0.0
    b = np.zeros_like(factor)
    b[piv - 1, :] = factor  # undo the symmetric permutation
    return b


def gram(b: np.ndarray) -> np.ndarray:
    """Symmetrized ``B @ B.T`` of one factor or a batch (..., t, t)."""
    k = b @ np.swapaxes(b, -1, -2)
    return 0.5 * (k + np.swapaxes(k, -1, -2))


def givens_pairs(t: int) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, in the fixed lexicographic sweep order."""
    return [(i, j) for i in range(t) for j in range(i + 1, t)]


def rotation_batch(theta_cols, t: int) -> np.ndarray:
    """Givens products of a batch of angle tuples, shape (n, t, t).

    Row k of ``theta_cols`` holds the t(t-1)/2 angles of one product,
    one per index pair (i, j), i < j, in lex order; the factors are
    multiplied in that order.  For t = 2 this is the plane rotation.
    """
    theta_cols = np.atleast_2d(np.asarray(theta_cols, dtype=float))
    n = theta_cols.shape[0]
    pairs = givens_pairs(t)
    if theta_cols.shape[1] != len(pairs):
        raise ValueError("angle tuple length does not match dimension")
    cos, sin = np.cos(theta_cols), np.sin(theta_cols)
    out = None
    for k, (i, j) in enumerate(pairs):
        g = np.empty((n, t, t))
        g[:] = np.eye(t)
        g[:, i, i] = g[:, j, j] = cos[:, k]
        g[:, i, j] = -sin[:, k]
        g[:, j, i] = sin[:, k]
        out = g if out is None else out @ g
    if out is None:  # t = 1 has no angles
        out = np.ones((n, 1, 1))
    return out


def rotation(angles, t: int) -> np.ndarray:
    """Givens product of one angle tuple (t, t), or of a stack (..., t, t).

    ``angles`` must end in an axis of t(t-1)/2 values, one per pair
    (i, j) with i < j; see :func:`rotation_batch`.  For t = 2 this is the
    plane rotation by ``angles[..., 0]``.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.ndim == 0:
        angles = angles.reshape(1)
    m = t * (t - 1) // 2
    if angles.shape[-1] != m:
        raise ValueError(f"expected {m} angles for t={t}, got {angles.shape[-1]}")
    lead = angles.shape[:-1]
    return rotation_batch(angles.reshape(math.prod(lead), m), t).reshape(lead + (t, t))


def rotation_angles(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`rotation`: angles (lex pair order) for ``v`` in SO(t).

    ``v`` is one rotation (t, t) or a stack (..., t, t); the angles come
    back with shape (..., t(t-1)/2).  Peels one column per recursion
    level using spherical coordinates; the reconstruction
    ``rotation(rotation_angles(v), t)`` reproduces ``v`` exactly up to
    floating point.  Each level is undone by the transpose of the
    rotation of its own angles (all other angles zero, whose factors are
    exact identities).
    """
    w = _as_stack(v, "rotation matrix")
    t = w.shape[-1]
    angles = np.zeros(w.shape[:-2] + (t * (t - 1) // 2,))
    done = 0
    for i in range(t - 1):
        col = w[..., i:, i]
        # col = (c1..cm, s1 c2..cm, s2 c3..cm, ..., sm); the first angle
        # gets the full circle, the rest live in [-pi/2, pi/2].
        padded = np.zeros_like(angles)
        padded[..., done] = np.arctan2(col[..., 1], col[..., 0])
        run = np.hypot(col[..., 0], col[..., 1])
        for k in range(2, t - i):
            padded[..., done + k - 1] = np.arctan2(col[..., k], run)
            run = np.hypot(run, col[..., k])
        angles += padded
        done += t - 1 - i
        w = np.swapaxes(rotation(padded, t), -1, -2) @ w
    return np.mod(angles, 2.0 * math.pi)


@dataclass(frozen=True)
class SubCovParams:
    """Rotation angles plus diagonal scalings describing some ``K* ⪯ K``.

    ``angles`` has t(t-1)/2 entries in [0, 2*pi) and ``diag`` has t
    entries in [0, 1].  ``diag`` all ones reproduces K itself, all zeros
    the zero matrix.  Stacked parameters carry leading axes: angles
    (..., t(t-1)/2) and diag (..., t).
    """

    angles: np.ndarray
    diag: np.ndarray

    def __init__(self, angles, diag):
        angles = np.atleast_1d(np.asarray(angles, dtype=float)).copy()
        diag = np.atleast_1d(np.asarray(diag, dtype=float)).copy()
        t = diag.shape[-1]
        expected = t * (t - 1) // 2
        if angles.shape[-1] != expected or angles.shape[:-1] != diag.shape[:-1]:
            raise ValueError(
                f"need {expected} angles for dimension {t}, got shape {angles.shape}"
            )
        if np.any(diag < 0.0) or np.any(diag > 1.0):
            raise ValueError("diagonal scalings must lie in [0, 1]")
        angles.setflags(write=False)
        diag.setflags(write=False)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "diag", diag)

    @property
    def dim(self) -> int:
        return self.diag.shape[-1]


def compose_sub_cov(k, p: SubCovParams) -> np.ndarray:
    """Evaluate the parameterization: ``K^{1/2} V D V^T (K^{1/2})^T``.

    ``k`` is one constraint (t, t) or a stack (..., t, t), and ``p`` one
    parameter set or a stack; their leading axes broadcast.  Every
    member is validated as its own call would be.
    """
    k = validate_psd_stack(k, name="k")
    if p.dim != k.shape[-1]:
        raise ValueError(f"params are for t={p.dim}, matrix is {k.shape[-1]}")
    b = sqrt_factor(k)
    w = b @ rotation(p.angles, p.dim)
    out = (w * p.diag[..., None, :]) @ np.swapaxes(w, -1, -2)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def decompose_sub_cov(k, kstar) -> SubCovParams:
    """Recover parameters with ``compose_sub_cov(k, result) ≈ kstar``.

    Works through the eigendecomposition of ``K^{-1/2} K* K^{-T/2}``; the
    eigenvalues are the diagonal scalings (clamped into [0, 1] against
    rounding) and the eigenvector basis supplies the angles.  Requires
    ``kstar ⪯ k`` and strictly positive definite ``k``.  Stacks
    (..., t, t) give stacked parameters; one member that breaks a
    requirement fails the whole stack.
    """
    k = validate_psd_stack(k, name="k")
    kstar = validate_psd_stack(kstar, name="kstar")
    if not np.all(psd_leq(kstar, k, ORDER_TOL)):
        raise ValueError("precondition violated: kstar is not below k")
    if np.any(np.linalg.eigvalsh(k).min(axis=-1) <= 1e-12):
        raise SingularMatrixError("k is singular; decomposition undefined")
    binv = np.linalg.inv(np.linalg.cholesky(k))
    m = binv @ kstar @ np.swapaxes(binv, -1, -2)
    m = 0.5 * (m + np.swapaxes(m, -1, -2))
    evals, vecs = np.linalg.eigh(m)
    if np.any(evals < -PSD_TOL) or np.any(evals > 1.0 + PSD_TOL):
        raise ValueError("recovered scalings leave [0, 1] beyond tolerance")
    # A reflection becomes a rotation by flipping its first eigenvector.
    vecs[..., :, 0] *= np.where(np.linalg.det(vecs) < 0.0, -1.0, 1.0)[..., None]
    return SubCovParams(rotation_angles(vecs), np.clip(evals, 0.0, 1.0))
