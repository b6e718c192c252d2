"""Two-user MIMO Gaussian broadcast channel and its closed-form rates.

The model is ``Y_j = G_j X + Z_j`` for j = 1, 2 with square invertible
gains and unit noise covariance at both receivers; general noise is
reduced to this form by :func:`whiten`.  Receiver 1 gets the confidential
message, receiver 2 the private one, and both may share a common message.

Rates are in bits per channel use throughout (base-2 logs).  Closed forms
may come out negative (e.g. the confidential rate on a channel degraded
toward the eavesdropper); they are returned raw, and region code clamps
to zero where a rate region is being assembled.

:class:`JointGaussian` plus :func:`joint_mi` implement a brute-force
mutual-information oracle on explicit joint covariances; it is the
independent cross-check used against every closed form and every precoder
identity in the test suite.  A :class:`JointGaussian` may hold a stack of
joint covariances with one block layout, which :func:`joint_mi` scores
in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateChannelError, SingularMatrixError
from .matops import (
    ORDER_TOL,
    half_log2_det,
    logdet2,
    psd_leq,
    validate_psd,
    validate_psd_stack,
)

__all__ = [
    "GaussianBc",
    "JointGaussian",
    "make_channel",
    "whiten",
    "mi_xy",
    "joint_mi",
    "r1_hat",
    "r2_hat",
    "r_common",
]

_GAIN_DET_TOL = 1e-10


@dataclass(frozen=True)
class GaussianBc:
    """Channel gains of a two-user MIMO Gaussian BC with identity noise."""

    g1: np.ndarray
    g2: np.ndarray

    def __post_init__(self):
        g1 = np.asarray(self.g1, dtype=float).copy()
        g2 = np.asarray(self.g2, dtype=float).copy()
        if g1.ndim != 2 or g1.shape[0] != g1.shape[1]:
            raise ValueError(f"g1 must be square, got shape {g1.shape}")
        if g2.shape != g1.shape:
            raise ValueError(f"gain shapes differ: {g1.shape} vs {g2.shape}")
        check_gains(g1, g2)
        g1.setflags(write=False)
        g2.setflags(write=False)
        object.__setattr__(self, "g1", g1)
        object.__setattr__(self, "g2", g2)

    @property
    def t(self) -> int:
        return self.g1.shape[0]

    def gain(self, receiver: int) -> np.ndarray:
        if receiver == 1:
            return self.g1
        if receiver == 2:
            return self.g2
        raise ValueError(f"receiver must be 1 or 2, got {receiver}")


def check_gains(g1: np.ndarray, g2: np.ndarray) -> None:
    """Raise ``ValueError`` unless every gain of the (..., t, t) stacks is
    finite and invertible; one bad member raises the error it raises alone."""
    for name, g in (("g1", g1), ("g2", g2)):
        if not np.all(np.isfinite(g)):
            raise ValueError(f"{name} has non-finite entries")
        # slogdet: det itself overflows (with a warning) for huge gains
        sign, logdet = np.linalg.slogdet(g)
        if np.any((sign == 0) | (logdet <= math.log(_GAIN_DET_TOL))):
            raise ValueError(f"{name} is singular; gains must be invertible")


def make_channel(g1, g2) -> GaussianBc:
    """Validated channel from two square gain matrices of equal size."""
    return GaussianBc(np.asarray(g1, dtype=float), np.asarray(g2, dtype=float))


def _inv_sqrt_psd(n: np.ndarray) -> np.ndarray:
    evals, vecs = np.linalg.eigh(n)
    if evals.min() <= 1e-12:
        raise DegenerateChannelError(
            "noise covariance is singular; the channel degenerates"
        )
    return (vecs / np.sqrt(evals)) @ vecs.T


def whiten(g1, g2, n1, n2) -> GaussianBc:
    """Reduce a general-noise BC to the identity-noise form.

    Returns the channel with gains ``n_j^{-1/2} g_j``; every mutual
    information between the input and an output is invariant under this
    transform, so capacities are unchanged.
    """
    n1 = validate_psd(n1, name="n1")
    n2 = validate_psd(n2, name="n2")
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    return make_channel(_inv_sqrt_psd(n1) @ g1, _inv_sqrt_psd(n2) @ g2)


def check_cov(ch: GaussianBc, k, name: str = "k") -> np.ndarray:
    """``k`` after :func:`secbc.matops.validate_psd` and one size check
    against the channel: the one check of every covariance argument."""
    k = validate_psd(k, name=name)
    if k.shape[0] != ch.t:
        raise ValueError(f"{name} is {k.shape[0]}x{k.shape[0]}, the channel has t = {ch.t}")
    return k


def check_power(p) -> float:
    """``p`` as a float once it is a finite, nonnegative power budget:
    the one check of every power argument."""
    if not (math.isfinite(p) and p >= 0):
        raise ValueError("power must be finite and nonnegative")
    return float(p)


def mi_xy(ch: GaussianBc, kx, receiver: int) -> float:
    """I(X; Y_receiver) in bits for Gaussian X with covariance ``kx``."""
    kx = check_cov(ch, kx, "kx")
    return float(half_log2_det(ch.gain(receiver), kx))


@dataclass(frozen=True)
class JointGaussian:
    """A zero-mean jointly Gaussian vector split into named blocks.

    ``sigma`` is one joint covariance (n, n) or a stack (..., n, n) of
    them that share the block layout; every oracle then works per member.
    """

    names: tuple[str, ...]
    sizes: tuple[int, ...]
    sigma: np.ndarray
    _rows: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sigma = validate_psd_stack(self.sigma, tol=1e-6, name="joint covariance")
        if sum(self.sizes) != sigma.shape[-1]:
            raise ValueError("block sizes do not partition the joint dimension")
        if len(self.names) != len(self.sizes):
            raise ValueError("names and sizes differ in length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("block names must be unique")
        sigma.setflags(write=False)
        starts = np.cumsum((0,) + tuple(self.sizes))
        rows = {n: np.arange(starts[i], starts[i + 1]) for i, n in enumerate(self.names)}
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "sizes", tuple(self.sizes))
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_rows", rows)

    def indices(self, blocks) -> np.ndarray:
        """Row indices of the given blocks, in block order."""
        if isinstance(blocks, str):
            blocks = (blocks,)
        try:
            return np.concatenate([self._rows[b] for b in blocks] or [np.zeros(0, int)])
        except KeyError as exc:
            raise ValueError(f"unknown block {exc.args[0]!r}") from None

    def apply(self, block: str, m) -> "JointGaussian":
        """New joint vector with ``block`` replaced by ``m @ block``."""
        m = np.asarray(m, dtype=float)
        idx = self.indices(block)
        if m.shape != (idx.size, idx.size):
            raise ValueError("transform shape does not match the block")
        full = np.eye(self.sigma.shape[-1])
        full[idx[:, None], idx] = m
        return JointGaussian(self.names, self.sizes, full @ self.sigma @ full.T)


def _block_logdet(j: JointGaussian, blocks):
    idx = j.indices(blocks)
    sub = j.sigma[..., idx[:, None], idx]
    try:
        return logdet2(sub)
    except (SingularMatrixError, ValueError) as exc:
        raise SingularMatrixError(
            f"sub-covariance of blocks {tuple(blocks)} is singular; "
            "the requested mutual information is not finite"
        ) from exc


def joint_mi(j: JointGaussian, a, b, c=()):
    """I(A; B | C) in bits from the joint covariance.

    ``a``, ``b``, ``c`` are disjoint tuples of block names; ``c`` may be
    empty.  Every required sub-covariance must be strictly positive
    definite, otherwise the mutual information is infinite and
    ``SingularMatrixError`` is raised.  A float for one joint covariance;
    for a stacked ``j.sigma`` an array with one value per member, each
    bitwise its own call's, and one singular member raises.
    """
    a = (a,) if isinstance(a, str) else tuple(a)
    b = (b,) if isinstance(b, str) else tuple(b)
    c = (c,) if isinstance(c, str) else tuple(c)
    if set(a) & set(b) or set(a) & set(c) or set(b) & set(c):
        raise ValueError("blocks a, b, c must be disjoint")
    val = _block_logdet(j, a + c) + _block_logdet(j, b + c) - _block_logdet(j, a + b + c)
    if c:
        val -= _block_logdet(j, c)
    return 0.5 * val


def r1_hat(ch: GaussianBc, k, kstar) -> float:
    """Confidential rate of the sub-covariance ``kstar``.

    ``(1/2) log2 |I + G1 K* G1^T| - (1/2) log2 |I + G2 K* G2^T|``; this is
    the wiretap secrecy rate of input covariance K* with receiver 2 as
    the eavesdropper.  May be negative.
    """
    k = check_cov(ch, k)
    kstar = check_cov(ch, kstar, "kstar")
    if not psd_leq(kstar, k, ORDER_TOL):
        raise ValueError("precondition violated: kstar is not below k")
    h1, h2 = half_log2_det(np.stack([ch.g1, ch.g2]), kstar)
    return float(h1 - h2)


def r2_hat(ch: GaussianBc, k, kstar) -> float:
    """Private rate left for receiver 2 after spending ``kstar`` on user 1.

    ``(1/2) log2 |I + G2 K G2^T| - (1/2) log2 |I + G2 K* G2^T|``;
    nonnegative whenever ``kstar ⪯ k``.
    """
    k = check_cov(ch, k)
    kstar = check_cov(ch, kstar, "kstar")
    if not psd_leq(kstar, k, ORDER_TOL):
        raise ValueError("precondition violated: kstar is not below k")
    hk, hstar = half_log2_det(ch.g2, np.stack([k, kstar]))
    return float(hk - hstar)


def r_common(ch: GaussianBc, k, k1, k2) -> tuple[float, float, float]:
    """Rate triple (r0, r1, r2) of the layered scheme with common message.

    ``k1`` carries the private message to receiver 2, ``k2`` the
    confidential message to receiver 1, and the leftover ``k - (k1 + k2)``
    carries the common message decoded by both:

    - r0 = min_j (1/2) log2 |I + G_j K G_j^T| / |I + G_j (K1+K2) G_j^T|
    - r1 = (1/2) log2 |I + G1 K2 G1^T| / |I + G2 K2 G2^T|
    - r2 = (1/2) log2 |I + G2 (K1+K2) G2^T| / |I + G2 K2 G2^T|
    """
    k, k1, k2 = (check_cov(ch, m, name) for m, name in ((k, "k"), (k1, "k1"), (k2, "k2")))
    ksum = k1 + k2
    if not psd_leq(ksum, k, ORDER_TOL):
        raise ValueError("precondition violated: k1 + k2 is not below k")
    h1, h2 = (half_log2_det(g, np.stack([k, ksum, k2])) for g in (ch.g1, ch.g2))
    r0 = min(h1[0] - h1[1], h2[0] - h2[1])
    return float(r0), float(h1[2] - h2[2]), float(h2[1] - h2[2])
