"""Partial dirty-paper precoding and its mutual-information identities.

The achievability side of both capacity results rests on one algebraic
fact: with the auxiliary ``U = X2 + A V`` and the right precoding matrix
``A``, the rate written as a conditional-MI difference equals the rate of
the binning scheme, so precoding the known interference away costs
nothing.  This module builds the precoders and verifies the identities
numerically on explicit joint Gaussian covariances via
:func:`secbc.channel.joint_mi` -- no closed form is trusted on its own.

Block order in every joint covariance assembled here is fixed to
``(vstar, x1, x2, u, x, y1, y2)`` so indexing is reproducible.

:func:`effective_gain`, :func:`precoder` and the joint assembly take one
matrix (t, t) or a stack (..., t, t) of them, so
:func:`dpc_identity_check` scores a sequence of instances in one stacked
pass through the oracle; every check still runs per member, and each
member's values are bitwise those of its own call.  Random instances are
drawn the same way (:func:`random_instances`): member by member from the
generator, then validated as stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    GaussianBc,
    JointGaussian,
    check_cov,
    check_gains,
    joint_mi,
    make_channel,
)
from .errors import DegenerateInstanceError
from .matops import ORDER_TOL, half_log2_det, psd_leq, validate_psd_stack

__all__ = [
    "DpcInstance",
    "effective_gain",
    "precoder",
    "precoder_wtc",
    "dpc_joint",
    "dpc_identity_check",
    "wtc_point_check",
    "random_psd",
    "random_channel",
    "random_instance",
    "random_instances",
]


@dataclass(frozen=True)
class DpcInstance:
    """One precoding scenario: channel plus the three signal layers.

    ``k1`` is the pre-subtracted layer (artificial noise at receiver 1),
    ``k2`` the confidential signal and ``kv`` the known interference that
    the precoder cancels.  Each layer is checked with
    :func:`secbc.channel.check_cov` and stored symmetrized and
    read-only.  :func:`random_instances` builds its members from layers
    it has checked as stacks, with the same errors, and skips these
    per-member checks.
    """

    ch: GaussianBc
    k1: np.ndarray
    k2: np.ndarray
    kv: np.ndarray

    def __post_init__(self):
        for name in ("k1", "k2", "kv"):
            mat = check_cov(self.ch, getattr(self, name), name)
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)


def effective_gain(g1, k1) -> np.ndarray:
    """Gain seen after absorbing the ``k1`` layer into the noise floor.

    ``(I + G1 K1 G1^T)^{-1/2} G1`` with the symmetric inverse square root
    taken through the eigendecomposition Q diag(1/sqrt(lam)) Q^T.  Both
    arguments may be stacks (..., t, t).
    """
    g1 = np.asarray(g1, dtype=float)
    k1 = validate_psd_stack(k1, name="k1")
    sigma = np.eye(g1.shape[-2]) + g1 @ k1 @ np.swapaxes(g1, -1, -2)
    evals, vecs = np.linalg.eigh(sigma)
    inv_sqrt = (vecs / np.sqrt(evals)[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    return inv_sqrt @ g1


def precoder(k2, gtilde) -> np.ndarray:
    """Precoding matrix ``A = K2 Gt^T (I + Gt K2 Gt^T)^{-1}``.

    This is the MMSE estimator of the signal from the whitened channel
    output; the coefficient applied to the interference vector itself is
    ``A @ gtilde`` (the interference reaches the receiver through the
    effective gain), which is what the identity checks use.  Both
    arguments may be stacks (..., t, t) of the same shape.
    """
    k2 = validate_psd_stack(k2, name="k2")
    gtilde = np.asarray(gtilde, dtype=float)
    if gtilde.shape != k2.shape:
        raise ValueError("gtilde and k2 must share the same square shape")
    gt_t = np.swapaxes(gtilde, -1, -2)
    m = np.eye(k2.shape[-1]) + gtilde @ k2 @ gt_t
    return k2 @ gt_t @ np.linalg.inv(m)


def precoder_wtc(kstar, g1) -> np.ndarray:
    """Wiretap specialization ``A = K* G1^T (I + G1 K* G1^T)^{-1}``."""
    return precoder(kstar, np.asarray(g1, dtype=float))


_BLOCKS = ("vstar", "x1", "x2", "u", "x", "y1", "y2")


def _assemble_joint(g1, g2, kv, k1, k2, a) -> JointGaussian:
    # Base independent variables: (vstar, x1, x2, z1, z2); every argument
    # is one matrix (t, t) or a stack with the same leading axes.
    t = kv.shape[-1]
    eye = np.eye(t)
    lead = np.broadcast_shapes(*(m.shape[:-2] for m in (g1, g2, kv, k1, k2, a)))
    base = np.zeros(lead + (5 * t, 5 * t))
    for i, cov in enumerate((kv, k1, k2, eye, eye)):
        base[..., i * t : (i + 1) * t, i * t : (i + 1) * t] = cov
    # Nonzero (base index: coefficient) blocks of each row of _BLOCKS.
    rows = (
        {0: eye},
        {1: eye},
        {2: eye},
        {0: a, 2: eye},
        {0: eye, 1: eye, 2: eye},
        {0: g1, 1: g1, 2: g1, 3: eye},
        {0: g2, 1: g2, 2: g2, 4: eye},
    )
    lmap = np.zeros(lead + (7 * t, 5 * t))
    for r, row in enumerate(rows):
        for c, coeff in row.items():
            lmap[..., r * t : (r + 1) * t, c * t : (c + 1) * t] = coeff
    sigma = lmap @ base @ np.swapaxes(lmap, -1, -2)
    sigma = 0.5 * (sigma + np.swapaxes(sigma, -1, -2))
    return JointGaussian(_BLOCKS, (t,) * len(_BLOCKS), sigma)


def dpc_joint(inst: DpcInstance) -> JointGaussian:
    """Joint covariance of (vstar, x1, x2, u, x, y1, y2) for the instance.

    The auxiliary block is U = X2 + A Gt V with Gt the effective gain:
    the known interference is cancelled at its received strength.
    """
    gtilde = effective_gain(inst.ch.g1, inst.k1)
    a = precoder(inst.k2, gtilde) @ gtilde
    return _assemble_joint(inst.ch.g1, inst.ch.g2, inst.kv, inst.k1, inst.k2, a)


def _binning_rate(joint: JointGaussian, constant: bool):
    """I(U;Y1) - I(U;V) - I(U;Y2|V) of the binning scheme, V the ``vstar``
    block.  A constant V has I(U;V) = 0 and conditioning on it is vacuous,
    but the log-det oracle cannot divide by |K_V|: then I(U;Y1) - I(U;Y2)."""
    rate = joint_mi(joint, "u", "y1")
    if constant:
        return rate - joint_mi(joint, "u", "y2")
    return rate - joint_mi(joint, "u", "vstar") - joint_mi(joint, "u", "y2", "vstar")


def _identity_sides(insts, constant: bool):
    """(lhs, rhs) arrays of the precoding identity over a list of instances."""
    g1 = np.stack([i.ch.g1 for i in insts])
    g2 = np.stack([i.ch.g2 for i in insts])
    k1, k2, kv = (np.stack([getattr(i, n) for i in insts]) for n in ("k1", "k2", "kv"))
    if np.any(np.linalg.eigvalsh(k2).min(axis=-1) <= 1e-12):
        raise DegenerateInstanceError(
            "k2 is singular: U would carry a deterministic component and "
            "I(U; V) would be infinite"
        )
    gtilde = effective_gain(g1, k1)
    a = precoder(k2, gtilde) @ gtilde
    ku = k2 + a @ kv @ np.swapaxes(a, -1, -2)
    if np.any(np.linalg.eigvalsh(0.5 * (ku + np.swapaxes(ku, -1, -2))).min(axis=-1) <= 1e-12):
        raise DegenerateInstanceError("U = X2 + A V is degenerate")
    joint = _assemble_joint(g1, g2, kv, k1, k2, a)
    given = () if constant else "vstar"  # see _binning_rate
    lhs = joint_mi(joint, "x2", "y1", given) - joint_mi(joint, "x2", "y2", given)
    return lhs, _binning_rate(joint, constant)


def dpc_identity_check(inst):
    """Evaluate both sides of the precoding identity on the instance.

    lhs = I(X2; Y1 | V) - I(X2; Y2 | V) and
    rhs = I(U; Y1) - I(U; V) - I(U; Y2 | V) with U = X2 + A V; both sides
    are computed through the joint-covariance oracle and the absolute gap
    is returned alongside.

    ``inst`` is one :class:`DpcInstance` (three floats back) or a sequence
    of them (three arrays, in sequence order).  A sequence is split into
    its constant-interference members (``kv`` ≈ 0) and the rest, and each
    part is scored in one stacked pass; every member's values are
    bitwise those of its own call.  One degenerate member raises
    ``DegenerateInstanceError`` for the whole sequence.
    """
    single = isinstance(inst, DpcInstance)
    insts = [inst] if single else list(inst)
    constant = np.array([np.abs(i.kv).max() < 1e-15 for i in insts], dtype=bool)
    lhs, rhs = np.empty(len(insts)), np.empty(len(insts))
    for branch in (True, False):
        idx = np.flatnonzero(constant == branch)
        if idx.size:
            lhs[idx], rhs[idx] = _identity_sides([insts[i] for i in idx], branch)
    gap = np.abs(lhs - rhs)
    if single:
        return float(lhs[0]), float(rhs[0]), float(gap[0])
    return lhs, rhs, gap


def wtc_point_check(ch: GaussianBc, kstar, k=None) -> tuple[float, float]:
    """Achieved vs target corner rate of the wiretap construction.

    Splits the power as X = X1 + X2 with cov(X1) = ``kstar`` and
    cov(X2) = ``k - kstar``, precodes U = X1 + A X2 against the X2 layer
    and evaluates achieved = I(U;Y1) - I(U;V) - I(U;Y2|V) with V = X2.
    The target is the closed-form wiretap rate of ``kstar``.  When ``k``
    is omitted the enclosing constraint defaults to ``kstar + I`` so the
    interference layer is nontrivial.
    """
    kstar = check_cov(ch, kstar, "kstar")
    t = ch.t
    if np.abs(kstar).max() < 1e-15:
        return 0.0, 0.0
    if np.linalg.eigvalsh(kstar).min() <= 1e-12:
        raise DegenerateInstanceError("kstar must be zero or strictly definite")
    k = check_cov(ch, kstar + np.eye(t) if k is None else k)
    if not psd_leq(kstar, k, ORDER_TOL):
        raise ValueError("precondition violated: kstar is not below k")
    kdiff = 0.5 * ((k - kstar) + (k - kstar).T)
    a = precoder_wtc(kstar, ch.g1) @ ch.g1
    # Reuse the generic assembler with relabeled roles: the known
    # interference layer is X2 (cov kdiff) and there is no noise layer.
    joint = _assemble_joint(ch.g1, ch.g2, kdiff, np.zeros((t, t)), kstar, a)
    # Blocks now read: vstar = X2, x2 = X1, u = X1 + A X2.
    constant = np.abs(kdiff).max() < 1e-14
    if not constant and np.linalg.eigvalsh(kdiff).min() <= 1e-12:
        raise DegenerateInstanceError("k - kstar is singular but nonzero")
    achieved = _binning_rate(joint, constant)
    h1, h2 = half_log2_det(np.stack([ch.g1, ch.g2]), kstar)
    return achieved, float(h1 - h2)


def random_psd(t: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random PSD matrix, a.s. full rank, spectral scale ~``scale``."""
    a = rng.normal(size=(t, t))
    out = scale * (a @ a.T) / t
    return 0.5 * (out + out.T)


def _random_gains(t: int, rng: np.random.Generator) -> list:
    """Two random gains; redraws nearly singular ones."""
    gains = []
    while len(gains) < 2:
        g = rng.normal(size=(t, t))
        if abs(np.linalg.det(g)) > 1e-3:
            gains.append(g)
    return gains


def random_channel(t: int, rng: np.random.Generator) -> GaussianBc:
    """Random invertible gain pair; redraws nearly singular gains."""
    return make_channel(*_random_gains(t, rng))


def _checked(cls, **fields):
    # An instance of the frozen dataclass ``cls`` whose fields are members
    # of stacks already checked as its __post_init__ checks one member.
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def random_instances(t: int, rng: np.random.Generator, n: int) -> list[DpcInstance]:
    """``n`` random nondegenerate instances for identity checking.

    Each member is drawn as :func:`random_instance` draws it, in the same
    order from ``rng``, so the list holds the bits of ``n`` such calls.
    ``k2`` and ``kv`` are kept strictly definite (a ridge is added);
    ``k1`` is rank deficient for every third draw on average, to exercise
    the singular-layer path.  The members are then checked as stacks, the
    gains with one finite and ``slogdet`` test and each layer with one
    :func:`secbc.matops.validate_psd_stack`, which raise on one bad member
    the error that the :class:`DpcInstance` of that member raises alone.
    """
    g1, g2, k1, k2, kv = (np.empty((n, t, t)) for _ in range(5))
    for i in range(n):
        g1[i], g2[i] = _random_gains(t, rng)
        k1[i] = random_psd(t, rng)
        if rng.integers(3) == 0 and t > 1:
            u = rng.normal(size=(t, 1))
            k1[i] = u @ u.T  # rank-1 artificial noise layer
        k2[i] = random_psd(t, rng) + 0.1 * np.eye(t)
        kv[i] = random_psd(t, rng) + 0.1 * np.eye(t)
    check_gains(g1, g2)
    k1, k2, kv = (
        validate_psd_stack(m, name=name) for m, name in ((k1, "k1"), (k2, "k2"), (kv, "kv"))
    )
    for stack in (g1, g2, k1, k2, kv):
        stack.setflags(write=False)
    return [
        _checked(DpcInstance, ch=_checked(GaussianBc, g1=a, g2=b), k1=c, k2=d, kv=e)
        for a, b, c, d, e in zip(g1, g2, k1, k2, kv)
    ]


def random_instance(t: int, rng: np.random.Generator) -> DpcInstance:
    """One random instance: :func:`random_instances` with ``n`` = 1."""
    return random_instances(t, rng, 1)[0]
