"""Secrecy-capacity regions of two-user MIMO Gaussian broadcast channels.

A library plus CLI that computes, verifies and exports the rate regions
of the two-user MIMO Gaussian BC with common, private and confidential
messages, together with the dirty-paper precoder identities and the
concave-envelope optimization machinery behind them.
"""

from .channel import (
    GaussianBc,
    JointGaussian,
    joint_mi,
    make_channel,
    mi_xy,
    r1_hat,
    r2_hat,
    r_common,
    whiten,
)
from .dpc import (
    DpcInstance,
    dpc_identity_check,
    effective_gain,
    precoder,
    precoder_wtc,
    wtc_point_check,
)
from .envelopes import (
    EnvelopeResult,
    EnvelopeWeights,
    bound_b,
    f_value,
    factorization_gap,
    s_eta,
    t_lambda_eta,
    v_eta,
    v_hat,
    v_tilde,
)
from .errors import (
    DegenerateChannelError,
    DegenerateInstanceError,
    SecbcError,
    SingularMatrixError,
)
from .matops import (
    SubCovParams,
    compose_sub_cov,
    decompose_sub_cov,
    logdet2,
    psd_leq,
    rotation,
    sqrt_factor,
)
from .regions import (
    Frontier,
    RatePoint,
    RateTriple,
    both_confidential_frontier,
    check_k1_zero,
    frontier_fixed_cov,
    frontier_power,
    region_common_fixed,
    region_common_power,
    wtc_capacity,
    wtc_capacity_power,
)
from .sweeps import GridSpec

__version__ = "0.1.0"

__all__ = [
    "DegenerateChannelError",
    "DegenerateInstanceError",
    "DpcInstance",
    "EnvelopeResult",
    "EnvelopeWeights",
    "Frontier",
    "GaussianBc",
    "GridSpec",
    "JointGaussian",
    "RatePoint",
    "RateTriple",
    "SecbcError",
    "SingularMatrixError",
    "SubCovParams",
    "bound_b",
    "both_confidential_frontier",
    "check_k1_zero",
    "compose_sub_cov",
    "decompose_sub_cov",
    "dpc_identity_check",
    "effective_gain",
    "f_value",
    "factorization_gap",
    "frontier_fixed_cov",
    "frontier_power",
    "joint_mi",
    "logdet2",
    "make_channel",
    "mi_xy",
    "precoder",
    "precoder_wtc",
    "psd_leq",
    "r1_hat",
    "r2_hat",
    "r_common",
    "region_common_fixed",
    "region_common_power",
    "rotation",
    "s_eta",
    "sqrt_factor",
    "t_lambda_eta",
    "v_eta",
    "v_hat",
    "v_tilde",
    "whiten",
    "wtc_capacity",
    "wtc_capacity_power",
    "wtc_point_check",
]
