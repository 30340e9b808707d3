"""Congruence-subgroup invariants and certified height bounds.

The package computes, for the image H of a congruence subgroup in
SL2(Z/N), the standard curve invariants (index, cusps, elliptic point
counts, genus), decides which of two effective bound routes applies, and
evaluates the resulting explicit upper bound on the height of S-integral
j-invariants in directed-rounding log-space arithmetic, so every reported
digit is a certified one-sided enclosure.
"""

from .bounds import (
    BoundReport,
    InapplicableError,
    NumberFieldSpec,
    SSetSpec,
    Theorem,
    bound_auto,
    bound_main,
    bound_main1,
    delta1_ln,
    h_s,
    lambda_ln,
    ln_delta,
    ln_delta0,
    ln_dstar,
    p_max,
)
from .invariants import (
    Applicability,
    CurveInvariants,
    EllipticData,
    SubgroupKind,
    Verdict,
    applicability,
    curve_invariants,
    cusp_count,
    elliptic_counts,
    forces_three_cusps,
    psl_index,
    standard_subgroup,
    tilde_subgroup,
    verify_unramified,
)
from .numtheory import b_of, d_n, euler_phi, is_prime, m_of, prime_factors, sl2_order
from .sl2n import (
    ENUMERATION_CAP,
    CapExceeded,
    Mat,
    SubgroupImage,
    closure,
    element_order,
    enumerate_group,
    group_order,
    mat_inv,
    mat_mul,
    mat_neg,
    pm_elements,
)
from .xreal import DEFAULT_PREC, ExponentOverflow, Rounding, XReal

__version__ = "0.1.0"

__all__ = [
    "Applicability", "BoundReport", "CapExceeded", "CurveInvariants",
    "DEFAULT_PREC", "ENUMERATION_CAP", "EllipticData", "ExponentOverflow",
    "InapplicableError", "Mat", "NumberFieldSpec", "Rounding", "SSetSpec",
    "SubgroupImage", "SubgroupKind", "Theorem", "Verdict", "XReal",
    "applicability", "b_of", "bound_auto", "bound_main", "bound_main1",
    "closure", "curve_invariants", "cusp_count", "d_n", "delta1_ln",
    "element_order", "elliptic_counts", "enumerate_group", "euler_phi",
    "forces_three_cusps", "group_order", "h_s", "is_prime", "lambda_ln",
    "ln_delta", "ln_delta0", "ln_dstar", "m_of", "mat_inv", "mat_mul",
    "mat_neg", "p_max", "pm_elements", "prime_factors", "psl_index",
    "sl2_order", "standard_subgroup", "tilde_subgroup", "verify_unramified",
]
