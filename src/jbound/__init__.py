"""Congruence-subgroup invariants and certified height bounds.

The package computes, for the image H of a congruence subgroup in
SL2(Z/N), the standard curve invariants (index, cusps, elliptic point
counts, genus), decides which of two effective bound routes applies, and
evaluates the resulting explicit upper bound on the height of S-integral
j-invariants in directed-rounding log-space arithmetic, so every reported
digit is a certified one-sided enclosure.

The exact layer (``numtheory``, ``sl2n``, ``invariants``) is imported with
the package.  The bound layer (``bounds``, ``xreal`` and mpmath under them)
is imported at the first read of one of its names here, so a caller that
only counts never loads it.
"""

import importlib

from .invariants import (
    Applicability,
    CurveInvariants,
    InapplicableError,
    SubgroupKind,
    Verdict,
    applicability,
    curve_invariants,
    elliptic_counts,
    forces_three_cusps,
    psl_index,
    standard_subgroup,
    tilde_subgroup,
    verify_unramified,
)
from .numtheory import (
    DEFAULT_PREC,
    b_of,
    d_n,
    euler_phi,
    is_prime,
    m_of,
    prime_factors,
    sl2_order,
)
from .sl2n import (
    ENUMERATION_CAP,
    CapExceeded,
    Mat,
    SubgroupImage,
    closure,
    enumerate_group,
    pm_elements,
)

_LAZY = {
    **dict.fromkeys(("BoundReport", "NumberFieldSpec", "SSetSpec", "Theorem",
                     "bound_auto", "bound_main", "bound_main1", "delta1_ln",
                     "h_s", "lambda_ln", "ln_delta", "ln_delta0", "ln_dstar",
                     "p_max"), "bounds"),
    **dict.fromkeys(("ExponentOverflow", "Rounding", "XReal"), "xreal"),
}


def __getattr__(name):
    """A bound-layer name, read from its module at each access (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


__version__ = "0.1.0"

__all__ = [
    "Applicability", "BoundReport", "CapExceeded", "CurveInvariants",
    "DEFAULT_PREC", "ENUMERATION_CAP", "ExponentOverflow",
    "InapplicableError", "Mat", "NumberFieldSpec", "Rounding", "SSetSpec",
    "SubgroupImage", "SubgroupKind", "Theorem", "Verdict", "XReal",
    "applicability", "b_of", "bound_auto", "bound_main", "bound_main1",
    "closure", "curve_invariants", "d_n", "delta1_ln", "elliptic_counts",
    "enumerate_group", "euler_phi", "forces_three_cusps", "h_s", "is_prime",
    "lambda_ln", "ln_delta", "ln_delta0", "ln_dstar", "m_of", "p_max",
    "pm_elements", "prime_factors", "psl_index", "sl2_order",
    "standard_subgroup", "tilde_subgroup", "verify_unramified",
]
