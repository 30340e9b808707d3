"""Height-bound engine: level quantities and the two explicit bound formulas,
evaluated in log space with directed rounding.

Every astronomically large positive quantity is carried as its natural
logarithm in an :class:`~jbound.xreal.XReal`; only logarithms are ever
materialized.  The one genuinely huge intermediate that must appear as a
*value* — the tower exponent Lambda — still fits comfortably, because only
its exponent integer grows.  All functions take a rounding direction
(default Up, for reported bounds) and a mantissa precision in bits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .invariants import Verdict, applicability
from .numtheory import b_of, d_n, euler_phi, is_prime, m_of
from .sl2n import ENUMERATION_CAP, SubgroupImage
from .xreal import DEFAULT_PREC, Rounding, XReal

__all__ = [
    "NumberFieldSpec", "SSetSpec", "Theorem", "BoundReport", "InapplicableError",
    "d_n", "m_of", "b_of", "lambda_ln", "h_s", "p_max", "ln_dstar",
    "ln_delta0", "ln_delta", "bound_main", "bound_main1", "bound_auto",
    "delta1_ln",
]


@dataclass(frozen=True)
class NumberFieldSpec:
    """Degree and absolute discriminant magnitude of the base field."""

    d: int
    abs_disc: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"degree must be >= 1, got {self.d}")
        if self.abs_disc < 1:
            raise ValueError(f"|D| must be >= 1, got {self.abs_disc}")


@dataclass(frozen=True)
class SSetSpec:
    """The set S of places: a count of infinite ones (norm 1 each) and finite
    ones given as (prime, residue degree) pairs, so the norm is p**f."""

    infinite_places: int
    finite_places: tuple = ()

    def __post_init__(self) -> None:
        if self.infinite_places < 1:
            raise ValueError("S must contain at least one infinite place")
        object.__setattr__(self, "finite_places", tuple(
            (int(p), int(f)) for p, f in self.finite_places))
        for p, f in self.finite_places:
            if not is_prime(p):
                raise ValueError(f"finite place must lie over a prime, got {p}")
            if f < 1:
                raise ValueError(f"residue degree must be >= 1, got {f}")

    @property
    def s(self) -> int:
        return self.infinite_places + len(self.finite_places)


def _check_compatible(field: NumberFieldSpec, sset: SSetSpec) -> None:
    for p, f in sset.finite_places:
        if f > field.d:
            raise ValueError(
                f"residue degree {f} at {p} exceeds the field degree {field.d}")


class Theorem(str, enum.Enum):
    MAIN = "Main"                                  # three-cusp route
    MAIN1 = "Main1Part"                            # covering route, plain level
    MAIN1_PRIME_POWER = "Main1PrimePowerPart"      # covering route, level M substituted


@dataclass(frozen=True)
class BoundReport:
    """Everything needed to reconstruct ln(bound) = coefficient*lnC + rest."""

    theorem: Theorem
    level_used: int
    log10_bound: XReal
    ln_c_coefficient: int
    components: dict
    notes: tuple = ()

    @property
    def ln_bound(self) -> XReal:
        return self.components["lnBound"]


class InapplicableError(RuntimeError):
    """Neither bound route applies; carries both cusp counts for diagnosis."""

    def __init__(self, subgroup_cusps: int, tilde_cusps: int):
        self.subgroup_cusps = subgroup_cusps
        self.tilde_cusps = tilde_cusps
        super().__init__(
            "no bound route applies: the subgroup's curve has "
            f"{subgroup_cusps} cusp(s) and its elliptic-stabilizer subgroup's "
            f"curve has {tilde_cusps} cusp(s); at least three are required")


def _ln_int(k: int, rounding: Rounding, prec: int) -> XReal:
    return XReal.from_int(k, rounding, prec).log()


def _as_xreal(v, rounding: Rounding, prec: int) -> XReal:
    if isinstance(v, XReal):
        if v.rounding is not rounding:
            raise ValueError(f"expected an XReal rounded {rounding.name}")
        return v
    if isinstance(v, (int, Fraction)):
        return XReal.from_fraction(Fraction(v), rounding, prec)
    if isinstance(v, float):
        return XReal.from_float(v, rounding, prec)
    raise TypeError(f"cannot interpret {type(v).__name__} as an XReal")


def lambda_ln(n: int, rounding: Rounding = Rounding.UP,
              prec: int = DEFAULT_PREC) -> XReal:
    """ln of the tower constant: 25*B*d_n*ln(B*d_n) with B = d_n(n-6)/(12n)+2
    computed exactly as a rational."""
    arg = b_of(n) * d_n(n)
    return XReal.from_fraction(arg, rounding, prec).log().scale(25 * arg)


def h_s(sset: SSetSpec, field: NumberFieldSpec,
        rounding: Rounding = Rounding.UP, prec: int = DEFAULT_PREC) -> XReal:
    """(sum of log norms over S) / d; infinite places contribute nothing."""
    _check_compatible(field, sset)
    total = XReal.zero(rounding, prec)
    for p, f in sset.finite_places:
        total = total.add(_ln_int(p, rounding, prec).scale(f))
    return total.scale(Fraction(1, field.d))


def p_max(sset: SSetSpec) -> int:
    """Largest prime under a finite place of S; 1 when S is all infinite."""
    return max((p for p, _f in sset.finite_places), default=1)


def ln_dstar(n: int, field: NumberFieldSpec, sset: SSetSpec,
             rounding: Rounding = Rounding.UP, prec: int = DEFAULT_PREC,
             _zero_lambda_term: bool = False) -> XReal:
    """ln of the discriminant-growth bound:
    d_n*ln|D| + (h_S + (1 + ln 1728)*Lambda)*d*d_n, with Lambda materialized
    in extended range.  ``_zero_lambda_term`` replaces Lambda by an exact 0 —
    a structural test hook only."""
    _check_compatible(field, sset)
    dn = d_n(n)
    disc_term = _ln_int(field.abs_disc, rounding, prec).scale(dn)
    if _zero_lambda_term:
        lam = XReal.zero(rounding, prec)
    else:
        lam = lambda_ln(n, rounding, prec).exp()
    one_plus = XReal.from_int(1, rounding, prec).add(_ln_int(1728, rounding, prec))
    inner = h_s(sset, field, rounding, prec).add(one_plus.mul(lam))
    return disc_term.add(inner.scale(field.d * dn))


def _neg_d_ln_d(d: int, rounding: Rounding, prec: int) -> XReal:
    # compute ln d on the flipped side, then the negative scale flips it back
    return _ln_int(d, rounding.flipped(), prec).scale(-d)


def _places_log_sum(sset: SSetSpec, rounding: Rounding, prec: int) -> XReal:
    """sum over finite places of ln(f * ln p); exact 0 for an empty product."""
    acc = XReal.zero(rounding, prec)
    for p, f in sset.finite_places:
        acc = acc.add(_ln_int(p, rounding, prec).scale(f).log())
    return acc


def ln_delta0(level: int, field: NumberFieldSpec, sset: SSetSpec,
              rounding: Rounding = Rounding.UP, prec: int = DEFAULT_PREC) -> XReal:
    """ln Delta0(level) = -d ln d + (d*L*ln L + phi*ln|D|)/2
    + d*phi*ln(d*L*ln L + phi*ln|D|) + phi * sum ln(f ln p)."""
    if level < 2:
        raise ValueError(f"level must be >= 2, got {level}")
    _check_compatible(field, sset)
    d = field.d
    phi = euler_phi(level)
    big = (_ln_int(level, rounding, prec).scale(d * level)
           .add(_ln_int(field.abs_disc, rounding, prec).scale(phi)))
    return (_neg_d_ln_d(d, rounding, prec)
            .add(big.scale(Fraction(1, 2)))
            .add(big.log().scale(d * phi))
            .add(_places_log_sum(sset, rounding, prec).scale(phi)))


def ln_delta(level: int, field: NumberFieldSpec, sset: SSetSpec,
             rounding: Rounding = Rounding.UP, prec: int = DEFAULT_PREC) -> XReal:
    """ln Delta(level): like ln_delta0 but with the discriminant-growth bound
    in place of |D| and every exponent inflated by d_level."""
    if level < 2:
        raise ValueError(f"level must be >= 2, got {level}")
    _check_compatible(field, sset)
    d = field.d
    phi = euler_phi(level)
    dl = d_n(level)
    lnds = ln_dstar(level, field, sset, rounding, prec)
    big = (_ln_int(level, rounding, prec).scale(level * d * dl)
           .add(lnds.scale(phi)))
    return (_neg_d_ln_d(d, rounding, prec)
            .add(big.scale(Fraction(1, 2)))
            .add(big.log().scale(phi * d * dl))
            .add(_places_log_sum(sset, rounding, prec).scale(phi * dl)))


def _log10(x: XReal, rounding: Rounding, prec: int) -> XReal:
    need = rounding.flipped() if x.payload_sign() >= 0 else rounding
    return x.div(_ln_int(10, need, prec))


_NOTE_M_SUBSTITUTION = (
    "prime-power level: the auxiliary level M was substituted into every "
    "factor of the covering-route bound, including d_M and the level-M "
    "discriminant-growth and tower terms")
_NOTE_M_SELECTION = (
    "prime-power level: the M-variant of the covering-route bound was "
    "selected because the level is a prime power; this selection rule is an "
    "interpretation choice")


def bound_main(n: int, field: NumberFieldSpec, sset: SSetSpec, ln_c=0,
               rounding: Rounding = Rounding.UP, prec: int = DEFAULT_PREC) -> BoundReport:
    """Three-cusp route: ln bound = 2sL(lnC + ln(d s L^2)) + 3sL ln ln(dL)
    + dL ln p + ln Delta0(L), at L = n, or L = M when n is a prime power."""
    level = m_of(n) or n
    s = sset.s
    d = field.d
    p = p_max(sset)
    lnc = _as_xreal(ln_c, rounding, prec)
    cterm = lnc.add(_ln_int(d * s * level * level, rounding, prec)).scale(2 * s * level)
    logterm = _ln_int(d * level, rounding, prec).log().scale(3 * s * level)
    pterm = _ln_int(p, rounding, prec).scale(d * level)
    delta0 = ln_delta0(level, field, sset, rounding, prec)
    ln_bound = cterm.add(logterm).add(pterm).add(delta0)
    components = {
        "lnBound": ln_bound,
        "lnCTerm": cterm,
        "lnLogTerm": logterm,
        "lnPTerm": pterm,
        "lnDelta0": delta0,
    }
    return BoundReport(Theorem.MAIN, level, _log10(ln_bound, rounding, prec),
                       2 * s * level, components)


def bound_main1(n: int, field: NumberFieldSpec, sset: SSetSpec, ln_c=0,
                rounding: Rounding = Rounding.UP, prec: int = DEFAULT_PREC) -> BoundReport:
    """Covering route: ln bound = 2sLd_L(lnC + ln(d s d_L^2 L^2))
    + 3sLd_L ln ln(d L d_L) + d L d_L ln p + ln Delta(L), with the full
    substitution L = M when n is a prime power."""
    m = m_of(n)
    level = m or n
    dl = d_n(level)
    s = sset.s
    d = field.d
    p = p_max(sset)
    lnc = _as_xreal(ln_c, rounding, prec)
    cterm = (lnc.add(_ln_int(d * s * dl * dl * level * level, rounding, prec))
             .scale(2 * s * level * dl))
    logterm = _ln_int(d * level * dl, rounding, prec).log().scale(3 * s * level * dl)
    pterm = _ln_int(p, rounding, prec).scale(d * level * dl)
    delta = ln_delta(level, field, sset, rounding, prec)
    ln_bound = cterm.add(logterm).add(pterm).add(delta)
    components = {
        "lnBound": ln_bound,
        "lnCTerm": cterm,
        "lnLogTerm": logterm,
        "lnPTerm": pterm,
        "lnDelta": delta,
        "lnDstar": ln_dstar(level, field, sset, rounding, prec),
        "lnLambda": lambda_ln(level, rounding, prec),
    }
    theorem = Theorem.MAIN1_PRIME_POWER if m else Theorem.MAIN1
    notes = (_NOTE_M_SUBSTITUTION, _NOTE_M_SELECTION) if m else ()
    return BoundReport(theorem, level, _log10(ln_bound, rounding, prec),
                       2 * s * level * dl, components, notes)


def bound_auto(H: SubgroupImage, field: NumberFieldSpec, sset: SSetSpec, ln_c=0,
               rounding: Rounding = Rounding.UP, prec: int = DEFAULT_PREC,
               cap: int = ENUMERATION_CAP) -> BoundReport:
    """Dispatch on the applicability verdict of H's curve."""
    app = applicability(H, cap)
    if app.verdict is Verdict.MAIN_DIRECT:
        return bound_main(H.level, field, sset, ln_c, rounding, prec)
    if app.verdict is Verdict.MAIN_VIA_TILDE:
        return bound_main1(H.level, field, sset, ln_c, rounding, prec)
    raise InapplicableError(app.invariants.nu_inf, app.tilde_invariants.nu_inf)


def delta1_ln(level: int, field0: NumberFieldSpec, s0_product: XReal, s0: int,
              rounding: Rounding = Rounding.UP, prec: int = DEFAULT_PREC) -> XReal:
    """ln Delta1 for a lifted-point field: -d0 ln d0
    + (d0*L*ln L + phi*ln|D0|)/2 + d0*phi*ln(d0*L*ln L + phi*ln|D0|)
    + phi*ln(S0 product).  ``s0_product`` is the product of log norms over the
    finite places of the lifted S-set, as a positive extended-range value."""
    if level < 2:
        raise ValueError(f"level must be >= 2, got {level}")
    if s0 < 1:
        raise ValueError(f"the lifted S-set size must be >= 1, got {s0}")
    if s0_product.rounding is not rounding:
        raise ValueError(f"s0_product must be rounded {rounding.name}")
    d0 = field0.d
    phi = euler_phi(level)
    big = (_ln_int(level, rounding, prec).scale(d0 * level)
           .add(_ln_int(field0.abs_disc, rounding, prec).scale(phi)))
    return (_neg_d_ln_d(d0, rounding, prec)
            .add(big.scale(Fraction(1, 2)))
            .add(big.log().scale(d0 * phi))
            .add(s0_product.log().scale(phi)))
