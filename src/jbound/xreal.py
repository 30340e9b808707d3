"""Directed-rounding arithmetic on extended-range binary floats.

An ``XReal`` wraps one raw mpmath float — arbitrary-precision mantissa plus
an unbounded big-integer exponent — together with a rounding direction.  An
Up value is maintained >= the exact quantity it stands for, a Down value <=,
and every operation preserves that side, so a chain of Up operations ends in
a certified upper bound.  Because the exponent is a plain Python integer,
magnitudes like 10**(10**9) cost a few machine words instead of overflowing.

Soundness rules enforced by the operations:

* ``add`` needs both operands on the same side; ``sub`` needs the subtrahend
  on the opposite side; negation flips the side.
* ``mul`` of two tracked values needs both payloads nonnegative (the caller
  promises the true values are nonnegative too); scaling by an exact integer
  or Fraction is always allowed, a negative scalar flips the side.
* ``log``/``exp`` are increasing, so the side passes through; their results
  are padded outward by 16 units in the last place of a 32-bit-wider working
  precision, which strictly dominates the to-nearest evaluation error.

The to-nearest logarithm is memoised per (payload, working precision) in a
bounded cache, so an Up and a Down log of the same payload share one entry;
the outward pad is applied per call.  ``mpf_log`` is a deterministic function
of its arguments, so the memo changes no payload.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath.libmp import (
    fone,
    from_float,
    from_int,
    from_man_exp,
    from_rational,
    ften,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_pos,
    mpf_pow_int,
    mpf_sub,
    to_float,
    to_int,
    to_str,
)

from .numtheory import DEFAULT_PREC

_GUARD_BITS = 32
_PAD_SHIFT = 4  # pad = 2**_PAD_SHIFT = 16 ulps at working precision
_DIGITS = 7  # significant digits of a printed decimal
_CHECK_PREC = 64  # a printed decimal's digits are worked out at this precision
# exp() refuses inputs above ~2**(2**28): the result's exponent integer alone
# would need more than 32 MB.  Quantities past this point must stay in log form.
_EXP_MAGNITUDE_LIMIT = 1 << 28


# A bound job takes about ten logarithms of small integers and level
# quantities, and a long-lived caller repeats most of them.  At the largest
# precision the CLI admits (8192 bits) an entry is about 2 KB, so the bound
# keeps the memo near 2-3 MB.
@lru_cache(maxsize=1024)
def _log_nearest(raw: tuple, wp: int) -> tuple:
    """ln of a positive mpf payload, rounded to nearest at ``wp`` bits."""
    return mpf_log(raw, wp, "n")


def _directed_mantissa(raw: tuple, exp: int, rounding: "Rounding") -> int:
    """An integer m with m * 10**exp >= raw (Up) or <= raw (Down): raw / 10**exp
    by a directed division or product at a small precision, rounded to an
    integer the same way.  It is exact when raw / 10**exp is an integer: for
    exp < 0 then |exp| <= 10, and for exp >= 0 then 5**exp divides the
    mantissa and the precision keeps 10**exp exact."""
    wp = _CHECK_PREC + (7 * exp // 3 if 0 <= 2 * exp <= raw[3] else 0)
    # a positive quotient, or a negative product, grows as the power shrinks
    flip = (raw[0] == 0) == (exp >= 0)
    power = mpf_pow_int(ften, abs(exp), wp, (rounding.flipped() if flip else rounding).value)
    return to_int((mpf_div if exp >= 0 else mpf_mul)(raw, power, wp, rounding.value),
                  rounding.value)


class Rounding(enum.Enum):
    UP = "c"    # toward +infinity
    DOWN = "f"  # toward -infinity

    def flipped(self) -> "Rounding":
        return Rounding.DOWN if self is Rounding.UP else Rounding.UP


class ExponentOverflow(ArithmeticError):
    """exp() would materialize an exponent integer too large to be useful."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class XReal:
    """One real number known to lie on the ``rounding`` side of a true value."""

    raw: tuple
    rounding: Rounding
    prec: int = DEFAULT_PREC

    def __post_init__(self) -> None:
        _require(isinstance(self.raw, tuple) and len(self.raw) == 4, "raw must be an mpf tuple")
        _require(self.prec >= 8, f"mantissa precision too small: {self.prec}")

    # ---- constructors ----

    @staticmethod
    def zero(rounding: Rounding = Rounding.UP, prec: int = DEFAULT_PREC) -> "XReal":
        return XReal(fzero, rounding, prec)

    @staticmethod
    def from_int(n: int, rounding: Rounding = Rounding.UP, prec: int = DEFAULT_PREC) -> "XReal":
        return XReal(from_int(n, prec, rounding.value), rounding, prec)

    @staticmethod
    def from_fraction(q, rounding: Rounding = Rounding.UP, prec: int = DEFAULT_PREC) -> "XReal":
        fr = Fraction(q)
        return XReal(from_rational(fr.numerator, fr.denominator, prec, rounding.value), rounding, prec)

    @staticmethod
    def from_float(x: float, rounding: Rounding = Rounding.UP, prec: int = DEFAULT_PREC) -> "XReal":
        return XReal(mpf_pos(from_float(x), prec, rounding.value), rounding, prec)

    # ---- payload queries ----

    def payload_sign(self) -> int:
        """-1, 0, or +1 for the stored payload."""
        if self.raw == fzero:
            return 0
        return -1 if self.raw[0] else 1

    def to_fraction(self) -> Fraction:
        """The payload as an exact rational (it is a dyadic number)."""
        sign, man, exp, _bc = self.raw
        if man == 0:
            return Fraction(0)
        val = Fraction(man) * Fraction(2) ** exp
        return -val if sign else val

    def payload_float(self) -> float:
        """The payload as a machine float (may overflow for huge exponents)."""
        return to_float(self.raw)

    def decimal(self) -> str:
        """Decimal rendering 'X.XXXXXXe+YYY', faithful for any exponent size and
        on the payload's side: an Up value never prints below its payload, a
        Down value never above it.  The to-nearest rendering keeps its exponent,
        and its digits are those of the payload rounded in its direction."""
        text = to_str(self.raw, _DIGITS, strip_zeros=False, min_fixed=1, max_fixed=0,
                      show_zero_exponent=True)
        if self.raw[1] == 0:  # zero is exact; inf and nan have no side
            return text
        head, tail = text.split("e")
        width = len(head.lstrip("-")) - 1
        exp = int(tail) - width + 1  # the printed value is man * 10**exp
        man = _directed_mantissa(self.raw, exp, self.rounding)
        if abs(man) < 10 ** (width - 1):  # a digit short: 1.00..0 became 0.99..9
            exp -= 1
            man = _directed_mantissa(self.raw, exp, self.rounding)
        elif abs(man) == 10 ** width:  # a digit over: 9.99..9 became 10.00..0
            man, exp = man // 10, exp + 1
        body = str(abs(man))
        return f"{'-' if man < 0 else ''}{body[0]}.{body[1:]}e{exp + width - 1:+d}"

    # ---- ring operations ----

    def add(self, other: "XReal") -> "XReal":
        _require(other.rounding is self.rounding,
                 "add requires operands rounded in the same direction")
        prec = max(self.prec, other.prec)
        return XReal(mpf_add(self.raw, other.raw, prec, self.rounding.value), self.rounding, prec)

    def sub(self, other: "XReal") -> "XReal":
        _require(other.rounding is self.rounding.flipped(),
                 "sub requires a subtrahend rounded in the opposite direction")
        prec = max(self.prec, other.prec)
        return XReal(mpf_sub(self.raw, other.raw, prec, self.rounding.value), self.rounding, prec)

    def neg(self) -> "XReal":
        return XReal(mpf_neg(self.raw), self.rounding.flipped(), self.prec)

    def mul(self, other: "XReal") -> "XReal":
        _require(other.rounding is self.rounding,
                 "mul requires operands rounded in the same direction")
        _require(self.raw[0] == 0 and other.raw[0] == 0,
                 "mul requires nonnegative payloads (callers bound nonnegative quantities)")
        prec = max(self.prec, other.prec)
        return XReal(mpf_mul(self.raw, other.raw, prec, self.rounding.value), self.rounding, prec)

    def scale(self, k) -> "XReal":
        """Multiply by an exact int or Fraction; a negative scalar flips the side."""
        fr = Fraction(k)
        if fr == 0:
            return XReal(fzero, self.rounding, self.prec)
        rnd = self.rounding if fr > 0 else self.rounding.flipped()
        out = mpf_mul(self.raw, from_int(fr.numerator), self.prec, rnd.value)
        if fr.denominator != 1:
            out = mpf_div(out, from_int(fr.denominator), self.prec, rnd.value)
        return XReal(out, rnd, self.prec)

    def div(self, other: "XReal") -> "XReal":
        """Divide by a strictly positive bound; the denominator must be rounded
        opposite to this value when the numerator payload is nonnegative, and in
        the same direction when it is negative."""
        _require(other.raw != fzero and other.raw[0] == 0,
                 "div requires a strictly positive denominator payload")
        need = self.rounding.flipped() if self.raw[0] == 0 else self.rounding
        _require(other.rounding is need,
                 f"div requires the denominator rounded {need.name}")
        prec = max(self.prec, other.prec)
        return XReal(mpf_div(self.raw, other.raw, prec, self.rounding.value), self.rounding, prec)

    # ---- transcendental operations (monotone increasing) ----

    def _padded(self, computed: tuple) -> "XReal":
        """Round a to-nearest working-precision result outward by 16 ulps."""
        wp = self.prec + _GUARD_BITS
        _sign, man, exp, bc = computed
        if man == 0:
            pad = from_man_exp(1, -wp)
        else:
            pad = from_man_exp(1, exp + bc - wp + _PAD_SHIFT)
        if self.rounding is Rounding.DOWN:
            pad = mpf_neg(pad)
        return XReal(mpf_add(computed, pad, self.prec, self.rounding.value),
                     self.rounding, self.prec)

    def log(self) -> "XReal":
        sign, man, _exp, _bc = self.raw
        _require(man != 0 and sign == 0, "log requires a strictly positive payload")
        if self.raw == fone:
            return XReal(fzero, self.rounding, self.prec)
        return self._padded(_log_nearest(self.raw, self.prec + _GUARD_BITS))

    def exp(self) -> "XReal":
        if self.raw == fzero:
            return XReal(fone, self.rounding, self.prec)
        _sign, _man, exp, bc = self.raw
        if exp + bc > _EXP_MAGNITUDE_LIMIT:
            raise ExponentOverflow(
                f"exp of a payload near 2**{exp + bc} needs about {exp + bc} bits "
                "of exponent integer; keep the quantity in log form instead")
        return self._padded(mpf_exp(self.raw, self.prec + _GUARD_BITS, "n"))

    # ---- payload comparisons (ignore the rounding tags) ----

    def cmp(self, other: "XReal") -> int:
        return mpf_cmp(self.raw, other.raw)

    def __lt__(self, other: "XReal") -> bool:
        return self.cmp(other) < 0

    def __le__(self, other: "XReal") -> bool:
        return self.cmp(other) <= 0

    def __gt__(self, other: "XReal") -> bool:
        return self.cmp(other) > 0

    def __ge__(self, other: "XReal") -> bool:
        return self.cmp(other) >= 0


def payload_rel_diff(a: XReal, b: XReal) -> float:
    """|a - b| / max(|a|, |b|) over the raw payloads, as a machine float."""
    if a.raw == fzero and b.raw == fzero:
        return 0.0
    diff = mpf_abs(mpf_sub(a.raw, b.raw, 300, "n"))
    am, bm = mpf_abs(a.raw), mpf_abs(b.raw)
    den = am if mpf_cmp(am, bm) >= 0 else bm
    return to_float(mpf_div(diff, den, 53, "n"))
