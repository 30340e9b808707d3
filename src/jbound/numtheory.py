"""Exact elementary number theory shared by the group and bound layers.

Everything here is integer arithmetic: factorization by trial division
(levels stay small enough that nothing fancier is warranted), a primality
test, Euler phi, the order of SL2 over Z/n, and the two derived level
quantities used by the bound formulas.  It also holds the bound layer's
default precision, which the CLI states in its help without loading that
layer; ``fractions`` is imported only when ``b_of`` runs.

Place primes and ``tables --primes-only`` levels are not capped, so
``is_prime`` does not factor: it runs the strong (Miller-Rabin) test to the
13 prime bases 2..41, which no composite below
3317044064679887385961981 passes (Sorenson and Webster, *Strong
pseudoprimes to twelve prime bases*, Math. Comp. 86 (2017)).  Above that
bound a number that passes every base, or has more than 1024 bits and no
factor up to 41, is refused with a ``ValueError`` rather than declared prime.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_PREC = 128  # mantissa bits of a bound evaluation, unless a job asks otherwise


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n >= 1, in increasing order."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    out = []
    m = n
    for q in (2, 3):
        if m % q == 0:
            out.append(q)
            while m % q == 0:
                m //= q
    q = 5
    while q * q <= m:
        if m % q == 0:
            out.append(q)
            while m % q == 0:
                m //= q
        # walk 5, 7, 11, 13, ... skipping multiples of 2 and 3
        q += 2 if q % 3 == 2 else 4
    if m > 1:
        out.append(m)
    return tuple(out)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime; exact for n < 3317044064679887385961981.

    Above that bound a composite is still refuted when a base witnesses it
    (bases are tried up to 1024 bits); anything else raises ``ValueError``.
    """
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n.bit_length() <= 1024:  # above it each pow costs up to seconds
        d, s = n - 1, 0
        while d % 2 == 0:
            d //= 2
            s += 1
        for a in _MR_BASES:
            x = pow(a, d, n)
            if x == 1 or x == n - 1:
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < _MR_EXACT_BELOW:
            return True
    raise ValueError(
        f"cannot certify primality of {n}: it has no prime factor up to 41, and "
        f"the strong test to the bases 2..41 is exact only below {_MR_EXACT_BELOW}")


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    phi = n
    for q in prime_factors(n):
        phi = phi // q * (q - 1)
    return phi


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b); g >= 0 for a, b >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


@lru_cache(maxsize=None)
def sl2_order(n: int) -> int:
    """|SL2(Z/n)| = n^3 * prod_{q | n} (1 - q^-2), as an exact integer."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    if n == 1:
        return 1
    r = n ** 3
    for q in prime_factors(n):
        r, rem = divmod(r, q * q)
        if rem:
            raise AssertionError("internal: inexact division in sl2_order")
        r *= q * q - 1
    return r


@lru_cache(maxsize=None)
def d_n(n: int) -> int:
    """Degree of the covering attached to level n: sl2_order(n)/2, except 6 at n=2."""
    if n < 2:
        raise ValueError(f"level must be >= 2, got {n}")
    if n == 2:
        return 6
    half, rem = divmod(sl2_order(n), 2)
    if rem:
        raise AssertionError("internal: sl2_order odd for n > 2")
    return half


def m_of(n: int) -> int | None:
    """Auxiliary level for prime-power n: 3n for n = 2^k, 2n for odd prime powers.

    Returns None when n has at least two distinct prime factors.
    """
    if n < 2:
        raise ValueError(f"level must be >= 2, got {n}")
    pf = prime_factors(n)
    if len(pf) > 1:
        return None
    return 3 * n if pf[0] == 2 else 2 * n


def b_of(n: int) -> Fraction:
    """Exact rational d_n(n-6)/(12n) + 2 (one more than the level-n curve genus)."""
    from fractions import Fraction
    return Fraction(d_n(n) * (n - 6), 12 * n) + 2
