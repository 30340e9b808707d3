"""Exact elementary number theory shared by the group and bound layers.

Everything here is integer arithmetic: factorization by trial division
(levels stay small enough that nothing fancier is warranted), a primality
test, Euler phi, the order of SL2 over Z/n, and the two derived level
quantities used by the bound formulas.  ``_prime_powers`` is the one
factorization: it yields (p, q) for each prime power q = p^e || n, and every
level formula is a product over it, phi(n) = prod (q - q/p) and
|SL2(Z/n)| = prod q (q^2 - (q/p)^2) here and the per-prime counts of
``invariants``.  It also holds the bound layer's
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
from math import prod
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_PREC = 128  # mantissa bits of a bound evaluation, unless a job asks otherwise


def _prime_powers(n: int) -> tuple[tuple[int, int], ...]:
    """(p, q) for each prime power q = p^e || n >= 1, in increasing order of p."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    out = []
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            out.append((p, q))
        p += 1 if p == 2 else 4 if p % 3 == 1 else 2  # 2, 3, then 6k - 1 and 6k + 1
    if m > 1:
        out.append((m, m))
    return tuple(out)


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n >= 1, in increasing order."""
    return tuple(p for p, _q in _prime_powers(n))


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
    """phi(n) = prod (q - q/p) over the prime powers q = p^e || n >= 1."""
    return prod(q - q // p for p, q in _prime_powers(n))


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
    """|SL2(Z/n)| = n^3 prod_{p | n} (1 - p^-2) = prod q (q^2 - (q/p)^2) over
    the prime powers q = p^e || n >= 1, as an exact integer."""
    return prod(q * (q * q - (q // p) ** 2) for p, q in _prime_powers(n))


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
