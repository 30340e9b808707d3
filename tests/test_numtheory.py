"""Elementary helpers: factorization, phi, group order, derived level data."""

import time
from fractions import Fraction
from math import gcd, prod

import pytest

import reference as R
from jbound.numtheory import (
    _prime_powers,
    b_of,
    d_n,
    euler_phi,
    is_prime,
    m_of,
    prime_factors,
    sl2_order,
    xgcd,
)


def test_prime_factors():
    assert prime_factors(2) == (2,)
    assert prime_factors(12) == (2, 3)
    assert prime_factors(97) == (97,)
    assert prime_factors(2 * 3 * 5 * 7 * 11) == (2, 3, 5, 7, 11)
    assert prime_factors(1024) == (2,)


def test_prime_power_walk_feeds_every_level_formula():
    """_prime_powers is the one factorization: its prime powers multiply to
    n, its primes are the reference's, and phi and |SL2| are its products."""
    for n in range(1, 20001):
        walk = _prime_powers(n)
        assert prod(q for _p, q in walk) == n, n
        for p, q in walk:
            power = p
            while power < q:
                power *= p
            assert power == q, (n, p, q)
        primes = R.prime_factors(n)
        assert [p for p, _q in walk] == primes, n
        assert prime_factors(n) == tuple(primes), n
        assert euler_phi(n) == R.euler_phi(n), n
        assert sl2_order(n) == n ** 3 * prod(1 - Fraction(1, p * p) for p in primes), n
    for n in (0, -1):
        for f in (_prime_powers, prime_factors, sl2_order):
            with pytest.raises(ValueError):
                f(n)


def test_is_prime():
    primes = {p for p in range(2, 200) if is_prime(p)}
    sieve = {p for p in range(2, 200)
             if all(p % q for q in range(2, p))}
    assert primes == sieve
    assert not is_prime(1)
    for n in range(-2, 2 * 10**5):
        assert is_prime(n) == (n >= 2 and prime_factors(n) == (n,)), n


# Sorenson-Webster: the first composite that passes the strong test to
# every prime base 2..41 is PSI_13; below it the test is exact.
PSI_13 = 3317044064679887385961981


def test_is_prime_refutes_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2..7, 2..31 and 2..37: the first
    # base to witness each is 11, 37 and 41
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    assert not is_prime(10**30)
    assert not is_prime((2**61 - 1) * (2**89 - 1))


def test_is_prime_decides_large_primes_below_the_exact_bound():
    # the least prime above 10^15, and two Mersenne primes
    for p in (10**15 + 37, 2**31 - 1, 2**61 - 1):
        assert is_prime(p), p


def test_is_prime_refuses_what_it_cannot_certify():
    for n in (PSI_13, 2**89 - 1, 2**127 - 1):
        with pytest.raises(ValueError, match="cannot certify primality"):
            is_prime(n)


def test_is_prime_refuses_huge_candidates_before_any_base():
    # no prime factor up to 41; each pow at 4000 digits would take seconds
    huge = 10**3999 + 3
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cannot certify primality"):
        is_prime(huge)
    assert time.perf_counter() - start < 0.1
    # a factor up to 41 still refutes at any size, and up to 1024 bits a base
    # does; two Mersenne primes give composites with no factor up to 41
    assert not is_prime(10**4000)
    assert not is_prime(41 * (2**1100 + 1))
    m127, m521 = 2**127 - 1, 2**521 - 1
    assert not is_prime(m127 * m521)  # 648 bits
    with pytest.raises(ValueError, match="cannot certify primality"):
        is_prime(m521 * m521)  # 1042 bits


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert euler_phi(97) == 96
    assert euler_phi(60) == 16


def test_xgcd():
    for a, b in [(12, 18), (35, 64), (0, 5), (17, 17), (1, 999)]:
        g, x, y = xgcd(a, b)
        assert g == gcd(a, b)
        assert a * x + b * y == g


def test_sl2_order():
    assert sl2_order(2) == 6
    assert sl2_order(3) == 24
    assert sl2_order(4) == 48
    assert sl2_order(6) == 144
    assert sl2_order(5) == 120
    # multiplicativity across coprime levels
    assert sl2_order(35) == sl2_order(5) * sl2_order(7)


def test_d_n():
    assert d_n(2) == 6
    assert d_n(3) == 12
    assert d_n(5) == 60
    assert d_n(6) == 72
    assert d_n(7) == 168
    assert d_n(34) == 14688
    for n in range(3, 40):
        assert 2 * d_n(n) == sl2_order(n)


def test_m_of():
    assert m_of(2) == 6
    assert m_of(3) == 6
    assert m_of(4) == 12
    assert m_of(5) == 10
    assert m_of(8) == 24
    assert m_of(9) == 18
    assert m_of(17) == 34
    assert m_of(6) is None
    assert m_of(12) is None
    assert m_of(30) is None


def test_b_of_is_a_positive_integer():
    # B = d_N(N-6)/(12N) + 2 is 1 + genus of the principal-level curve
    assert b_of(2) == 1
    assert b_of(6) == 2
    assert b_of(7) == Fraction(4)
    for n in range(2, 10**4 + 1):
        b = b_of(n)
        assert b.denominator == 1, n
        assert b >= 1, n
