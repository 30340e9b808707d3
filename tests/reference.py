"""Independent reference evaluation of the height-bound quantities.

This module is the measuring stick for the bound engine: every ln-valued
quantity the engine produces is re-derived here from scratch with mpmath's
ordinary to-nearest arithmetic at 60 significant digits.  Nothing in this file
may import from the package under test, and it deliberately does not share the
engine's directed-rounding machinery, its number-theory helpers, or its
log-space assembly order.

Two tiers are provided:

* the ``ref_*`` functions transcribe each quantity in multiplicative form and
  only fall back to working with logarithms where the plain product cannot be
  stored at all (D* and the Delta(N) tower, whose *binary exponents* would need
  gigabytes once the level grows);
* the ``ref_*_literal`` functions materialize even those towers as honest
  mpf numbers, which is feasible for small levels, and exist to cross-check
  the log-space algebra of tier one.

``partitions`` enumerates integer partitions for the residue-degree lemma,
checked against the tabulated counts ``PARTITION_COUNTS``.

The file also keeps the full-group elliptic sweep (``ref_elliptic_sweep``,
``ref_unramified``), the package's former O(|SL2(Z/N)|) algorithm, as an
oracle for the conjugacy-class engine.  It works on plain (a, b, c, d)
tuples.
"""

from fractions import Fraction
from math import gcd

from mpmath import mp, mpf, log, sqrt, exp, fsum, fprod

REF_DPS = 60

# Levels small enough that D*, Delta(N) and the Delta-based bound can be
# materialized as single mpf values (their binary exponents stay under ~10^6).
LITERAL_MAX_LEVEL = 8


# ---- elementary number theory (kept separate from the package on purpose) ----

def prime_factors(n):
    """Return the sorted list of distinct primes dividing n."""
    ps = []
    m = n
    q = 2
    while q * q <= m:
        if m % q == 0:
            ps.append(q)
            while m % q == 0:
                m //= q
        q += 1 if q == 2 else 2
    if m > 1:
        ps.append(m)
    return ps


def euler_phi(n):
    phi = n
    for q in prime_factors(n):
        phi = phi // q * (q - 1)
    return phi


def dn(n):
    """Degree bound d_N attached to a level: N^3/2 * prod(1 - q^-2), with 6 at N=2."""
    if n == 2:
        return 6
    num = n ** 3
    for q in prime_factors(n):
        num = num // (q * q) * (q * q - 1)
    assert num % 2 == 0
    return num // 2


def m_of(n):
    """Substituted level for prime-power n (3n for 2-powers, 2n otherwise), else None."""
    ps = prime_factors(n)
    if len(ps) != 1:
        return None
    return 3 * n if ps[0] == 2 else 2 * n


def _as_mpf(x):
    if isinstance(x, Fraction):
        return mpf(x.numerator) / mpf(x.denominator)
    return mpf(x)


def b_of(n):
    """The exact rational B = d_N(N-6)/(12N) + 2."""
    return Fraction(dn(n) * (n - 6), 12 * n) + 2


def s_of(r_inf, places):
    return r_inf + len(places)


def p_max(places):
    return max((p for p, _f in places), default=1)


# ---- tier one: reference values over the whole grid ----

def ref_lambda_ln(n):
    """ln of the tower constant (B*d_N)^(25*B*d_N)."""
    with mp.workdps(REF_DPS):
        bd = _as_mpf(b_of(n) * dn(n))
        return _as_mpf(25 * b_of(n) * dn(n)) * log(bd)


def ref_h_s(d, places):
    """Normalized sum of log-norms over S (infinite places contribute log 1 = 0)."""
    with mp.workdps(REF_DPS):
        if not places:
            return mpf(0)
        return fsum(f * log(p) for p, f in places) / d


def ref_ln_dstar(n, d, abs_disc, places):
    """ln D*, with the tower constant materialized but D* itself kept as a log."""
    with mp.workdps(REF_DPS):
        lam = exp(ref_lambda_ln(n))
        return dn(n) * log(abs_disc) + (ref_h_s(d, places)
                                        + (1 + log(1728)) * lam) * d * dn(n)


def ref_ln_delta0(level, d, abs_disc, places):
    """ln Delta_0 at the given level, from the fully materialized product."""
    with mp.workdps(REF_DPS):
        phi = euler_phi(level)
        inner = mpf(level) ** (d * level) * mpf(abs_disc) ** phi
        prod_lognorm = fprod(log(mpf(p) ** f) for p, f in places) if places else mpf(1)
        delta0 = (mpf(d) ** (-d) * sqrt(inner) * log(inner) ** (d * phi)
                  * prod_lognorm ** phi)
        return log(delta0)


def ref_ln_delta(level, d, abs_disc, places):
    """ln Delta at the given level; the D* tower forces log-space assembly."""
    with mp.workdps(REF_DPS):
        phi = euler_phi(level)
        dl = dn(level)
        ln_dstar = ref_ln_dstar(level, d, abs_disc, places)
        ln_inner = level * d * dl * log(level) + phi * ln_dstar
        sum_loglog = fsum(log(f * log(p)) for p, f in places) if places else mpf(0)
        return (-d * log(d) + ln_inner / 2 + phi * d * dl * log(ln_inner)
                + phi * dl * sum_loglog)


def ref_ln_bound_cusps(n, d, abs_disc, r_inf, places, ln_c=0):
    """ln of the three-cusp height bound; returns (ln_bound, level_used)."""
    with mp.workdps(REF_DPS):
        level = m_of(n) or n
        s = s_of(r_inf, places)
        p = p_max(places)
        val = (2 * s * level * (mpf(ln_c) + log(d * s * level ** 2))
               + 3 * s * level * log(log(d * level))
               + d * level * log(p)
               + ref_ln_delta0(level, d, abs_disc, places))
        return val, level


def ref_ln_bound_covering(n, d, abs_disc, r_inf, places, ln_c=0):
    """ln of the covering-route height bound; returns (ln_bound, level_used)."""
    with mp.workdps(REF_DPS):
        level = m_of(n) or n
        dl = dn(level)
        s = s_of(r_inf, places)
        p = p_max(places)
        val = (2 * s * level * dl * (mpf(ln_c) + log(d * s * dl ** 2 * level ** 2))
               + 3 * s * level * dl * log(log(d * level * dl))
               + d * level * dl * log(p)
               + ref_ln_delta(level, d, abs_disc, places))
        return val, level


def ref_ln_delta1(level, d0, abs_disc0, s0_product):
    """ln Delta_1 for a lifted field of degree d0, discriminant |D_0|, and a
    wholesale product of log-norms over the lifted place set."""
    with mp.workdps(REF_DPS):
        phi = euler_phi(level)
        inner = mpf(level) ** (d0 * level) * mpf(abs_disc0) ** phi
        delta1 = (mpf(d0) ** (-d0) * sqrt(inner) * log(inner) ** (d0 * phi)
                  * mpf(s0_product) ** phi)
        return log(delta1)


# ---- tier two: everything materialized, small levels only ----

def ref_dstar_literal(n, d, abs_disc, places):
    """D* as a single mpf (binary exponent is a multi-kilobyte integer)."""
    assert n <= LITERAL_MAX_LEVEL
    with mp.workdps(REF_DPS):
        lam = _as_mpf(b_of(n) * dn(n)) ** _as_mpf(25 * b_of(n) * dn(n))
        return (mpf(abs_disc) ** dn(n)
                * exp((ref_h_s(d, places) + (1 + log(1728)) * lam) * d * dn(n)))


def ref_ln_delta_literal(level, d, abs_disc, places):
    """ln Delta via the fully materialized product, cross-checking ref_ln_delta."""
    assert level <= LITERAL_MAX_LEVEL
    with mp.workdps(REF_DPS):
        phi = euler_phi(level)
        dl = dn(level)
        dstar = ref_dstar_literal(level, d, abs_disc, places)
        inner = mpf(level) ** (level * d * dl) * dstar ** phi
        prod_lognorm = fprod(log(mpf(p) ** f) for p, f in places) if places else mpf(1)
        delta = (mpf(d) ** (-d) * sqrt(inner) * log(inner) ** (phi * d * dl)
                 * prod_lognorm ** (phi * dl))
        return log(delta)


def ref_ln_bound_cusps_literal(n, d, abs_disc, r_inf, places, ln_c=0):
    """ln of the three-cusp bound via the fully materialized product (any grid n)."""
    with mp.workdps(REF_DPS):
        level = m_of(n) or n
        s = s_of(r_inf, places)
        p = p_max(places)
        phi = euler_phi(level)
        inner = mpf(level) ** (d * level) * mpf(abs_disc) ** phi
        prod_lognorm = fprod(log(mpf(pp) ** f) for pp, f in places) if places else mpf(1)
        delta0 = (mpf(d) ** (-d) * sqrt(inner) * log(inner) ** (d * phi)
                  * prod_lognorm ** phi)
        bound = ((exp(mpf(ln_c)) * d * s * level ** 2) ** (2 * s * level)
                 * log(d * level) ** (3 * s * level)
                 * mpf(p) ** (d * level)
                 * delta0)
        return log(bound), level


def ref_ln_bound_covering_literal(n, d, abs_disc, r_inf, places, ln_c=0):
    """ln of the covering-route bound via the fully materialized product."""
    level = m_of(n) or n
    assert level <= LITERAL_MAX_LEVEL
    with mp.workdps(REF_DPS):
        dl = dn(level)
        s = s_of(r_inf, places)
        p = p_max(places)
        delta = exp(ref_ln_delta_literal(level, d, abs_disc, places))
        bound = ((exp(mpf(ln_c)) * d * s * dl ** 2 * level ** 2) ** (2 * s * level * dl)
                 * log(d * level * dl) ** (3 * s * level * dl)
                 * mpf(p) ** (d * level * dl)
                 * delta)
        return log(bound), level


# ---- elliptic points by a sweep over the whole group ----

def _mul(x, y, n):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % n, (a * f + b * h) % n,
            (c * e + d * g) % n, (c * f + d * h) % n)


def _inv(x, n):
    a, b, c, d = x
    return (d, -b % n, -c % n, a)


def _neg(x, n):
    return tuple(-v % n for v in x)


def sl2_elements(n):
    """All of SL2(Z/n): each first column (a, c) with gcd(a, c, n) = 1, then
    its n completions (b0 + k a, d0 + k c)."""
    for a in range(n):
        for c in range(n):
            if gcd(gcd(a, c), n) != 1:
                continue
            # a x + c y = g with gcd(g, n) = 1
            r0, r1, x0, x1, y0, y1 = a, c, 1, 0, 0, 1
            while r1:
                q = r0 // r1
                r0, r1 = r1, r0 - q * r1
                x0, x1 = x1, x0 - q * x1
                y0, y1 = y1, y0 - q * y1
            ginv = pow(r0, -1, n)
            b, d = -y0 * ginv % n, x0 * ginv % n
            for _ in range(n):
                yield (a, b, c, d)
                b, d = (b + a) % n, (d + c) % n


def _conjugates(n):
    """(g, g s g^-1, g t g^-1) over all g, with s = [[0,-1],[1,0]] and
    t = [[0,-1],[1,-1]], written out entry by entry."""
    for g in sl2_elements(n):
        a, b, c, d = g
        e = (a * c + b * d) % n
        f = (b * d + a * c + b * c) % n
        yield (g,
               (e, -(a * a + b * b) % n, (c * c + d * d) % n, -e % n),
               (f, -(a * a + a * b + b * b) % n, (c * c + c * d + d * d) % n,
                -(b * d + a * c + a * d) % n))


def ref_elliptic_sweep(n, h):
    """(nu2, nu3, stab) for the subgroup h (a set of tuples) of SL2(Z/n).

    Every g is tested: g s g^-1 in <h, -I> puts the coset <h, -I> g over
    j=1728, and g t g^-1 over j=0.  ``stab`` holds, for the first g of each
    elliptic coset in the order of ``sl2_elements``, that conjugate signed
    into h, and then -I when h holds it and ``stab`` is not empty: the
    generators of the sweep's stabilizer ("tilde") subgroup.
    """
    hpm = set(h) | {_neg(x, n) for x in h}
    hits = [0, 0]
    reps = [[], []]
    stab = []
    for g, *conjs in _conjugates(n):
        for k, conj in enumerate(conjs):
            if conj not in hpm:
                continue
            hits[k] += 1
            if all(_mul(g, _inv(r, n), n) not in hpm for r in reps[k]):
                reps[k].append(g)
                stab.append(conj if conj in h else _neg(conj, n))
    nu2, rem2 = divmod(hits[0], len(hpm))
    nu3, rem3 = divmod(hits[1], len(hpm))
    assert rem2 == rem3 == 0 and (nu2, nu3) == tuple(map(len, reps))
    minus_i = (n - 1, 0, 0, n - 1)
    if stab and minus_i in h:
        stab.append(minus_i)
    return nu2, nu3, stab


def ref_unramified(n, h, g):
    """True when no conjugate of s or t lies in <h, -I> but outside <g, -I>."""
    hpm = set(h) | {_neg(x, n) for x in h}
    gpm = set(g) | {_neg(x, n) for x in g}
    return not any(conj in hpm and conj not in gpm
                   for _g, *conjs in _conjugates(n) for conj in conjs)


# ---- integer partitions ----

# p(t) for t = 0..24 (OEIS A000041)
PARTITION_COUNTS = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135,
                    176, 231, 297, 385, 490, 627, 792, 1002, 1255, 1575)


def partitions(total):
    """Every partition of ``total`` >= 1 once, as a non-decreasing list.

    The accelerated ascending-composition generator of Kelleher and
    O'Sullivan ("Generating all partitions: a comparison of two encodings"):
    a[:k] is a fixed prefix, x the smallest allowed next part and y what is
    left to place.  Constant amortized time per partition."""
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    a = [0] * (total + 1)
    k = 1
    y = total - 1
    while k:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:      # extend the prefix while two parts >= x still fit
            a[k] = x
            y -= x
            k += 1
        while x <= y:          # the prefix, then the two parts x <= y
            a[k], a[k + 1] = x, y
            yield a[:k + 2]
            x += 1
            y -= 1
        a[k] = x + y           # the prefix, then the single part x + y
        y = x + y - 1
        yield a[:k + 1]
