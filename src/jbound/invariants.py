"""Invariants of the curve attached to a congruence subgroup, and the
route decision for the height-bound theorems.

A subgroup is handled through its image H in SL2(Z/N).  Cusps are orbits of
<H, -I> on unimodular column vectors.  Elliptic points come from the
conjugacy classes Cl(s) and Cl(t) of the order-4 element s = [[0,-1],[1,0]]
and the order-3 element t = [[0,-1],[1,-1]]: each class is the orbit of its
element under conjugation by the generators S and T of SL2(Z/N), O(N^2)
steps where a sweep over the group would take O(N^3).  The elements g with
g s g^-1 in <H, -I> number |C(s)| |Cl(s) & <H, -I>|, with centralizer order
|C(s)| = |SL2(Z/N)| / |Cl(s)|, so nu2 = |C(s)| |Cl(s) & <H, -I>| / |<H, -I>|,
and nu3 likewise with t.  The classes are packed keys, like the element
sets of sl2n, so they meet H as they are.  The genus follows from the
exact integer identity 12(g-1) = mu - 3*nu2 - 4*nu3 - 6*nuInf.  The curve
only depends on <H, -I>, and all counts are taken there.

Both counts are taken one prime power at a time when H splits.  SL2(Z/N) is
the product of the SL2(Z/q) over the prime powers q || N, and H lies in the
product of its images H_q mod q; it equals that product exactly when
|H| = prod |H_q|, each H_q being the closure of H's generators mod q.  Then
vectors, orbits and conjugacy classes factor too, and with a_F orbits of a
factor F on vectors mod q, b_F of them their own negatives,
x_F = |Cl(s_F) & F| and y_F = |Cl(s_F) & -F|:

    nuInf = (prod a_F + prod b_F) / 2,
    nu2   = |SL2(Z/N)| (prod x_F + prod y_F) / (2 |Cl(s)| |H|),

and nu3 likewise with t, whether or not H holds -I.  An image that does not
split, or a prime-power level, has the one factor H, and the same formulas
are then the counts at level N.  The classical families always split, and so
do many tildes and --gens images.

The "tilde" subgroup is the subgroup generated by every elliptic element of
<H, -I>, that is by (Cl(s) u Cl(t)) & <H, -I>, each taken with the sign that
puts it in H, and by -I when H contains it and there is an elliptic element.
It is normal in H, and its curve covers that of H unramified away from the
cusps (Bilu, "Baker's method and modular curves", 2002); verify_unramified
checks this as (Cl(s) u Cl(t)) & <H, -I> <= <G, -I>.  Each tilde is one
closure of those elements in key order at level N, or H itself when they
agree; when the elliptic counts are zero it is the trivial image, and the
classes of level N are not built.

Each classical family is the closure of its generators, checked against the
family's exact order: none for Gamma(N), T for Gamma1(N), T and then each
diag(u, u^-1) that enlarges the group for Gamma0(N), and S and T for
SL2(Z/N).  applicability reads the invariants of H and of
its tilde once, through the cached curve_invariants, and returns both, so
callers never count cusps themselves; each of the four invariant caches
keeps its 64 most recent entries, and the factor lists and per-factor counts
keep their 4 most recent.  Every image is built by sl2n.closure, which
refuses a level above the cap, so nothing here checks the cap again.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import gcd, prod

from .numtheory import euler_phi, prime_factors
from .sl2n import (
    Mat,
    SubgroupImage,
    _mat,
    _negated,
    closure,
    group_order,
    pm_elements,
)

_CACHE_SIZE = 64  # a bound-grid pass meets 47 images; a tables row needs two
_LOCAL_CACHE_SIZE = 4  # cusp and elliptic counts of one image share its factors


class SubgroupKind(str, enum.Enum):
    GAMMA0 = "gamma0"       # upper triangular mod N
    GAMMA1 = "gamma1"       # upper triangular with unit diagonal entries = 1
    PRINCIPAL = "gamma"     # the trivial image (kernel of reduction)
    FULL = "full"           # all of SL2(Z/N)


class Verdict(str, enum.Enum):
    MAIN_DIRECT = "MainDirect"          # the subgroup's curve has >= 3 cusps
    MAIN_VIA_TILDE = "MainViaTilde"     # the elliptic-stabilizer subgroup's curve does
    INAPPLICABLE = "Inapplicable"       # neither curve has 3 cusps


@dataclass(frozen=True)
class CurveInvariants:
    """Index mu (in the +-1 quotient), cusp count, elliptic counts, genus."""

    mu: int
    nu_inf: int
    nu2: int
    nu3: int
    genus: int

    def __post_init__(self) -> None:
        if self.mu != 12 * (self.genus - 1) + 3 * self.nu2 + 4 * self.nu3 + 6 * self.nu_inf:
            raise ValueError(f"inconsistent invariants: {self!r}")
        if self.nu_inf < 1 or self.genus < 0:
            raise ValueError(f"impossible invariants: {self!r}")


@dataclass(frozen=True)
class EllipticData:
    """Elliptic point counts over j=1728 and j=0."""

    nu2: int
    nu3: int


@dataclass(frozen=True)
class Applicability:
    verdict: Verdict
    invariants: CurveInvariants
    tilde_image: SubgroupImage
    tilde_invariants: CurveInvariants
    sufficient_criterion_holds: bool


@lru_cache(maxsize=_CACHE_SIZE)
def standard_subgroup(kind: SubgroupKind | str, n: int) -> SubgroupImage:
    """The image of a classical family at level n: the closure of the
    family's generators, checked against the family's exact order.  A level
    above the cap is refused by the first closure, before n is factored."""
    kind = SubgroupKind(kind)
    if n < 2:
        raise ValueError(f"level must be >= 2, got {n}")
    t = Mat(n, 1, 1, 0, 1)
    if kind is SubgroupKind.PRINCIPAL:
        gens = []
    elif kind is SubgroupKind.GAMMA1:
        gens = [t]
    elif kind is SubgroupKind.GAMMA0:
        units = (Mat(n, u, 0, 0, pow(u, -1, n)) for u in range(1, n) if gcd(u, n) == 1)
        gens = chain([t], units)  # lazy: no unit is made before the level is admitted
    else:  # FULL
        gens = [Mat(n, 0, n - 1, 1, 0), t]
    H = closure(n, gens)
    order = {SubgroupKind.PRINCIPAL: 1, SubgroupKind.GAMMA1: n,
             SubgroupKind.GAMMA0: n * euler_phi(n), SubgroupKind.FULL: group_order(n)}[kind]
    if H.order != order:
        raise AssertionError(f"internal: {kind.value} generators give the wrong order")
    return H


def _prime_powers(n: int) -> list[int]:
    """The prime powers q || n, in increasing order of their primes."""
    out = []
    for p in prime_factors(n):
        q = p
        while n % (q * p) == 0:
            q *= p
        out.append(q)
    return out


@lru_cache(maxsize=_LOCAL_CACHE_SIZE)
def _factors(H: SubgroupImage) -> tuple[SubgroupImage, ...]:
    """The images H_q of H mod each prime power q || N when H is their
    direct product, which holds exactly when |H| = prod |H_q|; else (H,)."""
    n = H.level
    qs = _prime_powers(n)
    if len(qs) == 1:
        return (H,)
    local = tuple(closure(q, [Mat(q, m.a % q, m.b % q, m.c % q, m.d % q)
                              for m in H.generators])
                  for q in qs)
    return local if prod(F.order for F in local) == H.order else (H,)


@lru_cache(maxsize=_LOCAL_CACHE_SIZE)
def _orbit_counts(F: SubgroupImage) -> tuple[int, int]:
    """The orbits of F on column vectors (a; c) with gcd(a, c, q) = 1, and
    how many of them are their own negatives.  seen[a*q + c] marks (a; c)."""
    n = F.level
    action = [(m.a, m.b, m.c, m.d) for m in F.generators]
    seen = bytearray(n * n)
    count = fixed = 0
    for a0 in range(n):
        g, row, neg_row = gcd(a0, n), a0 * n, (n - a0) % n * n
        for c0 in range(n):
            v = row + c0
            if seen[v] or (g != 1 and gcd(g, c0) != 1):
                continue
            neg = neg_row + (n - c0) % n
            earlier = seen[neg]  # then -O is an earlier orbit, not O
            count += 1
            seen[v] = 1
            stack = [(a0, c0)]
            while stack:
                a, c = stack.pop()
                for ma, mb, mc, md in action:
                    a1, c1 = (ma * a + mb * c) % n, (mc * a + md * c) % n
                    w = a1 * n + c1
                    if not seen[w]:
                        seen[w] = 1
                        stack.append((a1, c1))
            fixed += not earlier and seen[neg]
    return count, fixed


def cusp_count(H: SubgroupImage) -> int:
    """Orbits of <H, -I> on column vectors (a; c) with gcd(a, c, N) = 1.

    The H-orbits are the products of the orbits of the factors, and -I
    fixes a product exactly when it fixes each factor, so with a_F orbits
    of the factor F and b_F of them fixed by -I there are prod a_F
    H-orbits, prod b_F of them fixed, and (prod a_F + prod b_F) / 2 orbits
    of <H, -I>, whether or not H holds -I."""
    a = b = 1
    for F in _factors(H):
        fa, fb = _orbit_counts(F)
        a *= fa
        b *= fb
    return (a + b) // 2


def _conjugacy_class(n: int, x: tuple) -> frozenset:
    """The class of x in SL2(Z/n), packed: its orbit under conjugation by
    S = [[0,-1],[1,0]] and T = [[1,1],[0,1]], which generate SL2(Z/n)."""
    a, b, c, d = x
    seen = {((a * n + b) * n + c) * n + d}
    stack = [x]
    while stack:
        a, b, c, d = stack.pop()
        for y in ((d, (n - c) % n, (n - b) % n, a),              # S x S^-1
                  ((a + c) % n, (b + d - a - c) % n, c, (d - c) % n)):  # T x T^-1
            key = ((y[0] * n + y[1]) * n + y[2]) * n + y[3]
            if key not in seen:
                seen.add(key)
                stack.append(y)
    return frozenset(seen)


@lru_cache(maxsize=1)
def _elliptic_classes(n: int) -> tuple[frozenset, frozenset]:
    """The classes of s and t; cached for the level in use only."""
    return (_conjugacy_class(n, (0, n - 1, 1, 0)),
            _conjugacy_class(n, (0, n - 1, 1, n - 1)))


@lru_cache(maxsize=_LOCAL_CACHE_SIZE)
def _class_counts(F: SubgroupImage) -> tuple[tuple[int, int, int], ...]:
    """(|Cl|, |Cl & F|, |Cl & -F|) for the classes Cl(s) and Cl(t) at F's level."""
    out = []
    for cls in _elliptic_classes(F.level):
        inside = len(cls & F.elements)
        if F.contains_minus_i:
            negated = inside
        else:  # |Cl & -F| = |-Cl & F|: negate the smaller set
            small, large = sorted((cls, F.elements), key=len)
            negated = len(large.intersection(_negated(F.level, small)))
        out.append((len(cls), inside, negated))
    return tuple(out)


@lru_cache(maxsize=_CACHE_SIZE)
def elliptic_counts(H: SubgroupImage) -> EllipticData:
    """Elliptic counts from the classes Cl(s), Cl(t) of s and t.

    The g in SL2(Z/N) with g s g^-1 in <H, -I> number |C(s)| |Cl(s) & <H, -I>|,
    where |C(s)| = |G| / |Cl(s)| is the centralizer order; dividing by
    |<H, -I>| counts the elliptic cosets over j=1728.  Likewise t over j=0.
    Classes factor like H: over the factors F, x = |Cl(s) & H| is
    prod |Cl(s_F) & F| and y = |Cl(s) & -H| is prod |Cl(s_F) & -F|, and
    nu2 = |G| (x + y) / (2 |Cl(s)| |H|) whether or not H holds -I (when it
    does, x = y and <H, -I> = H)."""
    order = group_order(H.level)
    factors = _factors(H)
    nus = []
    for k in range(2):
        size = inside = negated = 1
        for F in factors:
            c, x, y = _class_counts(F)[k]
            size, inside, negated = size * c, inside * x, negated * y
        nu, rem = divmod(order * (inside + negated), 2 * size * H.order)
        if rem:
            raise AssertionError("internal: elliptic count is not an integer")
        nus.append(nu)
    return EllipticData(*nus)


def psl_index(H: SubgroupImage) -> int:
    """mu: the index of the +-1 image of H in the +-1 quotient of SL2(Z/N)."""
    pm_order = H.order if H.contains_minus_i else 2 * H.order
    mu, rem = divmod(group_order(H.level), pm_order)
    if rem:
        raise AssertionError("internal: subgroup order does not divide the group order")
    return mu


@lru_cache(maxsize=_CACHE_SIZE)
def curve_invariants(H: SubgroupImage) -> CurveInvariants:
    mu = psl_index(H)
    nu_inf = cusp_count(H)
    ell = elliptic_counts(H)
    g12, rem = divmod(12 + mu - 3 * ell.nu2 - 4 * ell.nu3 - 6 * nu_inf, 12)
    if rem:
        raise AssertionError("internal: genus formula did not give an integer")
    return CurveInvariants(mu, nu_inf, ell.nu2, ell.nu3, g12)


@lru_cache(maxsize=_CACHE_SIZE)
def tilde_subgroup(H: SubgroupImage) -> SubgroupImage:
    """The image generated by every elliptic element of <H, -I>, signed into
    H, with -I adjoined when H contains it and there is something to adjoin
    it to.  No elliptic elements, which elliptic counts of zero show without
    the level's classes, means the trivial image.  Otherwise one closure of
    them in key order builds it, and it is H itself when its order is |H|."""
    n = H.level
    if elliptic_counts(H) == EllipticData(0, 0):
        return H if H.order == 1 else closure(n, [])
    elliptic = set().union(*_elliptic_classes(n))
    signed = elliptic & H.elements
    if not H.contains_minus_i:  # key in H and -key in H cannot both hold
        signed |= H.elements.intersection(_negated(n, elliptic))
    elems = [_mat(n, key) for key in sorted(signed)]
    if H.contains_minus_i:
        elems.append(Mat(n, n - 1, 0, 0, n - 1))  # -I
    tilde = closure(n, elems)
    return H if tilde.order == H.order else tilde


def forces_three_cusps(G: SubgroupImage) -> bool:
    """Sufficient order test: 4|G| < N^2 prod_{q|N}(1 - q^-2) forces the curve
    of G to have at least three cusps (each +-G orbit has at most 2|G| of the
    N^2 prod (1 - q^-2) unimodular vectors)."""
    n = G.level
    rad = 1
    for q in prime_factors(n):
        rad *= q
    rhs = (n // rad) ** 2
    for q in prime_factors(n):
        rhs *= q * q - 1
    return 4 * len(G.elements) < rhs


def applicability(H: SubgroupImage) -> Applicability:
    """Which bound route applies: the subgroup's own curve having >= 3 cusps,
    the elliptic-stabilizer subgroup's curve having >= 3 cusps, or neither."""
    inv = curve_invariants(H)
    tilde = tilde_subgroup(H)
    tinv = curve_invariants(tilde)
    crit = forces_three_cusps(tilde)
    if inv.nu_inf >= 3:
        verdict = Verdict.MAIN_DIRECT
    elif tinv.nu_inf >= 3:
        verdict = Verdict.MAIN_VIA_TILDE
    else:
        verdict = Verdict.INAPPLICABLE
    return Applicability(verdict, inv, tilde, tinv, crit)


def verify_unramified(H: SubgroupImage, G: SubgroupImage) -> bool:
    """True when the covering of curves attached to G inside <H, -I> is
    unramified away from the cusps: every conjugate of s or t that lands in
    <H, -I> must already land in <G, -I>."""
    if H.level != G.level:
        raise ValueError("subgroups must share a level")
    hpm = pm_elements(H)
    gpm = pm_elements(G)
    if not gpm <= hpm:
        raise ValueError("G is not contained in <H, -I>")
    return all(cls & hpm <= gpm for cls in _elliptic_classes(H.level))
