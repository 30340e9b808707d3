"""Invariants of the curve attached to a congruence subgroup, and the
route decision for the height-bound theorems.

A subgroup is handled through its image H in SL2(Z/N).  Cusps are orbits of
<H, -I> on unimodular column vectors, counted by Burnside from the vectors
each element fixes, a closed form over the prime powers of N.  Elliptic
points come from the conjugacy classes Cl(s) and Cl(t) of the order-4
element s = [[0,-1],[1,0]] and the order-3 element t = [[0,-1],[1,-1]],
which are never built: x lies in Cl(s) exactly when tr x = 0 mod N and
x mod gcd(N, 4) lies in the class of s there, and in Cl(t) exactly when
tr x = -1 mod N and x mod gcd(N, 3) lies in the class of t there.  The
elements g with g s g^-1 in <H, -I> number
|C(s)| |Cl(s) & <H, -I>|, with the centralizer order |C(s)| a closed form
over the prime powers of N, so nu2 = |C(s)| |Cl(s) & <H, -I>| / |<H, -I>|,
and nu3 likewise with t.  The genus follows from the exact integer identity
12(g-1) = mu - 3*nu2 - 4*nu3 - 6*nuInf.  The curve only depends on
<H, -I>, and all counts are taken there.

All three counts come from one scan of elements, taken one prime power at a
time when H splits, in curve_invariants, also named elliptic_counts.  SL2(Z/N)
is the product of the SL2(Z/q) over the prime powers q || N, and H lies in
the product of its images H_q mod q; it equals that product exactly when
|H| = prod |H_q|.  The q come from numtheory._prime_powers, the one
factorization of a level, and every closed form here is a product over it.
Every H_q comes from sl2n._reduce_mod: Gamma0, Gamma1 and SL2 are the same
description at q, and any other image closes its generators mod q.  Then
fixed vectors and conjugacy classes factor too, and one scan of a factor F's
elements x gives A_F, the vectors fixed by each x summed over F, and B_F,
those fixed by each -x, with x_F = |Cl(s_F) & F| and y_F = |Cl(s_F) & -F|:

    nuInf = (prod A_F + prod B_F) / (2 |H|),
    nu2   = |C(s)| (prod x_F + prod y_F) / (2 |H|),

and nu3 likewise with t, whether or not H holds -I.  An image that does not
split, or a prime-power level, has the one factor H, and the same formulas
are then the counts at level N.  The classical families always split, and so
do many tildes and --gens images.  A scan visits only the elements whose
trace can count: det(x - I) = 2 - tr x vanishes mod each q || N when x fixes
a unimodular vector, so only tr x = 2 mod N adds to A_F (-2 to B_F), and
Cl(s) and Cl(t) need tr x = 0 and -1.  As x^2 = -I when tr x = 0 and
x^3 = -I when tr x = 1 (Cayley-Hamilton), an image without -I has no element
of either trace, so it meets -Cl(s) and -Cl(t) nowhere.  sl2n._trace_hits
yields those elements: Gamma0 and Gamma1 list them from their definitions,
and any other image decodes only its keys of a wanted trace.

The "tilde" subgroup is the subgroup generated by every elliptic element of
<H, -I>, that is by (Cl(s) u Cl(t)) & <H, -I>, which by the above lies in H,
and by -I when H contains it and there is an elliptic element.
It is normal in H, and its curve covers that of H unramified away from the
cusps (Bilu, "Baker's method and modular curves", 2002); verify_unramified
checks this as tilde(H) <= <G, -I>, which, as <G, -I> is a group holding -I,
says (Cl(s) u Cl(t)) & <H, -I> <= <G, -I>.  Each tilde is one
closure of those elements in key order at level N, or H itself when they
agree or H is SL2(Z/N); when the elliptic counts are zero it is the trivial
image, and no key of level N is tested.

Gamma(N) is the trivial closure.  SL2(Z/N) stores no keys: every count of
it is read from |SL2(Z/N)|.  Gamma0 and Gamma1 store no keys either: their
orders, -I membership and trace hits follow from their definitions, and
their elements are written down only when read.  The generators are T for
Gamma1(N), T and each diag(u, u^-1) whose u enlarges the units kept, picked
in (Z/N)^*, for Gamma0(N), and S and T for SL2(Z/N).  applicability reads
the invariants of H and of its tilde once, through the cached
curve_invariants, and returns both, so callers never count cusps themselves.
Each of the three caches keeps its 64 most recent entries, and no other
place holds an image.  Every level is admitted by sl2n._admit_level, which
refuses one below 2 or whose |SL2(Z/N)| exceeds sl2n.ENUMERATION_CAP, as it
reads at that call, before any key is made.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod

from .numtheory import _prime_powers, sl2_order
from .sl2n import (Mat, SubgroupImage, _admit_level, _reduce_mod, _trace_hits, _units, closure,
                   pm_elements)

_CACHE_SIZE = 64  # a bound-grid pass meets 47 images; a tables row needs two


class SubgroupKind(str, enum.Enum):
    GAMMA0 = "gamma0"       # upper triangular mod N
    GAMMA1 = "gamma1"       # upper triangular with unit diagonal entries = 1
    PRINCIPAL = "gamma"     # the trivial image (kernel of reduction)
    FULL = "full"           # all of SL2(Z/N)


class Verdict(str, enum.Enum):
    MAIN_DIRECT = "MainDirect"          # the subgroup's curve has >= 3 cusps
    MAIN_VIA_TILDE = "MainViaTilde"     # the elliptic-stabilizer subgroup's curve does
    INAPPLICABLE = "Inapplicable"       # neither curve has 3 cusps


class InapplicableError(RuntimeError):
    """Neither bound route applies; carries both cusp counts for diagnosis.

    ``bounds.bound_auto`` raises it, and ``bounds`` re-exports it; it lives
    next to ``Verdict`` so a caller can catch it without loading mpmath."""

    def __init__(self, subgroup_cusps: int, tilde_cusps: int):
        self.subgroup_cusps = subgroup_cusps
        self.tilde_cusps = tilde_cusps
        super().__init__(
            "no bound route applies: the subgroup's curve has "
            f"{subgroup_cusps} cusp(s) and its elliptic-stabilizer subgroup's "
            f"curve has {tilde_cusps} cusp(s); at least three are required")


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
class Applicability:
    verdict: Verdict
    invariants: CurveInvariants
    tilde_image: SubgroupImage
    tilde_invariants: CurveInvariants
    sufficient_criterion_holds: bool


@lru_cache(maxsize=_CACHE_SIZE)
def standard_subgroup(kind: SubgroupKind | str, n: int) -> SubgroupImage:
    """The image of a classical family at level n.  Gamma0, Gamma1 and
    SL2(Z/N) are described, not written down: they hold no keys, and their
    orders and trace hits follow from their definitions.  Gamma(N) is
    closure(n, []).  A level above the cap is refused before a key is made."""
    kind = SubgroupKind(kind)
    if kind is SubgroupKind.PRINCIPAL:
        return closure(n, [])
    _admit_level(n)  # and a level below 2 is a ValueError
    t = Mat(n, 1, 1, 0, 1)
    if kind is SubgroupKind.FULL:
        return SubgroupImage(n, None, (Mat(n, 0, n - 1, 1, 0), t))
    gens = [t]  # Gamma1(N): [[1, b], [0, 1]]
    if kind is SubgroupKind.GAMMA0:  # [[u, b], [0, u^-1]]
        # diag(u, u^-1) enlarges <T, kept> exactly when u enlarges <kept units>
        sub = {1}
        for u, v in _units(n):
            if u not in sub:
                gens.append(Mat(n, u, 0, 0, v))
                power, grown = u, set(sub)
                while power not in sub:  # <sub, u> is the union of the cosets sub u^k
                    grown |= {s * power % n for s in sub}
                    power = power * u % n
                sub = grown
    return SubgroupImage(n, kind.value, tuple(gens))


def _factors(H: SubgroupImage) -> tuple[SubgroupImage, ...]:
    """The images H_q of H mod each prime power q || N when H is their
    direct product, which holds exactly when |H| = prod |H_q|; else (H,).
    Each H_q is sl2n._reduce_mod(H, q)."""
    qs = _prime_powers(H.level)
    if len(qs) == 1:
        return (H,)
    local = tuple(_reduce_mod(H, q) for _p, q in qs)
    return local if prod(F.order for F in local) == H.order else (H,)


# The classes of s mod 2, s mod 4 and t mod 3, the only moduli at which a
# trace does not decide the class; 2 and 4 serve s alone, 3 serves t alone.
_SMALL_CLASSES = {
    2: frozenset({(0, 1, 1, 0), (1, 0, 1, 1), (1, 1, 0, 1)}),
    4: frozenset({(0, 3, 1, 0), (1, 2, 1, 3), (1, 3, 2, 3),
                  (2, 3, 1, 2), (3, 2, 1, 1), (3, 3, 2, 1)}),
    3: frozenset({(0, 2, 1, 2), (1, 0, 1, 1), (1, 2, 0, 1), (2, 2, 1, 0)}),
}


def _is_elliptic(n: int, k: int, a: int, b: int, c: int, d: int) -> bool:
    """True when [[a, b], [c, d]] (entries taken mod n) lies in the class of
    s (k = 0) or t (k = 1) in SL2(Z/n): its trace is -k mod n and, with
    m = gcd(n, 4 - k), it lies in the class of s or t mod m."""
    if (a + d + k) % n:
        return False
    m = gcd(n, 4 - k)
    return m == 1 or (a % m, b % m, c % m, d % m) in _SMALL_CLASSES[m]


def _centralizer_order(n: int, k: int) -> int:
    """|C| = |SL2(Z/n)| / |Cl| for s (k = 0) or t (k = 1): over p^e || n,
    p^(e-1) (p - (-4|p)) for s, doubled when 4 | p^e, and p^(e-1) (p - (-3|p))
    for t, doubled when 3 | p^e."""
    m = 4 - k
    out = 1
    for p, q in _prime_powers(n):
        symbol = 0 if m % p == 0 else 1 if p % m == 1 else -1
        out *= q // p * (p - symbol) * (2 if q % m == 0 else 1)
    return out


def _fixed(qs: tuple[tuple[int, int], ...], a: int, b: int, c: int, d: int) -> int:
    """The unimodular vectors v with x v = v, x = [[a, b], [c, d]], at the
    level whose prime powers are qs: over each q = p^e, with p^f the gcd of
    the entries of x - I and q, all q^2 - (q/p)^2 of them when f = e, else
    p^f phi(q) when q p^f divides det(x - I), else none."""
    out, a, d = 1, a - 1, d - 1
    for p, q in qs:
        pf = gcd(a, b, c, d, q)
        if pf == q:
            out *= q * q - (q // p) ** 2
        elif (a * d - b * c) % (q * pf):
            return 0
        else:
            out *= pf * (q - q // p)
    return out


def _local_counts(F: SubgroupImage) -> tuple[tuple[int, int], ...]:
    """Three (inside, negated) pairs from one scan of F's elements x: the
    vectors fixed by x and by -x, summed over F; |Cl(s) & F| and
    |Cl(s) & -F|; and likewise t.  Only elements of trace 2, 0 or -1 mod n
    add to the first of each pair, and only those of trace -2 to the second,
    since |Cl & -F| = 0 when -I is not in F; only they are visited.  All of
    SL2(Z/n), one orbit, gives |G| fixed vectors and meets each class in
    |G| / |C| elements."""
    n, signed = F.level, not F.contains_minus_i
    if F.order == sl2_order(n):
        return ((F.order,) * 2, *((F.order // _centralizer_order(n, k),) * 2 for k in range(2)))
    qs = _prime_powers(n)
    inside, negated = [0, 0, 0], [0, 0, 0]
    for a, b, c, d in _trace_hits(F, (2, 0, -1, -2) if signed else (2, 0, -1)):
        if (a + d - 2) % n == 0:
            inside[0] += _fixed(qs, a, b, c, d)
        if signed and (a + d + 2) % n == 0:
            negated[0] += _fixed(qs, -a, -b, -c, -d)
        for k in range(2):
            inside[k + 1] += _is_elliptic(n, k, a, b, c, d)
    return tuple(zip(inside, negated if signed else inside))  # -F = F when -I is in F


def _counts(H: SubgroupImage) -> tuple[int, int, int]:
    """nuInf, nu2 and nu3 of H from one scan of each factor F of H.

    By Burnside the cusps, the orbits of <H, -I> on column vectors (a; c)
    with gcd(a, c, N) = 1, number the vectors fixed by each element of
    <H, -I>, summed and divided by |<H, -I>|.  The g in SL2(Z/N) with
    g s g^-1 in <H, -I> number |C(s)| |Cl(s) & <H, -I>|, and dividing by
    |<H, -I>| counts the elliptic cosets over j=1728; likewise t over j=0.
    Fixed vectors and classes factor like H, so each count is
    scale (prod x_F + prod y_F) / (2 |H|), with (x_F, y_F) one pair of F's
    local counts and scale 1, |C(s)| or |C(t)|, whether or not H holds -I
    (when it does, x_F = y_F and <H, -I> = H)."""
    n = H.level
    inside, negated = [1, 1, 1], [1, 1, 1]
    for F in _factors(H):
        for j, (x, y) in enumerate(_local_counts(F)):
            inside[j] *= x
            negated[j] *= y
    counts = []
    for scale, x, y in zip((1, _centralizer_order(n, 0), _centralizer_order(n, 1)),
                           inside, negated):
        count, rem = divmod(scale * (x + y), 2 * H.order)
        if rem:
            raise AssertionError("internal: a count of H is not an integer")
        counts.append(count)
    return tuple(counts)


def psl_index(H: SubgroupImage) -> int:
    """mu: the index of the +-1 image of H in the +-1 quotient of SL2(Z/N)."""
    pm_order = H.order if H.contains_minus_i else 2 * H.order
    mu, rem = divmod(sl2_order(H.level), pm_order)
    if rem:
        raise AssertionError("internal: subgroup order does not divide the group order")
    return mu


@lru_cache(maxsize=_CACHE_SIZE)
def curve_invariants(H: SubgroupImage) -> CurveInvariants:
    """mu, nuInf, nu2, nu3 and the genus of the curve of H, from one scan of
    each factor of H.  elliptic_counts is another name for this function,
    read for nu2 over j=1728 and nu3 over j=0; the two share one cache."""
    mu = psl_index(H)
    nu_inf, nu2, nu3 = _counts(H)
    g12, rem = divmod(12 + mu - 3 * nu2 - 4 * nu3 - 6 * nu_inf, 12)
    if rem:
        raise AssertionError("internal: genus formula did not give an integer")
    return CurveInvariants(mu, nu_inf, nu2, nu3, g12)


elliptic_counts = curve_invariants


@lru_cache(maxsize=_CACHE_SIZE)
def tilde_subgroup(H: SubgroupImage) -> SubgroupImage:
    """The image generated by every elliptic element of <H, -I>, each of
    which lies in H, with -I adjoined when H contains it and there is
    something to adjoin it to.  No elliptic elements, which elliptic counts
    of zero show without testing a key of level N, means the trivial image.
    All of SL2(Z/N) is its own tilde, since s and t generate SL2(Z).
    Otherwise one closure of them in key order builds it, and it is H itself
    when its order is |H|."""
    n = H.level
    inv = curve_invariants(H)
    if inv.nu2 == inv.nu3 == 0:
        return H if H.order == 1 else closure(n, [])
    if H.order == sl2_order(n):
        return H
    elems = sorted(Mat(n, a, b, c, d) for a, b, c, d in _trace_hits(H, (0, -1))
                   if _is_elliptic(n, 0, a, b, c, d) or _is_elliptic(n, 1, a, b, c, d))
    if H.contains_minus_i:
        elems.append(Mat(n, n - 1, 0, 0, n - 1))  # -I
    tilde = closure(n, elems)
    return H if tilde.order == H.order else tilde


def forces_three_cusps(G: SubgroupImage) -> bool:
    """Sufficient order test: 4|G| < N^2 prod_{q|N}(1 - q^-2) forces the curve
    of G to have at least three cusps (each +-G orbit has at most 2|G| of the
    N^2 prod (1 - q^-2) unimodular vectors).  That count is |SL2(Z/N)| / N, so
    the test is 4 |G| N < |SL2(Z/N)|."""
    return 4 * G.order * G.level < sl2_order(G.level)


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
    <H, -I> must already land in <G, -I>, that is, since <G, -I> is a group
    holding -I, the tilde of H must lie in it."""
    if H.level != G.level:
        raise ValueError("subgroups must share a level")
    gpm = pm_elements(G)
    if not gpm <= pm_elements(H):
        raise ValueError("G is not contained in <H, -I>")
    return tilde_subgroup(H).elements <= gpm
