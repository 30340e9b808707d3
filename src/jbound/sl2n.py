"""Exact arithmetic, enumeration, and subgroup closure in SL2(Z/N).

A subgroup's element set is a frozenset of packed keys: [[a, b], [c, d]]
with entries in [0, N) is ((a*N + b)*N + c)*N + d, so sorted keys follow
sorted ``Mat`` tuples, and the level is stored once, on the image.  ``Mat``
is for generators and input.  Element sets are compared by content, so
subgroup equality never depends on how a subgroup was generated.
Enumeration walks unimodular first columns (a, c) with gcd(a, c, N) = 1 and
sweeps the N completions of each, which makes the order formula an actual
counting argument rather than a filter.  No routine of the package sweeps
the whole group: subgroups, SL2(Z/N) included, are built by closing
generators, and enumeration serves as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator, NamedTuple

from .numtheory import sl2_order, xgcd

ENUMERATION_CAP = 10_000_000


class CapExceeded(RuntimeError):
    """|SL2(Z/N)| exceeds the cap; ``closure`` refuses such a level before any work."""


class Mat(NamedTuple):
    """A matrix [[a, b], [c, d]] over Z/n with determinant 1."""

    n: int
    a: int
    b: int
    c: int
    d: int

    @staticmethod
    def make(n: int, a: int, b: int, c: int, d: int) -> "Mat":
        """Validating constructor: reduces entries mod n and checks det = 1."""
        if n < 2:
            raise ValueError(f"level must be >= 2, got {n}")
        a, b, c, d = a % n, b % n, c % n, d % n
        if (a * d - b * c) % n != 1:
            raise ValueError(f"determinant is not 1 mod {n}: [[{a},{b}],[{c},{d}]]")
        return Mat(n, a, b, c, d)


@lru_cache(maxsize=None)
def identity(n: int) -> Mat:
    return Mat(n, 1, 0, 0, 1)


@lru_cache(maxsize=None)
def minus_identity(n: int) -> Mat:
    return Mat(n, (n - 1) % n, 0, 0, (n - 1) % n)


def mat_mul(x: Mat, y: Mat) -> Mat:
    if x.n != y.n:
        raise ValueError(f"level mismatch: {x.n} vs {y.n}")
    n = x.n
    return Mat(n,
               (x.a * y.a + x.b * y.c) % n,
               (x.a * y.b + x.b * y.d) % n,
               (x.c * y.a + x.d * y.c) % n,
               (x.c * y.b + x.d * y.d) % n)


def mat_inv(m: Mat) -> Mat:
    n = m.n
    return Mat(n, m.d % n, (-m.b) % n, (-m.c) % n, m.a % n)


def mat_neg(m: Mat) -> Mat:
    n = m.n
    return Mat(n, (-m.a) % n, (-m.b) % n, (-m.c) % n, (-m.d) % n)


def group_order(n: int) -> int:
    """|SL2(Z/n)| as an exact integer."""
    if n < 2:
        raise ValueError(f"level must be >= 2, got {n}")
    return sl2_order(n)


def iter_group(n: int) -> Iterator[Mat]:
    """All of SL2(Z/n) as Mat values, in a fixed deterministic order."""
    for a in range(n):
        for c in range(n):
            if gcd(gcd(a, c), n) != 1:
                continue
            g, x, y = xgcd(a, c)  # a*x + c*y = g with gcd(g, n) = 1
            ginv = pow(g, -1, n)
            b, d = (-y * ginv) % n, (x * ginv) % n  # a*d - c*b = 1
            for _ in range(n):
                yield Mat(n, a, b, c, d)
                b = (b + a) % n
                d = (d + c) % n


def _admit_level(n: int, cap: int) -> None:
    # |SL2(Z/n)| > (6/pi^2) n^3 > n^3 / 2, so n^3 > 2 cap refuses n before factoring it
    if n ** 3 > 2 * cap or group_order(n) > cap:
        raise CapExceeded(f"|SL2(Z/{n})| exceeds the cap {cap}")


def enumerate_group(n: int, cap: int = ENUMERATION_CAP) -> frozenset[Mat]:
    """The full element set of SL2(Z/n); refuses when the order exceeds the cap."""
    _admit_level(n, cap)
    return frozenset(iter_group(n))


def _key(m: Mat) -> int:
    n = m.n
    return ((m.a * n + m.b) * n + m.c) * n + m.d


def _mat(n: int, key: int) -> Mat:
    ab, cd = divmod(key, n * n)
    return Mat(n, *divmod(ab, n), *divmod(cd, n))


@dataclass(frozen=True, eq=False)
class SubgroupImage:
    """A subgroup of SL2(Z/N) by its element set, a frozenset of packed keys.

    The ``Mat`` values in ``generators`` always generate ``elements`` (the
    builders enforce it); equality and hashing look only at (level,
    elements), never at the particular generating set.
    """

    level: int
    elements: frozenset[int]
    generators: tuple
    contains_minus_i: bool

    def __post_init__(self) -> None:
        if self.level ** 3 + 1 not in self.elements:  # the key of I
            raise ValueError("subgroup must contain the identity")

    def __eq__(self, other) -> bool:
        return (isinstance(other, SubgroupImage)
                and self.level == other.level
                and self.elements == other.elements)

    def __hash__(self) -> int:
        return hash((self.level, self.elements))

    def __repr__(self) -> str:
        return (f"SubgroupImage(level={self.level}, order={len(self.elements)}, "
                f"generators={len(self.generators)}, minus_i={self.contains_minus_i})")

    @property
    def order(self) -> int:
        return len(self.elements)

    @staticmethod
    def from_elements(level: int, elements: Iterable[Mat],
                      generators: Iterable[Mat] | None = None) -> "SubgroupImage":
        """Build from a known element set; extracts generators greedily if absent
        and always verifies that the generators close to exactly this set."""
        elems = frozenset(elements)
        for m in elems:
            if not isinstance(m, Mat) or m.n != level or m != Mat.make(*m):
                raise ValueError(f"not a reduced element at level {level}: {m!r}")
        sub = (greedy_closure(level, sorted(elems)) if generators is None
               else closure(level, generators))
        if sub.elements != frozenset(map(_key, elems)):
            raise ValueError("generators do not generate the element set")
        return sub


def closure(n: int, gens: Iterable[Mat], cap: int = ENUMERATION_CAP) -> SubgroupImage:
    """Smallest multiplicatively closed set containing the generators and I.

    Breadth-first over right multiplication, on packed keys; in a finite
    group this closure is automatically a subgroup (inverses are powers).
    """
    _admit_level(n, cap)
    gen_list = tuple(Mat.make(*g) for g in gens)
    for g in gen_list:
        if g.n != n:
            raise ValueError(f"generator at wrong level: {g!r}")
    n2 = n * n
    ident = n2 * n + 1
    seen = {ident}
    queue = [ident]
    for key in queue:
        ab, cd = divmod(key, n2)
        a, b = divmod(ab, n)
        c, d = divmod(cd, n)
        for _, e, f, g, h in gen_list:  # key * g
            nxt = ((((a * e + b * g) % n * n + (a * f + b * h) % n) * n
                    + (c * e + d * g) % n) * n + (c * f + d * h) % n)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    del queue  # it holds every key again; free it before the set is copied
    # -I packs to (n-1)*n^3 + (n-1)
    return SubgroupImage(n, frozenset(seen), gen_list, (n - 1) * ident in seen)


def greedy_closure(level: int, elems: Iterable[Mat]) -> SubgroupImage:
    """The subgroup that ``elems`` generate: scan them lazily, in the given
    order, closing again at each one not yet generated.  The result's
    ``generators`` are the elements kept, a small generating set."""
    gens, sub, current = [], None, {level ** 3 + 1}  # the key of I
    for e in elems:
        if _key(e) not in current:
            gens.append(e)
            sub = closure(level, gens)
            current = sub.elements
    return closure(level, []) if sub is None else sub


def element_order(m: Mat) -> int:
    """Least k >= 1 with m^k = I."""
    ident = identity(m.n)
    cur = m
    k = 1
    while cur != ident:
        cur = mat_mul(cur, m)
        k += 1
    return k


def pm_elements(H: SubgroupImage) -> frozenset[int]:
    """The element set of <H, -I>, packed."""
    if H.contains_minus_i:
        return H.elements
    return H.elements | frozenset(_key(mat_neg(_mat(H.level, key))) for key in H.elements)
