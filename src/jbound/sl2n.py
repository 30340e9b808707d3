"""Exact arithmetic, enumeration, and subgroup closure in SL2(Z/N).

Matrices are stored with entries reduced to [0, N); element sets are frozen
and compared by content, so subgroup equality never depends on how a
subgroup was generated.  Enumeration walks unimodular first columns (a, c)
with gcd(a, c, N) = 1 and sweeps the N completions of each, which makes the
order formula an actual counting argument rather than a filter.  No routine
of the package sweeps the whole group: subgroups, SL2(Z/N) included, are
built by closing generators, and enumeration serves as a reference.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator, NamedTuple

from .numtheory import sl2_order, xgcd

ENUMERATION_CAP = 10_000_000


class CapExceeded(RuntimeError):
    """An operation would enumerate more group elements than the configured cap."""


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


def _first_column_completion(n: int, a: int, c: int) -> tuple[int, int]:
    """Some (b0, d0) with a*d0 - c*b0 = 1 mod n, for gcd(a, c, n) = 1."""
    g, x, y = xgcd(a, c)  # a*x + c*y = g with gcd(g, n) = 1
    ginv = pow(g, -1, n)
    return (-y * ginv) % n, (x * ginv) % n


def iter_group(n: int) -> Iterator[Mat]:
    """All of SL2(Z/n) as Mat values, in a fixed deterministic order."""
    for a in range(n):
        for c in range(n):
            if gcd(gcd(a, c), n) != 1:
                continue
            b, d = _first_column_completion(n, a, c)
            for _ in range(n):
                yield Mat(n, a, b, c, d)
                b = (b + a) % n
                d = (d + c) % n


def enumerate_group(n: int, cap: int = ENUMERATION_CAP) -> frozenset[Mat]:
    """The full element set of SL2(Z/n); refuses when the order exceeds the cap."""
    order = group_order(n)
    if order > cap:
        raise CapExceeded(f"|SL2(Z/{n})| = {order} exceeds the cap {cap}")
    return frozenset(iter_group(n))


@dataclass(frozen=True, eq=False)
class SubgroupImage:
    """A subgroup of SL2(Z/N) by its element set.

    ``generators`` always generate ``elements`` (the builders enforce it);
    equality and hashing look only at (level, elements), never at the
    particular generating set.
    """

    level: int
    elements: frozenset
    generators: tuple
    contains_minus_i: bool

    def __post_init__(self) -> None:
        if identity(self.level) not in self.elements:
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
            if not isinstance(m, Mat) or m.n != level:
                raise ValueError(f"element at wrong level: {m!r}")
        gens = tuple(generators) if generators is not None else greedy_generators(level, elems)
        sub = closure(level, gens)
        if sub.elements != elems:
            raise ValueError("generators do not generate the element set")
        return sub


def closure(n: int, gens: Iterable[Mat], cap: int = ENUMERATION_CAP) -> SubgroupImage:
    """Smallest multiplicatively closed set containing the generators and I.

    Breadth-first over right multiplication; in a finite group this closure
    is automatically a subgroup (inverses are powers).
    """
    gen_list = []
    for g in gens:
        if g.n != n:
            raise ValueError(f"generator at wrong level: {g!r}")
        gen_list.append(Mat.make(g.n, g.a, g.b, g.c, g.d))
    gen_entries = [(g.a, g.b, g.c, g.d) for g in gen_list]
    ident = identity(n)
    seen = {ident}
    queue = deque([ident])
    while queue:
        _, a, b, c, d = queue.popleft()
        for e, f, g, h in gen_entries:  # cur * g, as mat_mul without its level check
            nxt = Mat(n, (a * e + b * g) % n, (a * f + b * h) % n,
                      (c * e + d * g) % n, (c * f + d * h) % n)
            if nxt not in seen:
                if len(seen) >= cap:
                    raise CapExceeded(
                        f"subgroup closure at level {n} exceeds the cap {cap}")
                seen.add(nxt)
                queue.append(nxt)
    return SubgroupImage(n, frozenset(seen), tuple(gen_list),
                         minus_identity(n) in seen)


def greedy_generators(level: int, elems: frozenset) -> tuple:
    """A deterministic small generating set of the subgroup that ``elems``
    generate: scan them in sorted order and keep those not yet generated."""
    gens: list[Mat] = []
    current = {identity(level)}
    for e in sorted(elems):
        if e not in current:
            gens.append(e)
            current = set(closure(level, gens).elements)
    return tuple(gens)


def element_order(m: Mat) -> int:
    """Least k >= 1 with m^k = I."""
    ident = identity(m.n)
    cur = m
    k = 1
    while cur != ident:
        cur = mat_mul(cur, m)
        k += 1
    return k


def pm_elements(H: SubgroupImage) -> frozenset:
    """The element set of <H, -I>."""
    if H.contains_minus_i:
        return H.elements
    return H.elements | frozenset(mat_neg(m) for m in H.elements)
