"""Enumeration and subgroup closure in SL2(Z/N), on packed keys.

A subgroup's keys are a frozenset of packed keys, None for all of SL2(Z/N),
or the name of the family "gamma0" or "gamma1" for Gamma0(N) or Gamma1(N):
[[a, b], [c, d]] with entries in [0, N) is ((a*N + b)*N + c)*N + d, so
sorted keys follow sorted ``Mat`` tuples, and the level is stored once, on
the image.  ``Mat`` is validated input only, for generators; products are
taken on keys inside ``closure``.  Images are compared by content, so
subgroup equality never depends on how a subgroup was generated or stored.
A described image is written down only when its ``elements`` are read, and
kept by no one: ``_group_keys`` walks unimodular first columns (a, c) with
gcd(a, c, N) = 1 and sweeps the N completions of each, which makes the order
formula an actual counting argument rather than a filter; ``_family_keys``
writes [[u, b], [0, u^-1]] over the units u (u = 1 alone for Gamma1) and
every b, and checks the count against the family's exact order.
An image other than Gamma0, Gamma1 or SL2 is built by the lazy ``closure``.
Only this module reads how an image is stored: ``_trace_hits`` yields the
elements of chosen traces and ``_reduce_mod`` the image mod q | N.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd
from typing import Iterable, Iterator, NamedTuple

from .numtheory import euler_phi, sl2_order, xgcd

ENUMERATION_CAP = 10_000_000


class CapExceeded(RuntimeError):
    """|SL2(Z/N)| exceeds ``ENUMERATION_CAP``, which is read each time a level
    is admitted; ``closure`` refuses such a level before any work."""


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


def _group_keys(n: int) -> Iterator[int]:
    """Every key of SL2(Z/n), in a fixed deterministic order."""
    for a in range(n):
        for c in range(n):
            if gcd(gcd(a, c), n) != 1:
                continue
            g, x, y = xgcd(a, c)  # a*x + c*y = g with gcd(g, n) = 1
            ginv = pow(g, -1, n)
            b, d = (-y * ginv) % n, (x * ginv) % n  # a*d - c*b = 1
            for _ in range(n):
                yield ((a * n + b) * n + c) * n + d
                b = (b + a) % n
                d = (d + c) % n


def _units(n: int) -> list[tuple[int, int]]:
    """(u, u^-1) for each unit u of Z/n, in increasing order of u."""
    return [(u, pow(u, -1, n)) for u in range(1, n) if gcd(u, n) == 1]


def _diagonal(H: "SubgroupImage") -> list[tuple[int, int]]:
    """(u, u^-1) for each u on the diagonal of the described family H:
    every unit for Gamma0, u = 1 alone for Gamma1."""
    return _units(H.level) if H.keys == "gamma0" else [(1, 1)]


def _family_keys(H: "SubgroupImage") -> frozenset[int]:
    """Every key of the described family H, [[u, b], [0, u^-1]] over its
    diagonal units u and every b, checked against its exact order."""
    n = H.level
    n2, n3 = n * n, n ** 3
    keys = set(chain.from_iterable(range(u * n3 + v, (u + 1) * n3, n2) for u, v in _diagonal(H)))
    if len(keys) != H.order:
        raise AssertionError(f"internal: {H.keys} keys give the wrong order")
    return frozenset(keys)  # a frozenset copied from a set keeps a smaller table


def _admit_level(n: int) -> None:
    if n < 2:
        raise ValueError(f"level must be >= 2, got {n}")
    # |SL2(Z/n)| > (6/pi^2) n^3 > n^3 / 2, so n^3 > 2 cap refuses n before factoring it
    if n ** 3 > 2 * ENUMERATION_CAP or sl2_order(n) > ENUMERATION_CAP:
        raise CapExceeded(f"|SL2(Z/{n})| exceeds the cap {ENUMERATION_CAP}")


def enumerate_group(n: int) -> frozenset[Mat]:
    """The full element set of SL2(Z/n); refuses when the order exceeds the cap."""
    _admit_level(n)
    return frozenset(Mat(n, *m) for m in _entries(n, _group_keys(n)))


def _key(m: Mat) -> int:
    n = m.n
    return ((m.a * n + m.b) * n + m.c) * n + m.d


_FAMILIES = ("gamma0", "gamma1")


@dataclass(frozen=True, eq=False)
class SubgroupImage:
    """A subgroup of SL2(Z/N) by its keys: a frozenset of packed keys, or a
    description that holds none, ``None`` for all of SL2(Z/N) and "gamma0" or
    "gamma1" for Gamma0(N) or Gamma1(N).  A described image's ``elements``
    are written down at each read and never kept; its order and -I
    membership are formulas.

    The ``Mat`` values in ``generators`` always generate the subgroup
    (``closure`` keeps only those).  Equality is by content: images at one
    level with the same keys are equal, two key sets that differ are not, and
    otherwise the orders and then the element sets are compared, so a
    closure equals the family image it reaches.  The hash is (level, order).
    """

    level: int
    keys: frozenset[int] | str | None
    generators: tuple

    def __post_init__(self) -> None:
        if isinstance(self.keys, str):
            if self.keys not in _FAMILIES:
                raise ValueError(f"unknown family {self.keys!r}; expected one of {_FAMILIES}")
        elif self.keys is not None and self.level ** 3 + 1 not in self.keys:  # the key of I
            raise ValueError("subgroup must contain the identity")

    def __repr__(self) -> str:
        return (f"SubgroupImage(level={self.level}, order={self.order}, "
                f"generators={len(self.generators)}, minus_i={self.contains_minus_i})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubgroupImage):
            return NotImplemented
        if self.level != other.level:
            return False
        if self.keys == other.keys:
            return True
        if isinstance(self.keys, frozenset) and isinstance(other.keys, frozenset):
            return False
        return self.order == other.order and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((self.level, self.order))

    @property
    def elements(self) -> frozenset[int]:
        if self.keys is None:
            return frozenset(_group_keys(self.level))
        return _family_keys(self) if isinstance(self.keys, str) else self.keys

    @property
    def order(self) -> int:
        n = self.level
        if self.keys is None:
            return sl2_order(n)
        if isinstance(self.keys, str):
            return n * euler_phi(n) if self.keys == "gamma0" else n
        return len(self.keys)

    @property
    def contains_minus_i(self) -> bool:
        n = self.level  # -I packs to (n-1)*n^3 + (n-1)
        if self.keys is None or self.keys == "gamma0":
            return True
        if self.keys == "gamma1":
            return n == 2
        return (n - 1) * (n ** 3 + 1) in self.keys


def closure(n: int, gens: Iterable[Mat]) -> SubgroupImage:
    """The subgroup that the generators generate, on packed keys.

    The generators are read lazily, in order, once the level is admitted.  One
    already in the set is skipped; a new one multiplies the keys found so far,
    and each key that appears meets every kept generator, breadth-first.  So
    each element meets each kept generator once, and ``generators`` is the
    kept subsequence (in a finite group, inverses are powers).  Once the set
    passes half of |SL2(Z/n)|, the subgroup it lies in is, by Lagrange, all of
    SL2(Z/n): the closure stops there and stores no keys.  Later generators
    are still validated, and skipped, as a full run would skip them.
    """
    _admit_level(n)
    half = sl2_order(n) // 2
    n2 = n * n
    ident = n2 * n + 1
    seen = {ident}
    queue = [ident]  # every key, in the order found
    kept: list[Mat] = []
    for m in gens:
        m = Mat.make(*m)
        if m.n != n:
            raise ValueError(f"generator at wrong level: {m!r}")
        if len(seen) > half or _key(m) in seen:
            continue
        kept.append(m)
        new, mark = kept[-1:], len(queue)  # the keys before mark met the others
        for i, key in enumerate(queue):
            ab, cd = divmod(key, n2)
            a, b = divmod(ab, n)
            c, d = divmod(cd, n)
            for _, e, f, g, h in (new if i < mark else kept):  # key * generator
                nxt = ((((a * e + b * g) % n * n + (a * f + b * h) % n) * n
                        + (c * e + d * g) % n) * n + (c * f + d * h) % n)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
                    if len(seen) > half:
                        break
            else:
                continue
            break  # <kept> holds over half of SL2(Z/n): by Lagrange, all of it
    del queue  # it holds every key again; free it before the set is copied
    return SubgroupImage(n, None if len(seen) > half else frozenset(seen), tuple(kept))


def _entries(n: int, keys: Iterable[int]) -> Iterator[tuple[int, int, int, int]]:
    """(a, b, c, d) for each packed key at level n."""
    n2 = n * n
    for key in keys:
        ab, cd = divmod(key, n2)
        yield (*divmod(ab, n), *divmod(cd, n))


def _trace_hits(H: SubgroupImage, traces: Iterable[int]) -> Iterator[tuple[int, int, int, int]]:
    """(a, b, c, d) for each element of H whose trace is one of the residues
    traces mod N.  A described family lists them: [[u, b], [0, u^-1]] has
    trace u + u^-1 whatever b is.  Any other image filters its keys by
    (key // N^3 + key) mod N."""
    n = H.level
    hot = {t % n for t in traces}
    if isinstance(H.keys, str):
        return ((u, b, 0, v) for u, v in _diagonal(H) if (u + v) % n in hot for b in range(n))
    n3 = n ** 3
    return _entries(n, [k for k in H.elements if (k // n3 + k) % n in hot])


def _reduce_mod(H: SubgroupImage, q: int) -> SubgroupImage:
    """The image of H mod q, for q | N.  A described image stays the same
    description at q, as reduction mod q maps SL2(Z/N), Gamma0(N) and
    Gamma1(N) onto their namesakes at q; any other image is the closure of
    its generators reduced mod q."""
    gens = tuple(Mat(q, m.a % q, m.b % q, m.c % q, m.d % q) for m in H.generators)
    if isinstance(H.keys, frozenset):
        return closure(q, gens)
    return SubgroupImage(q, H.keys, gens)


def pm_elements(H: SubgroupImage) -> frozenset[int]:
    """The element set of <H, -I>, packed."""
    if H.contains_minus_i:
        return H.elements
    n = H.level
    return H.elements | {((-a % n * n + -b % n) * n + -c % n) * n + -d % n
                         for a, b, c, d in _entries(n, H.elements)}
