"""Arithmetic in SL2(Z/N): enumeration, closure, the +-1 image."""

import random
from math import gcd

import pytest

import jbound
import reference as R
from jbound import numtheory, sl2n
from jbound.invariants import SubgroupKind, standard_subgroup
from jbound.numtheory import sl2_order
from jbound.sl2n import (
    CapExceeded,
    Mat,
    SubgroupImage,
    closure,
    enumerate_group,
    pm_elements,
)


def identity(n):
    return Mat(n, 1, 0, 0, 1)


def minus_identity(n):
    return Mat(n, n - 1, 0, 0, n - 1)


def brute_group(n):
    """All of SL2(Z/n) by filtering every 4-tuple; independent of the column
    construction used by the enumerator."""
    return frozenset(
        Mat(n, a, b, c, d)
        for a in range(n) for b in range(n)
        for c in range(n) for d in range(n)
        if (a * d - b * c) % n == 1)


def test_mat_make_validates_determinant_and_reduces():
    m = Mat.make(5, 6, -4, 10, 1)
    assert (m.a, m.b, m.c, m.d) == (1, 1, 0, 1)
    with pytest.raises(ValueError):
        Mat.make(5, 1, 0, 0, 2)
    with pytest.raises(ValueError):
        Mat.make(1, 1, 0, 0, 1)


def test_group_orders_match_formula():
    assert sl2_order(2) == 6
    assert sl2_order(3) == 24
    assert sl2_order(6) == 144
    for n in range(2, 13):
        assert len(enumerate_group(n)) == sl2_order(n)



def test_levels_below_two_are_refused():
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match="level must be >= 2"):
            closure(n, [])
        with pytest.raises(ValueError, match="level must be >= 2"):
            enumerate_group(n)

def test_enumeration_matches_brute_force_filter():
    for n in range(2, 6):
        assert enumerate_group(n) == brute_group(n)


def test_enumeration_is_deterministic():
    first = list(sl2n._group_keys(7))
    second = list(sl2n._group_keys(7))
    assert first == second
    assert len(set(first)) == sl2_order(7)
    assert {Mat(7, *m) for m in sl2n._entries(7, first)} == enumerate_group(7)


def test_enumeration_cap_is_checked_before_work(monkeypatch):
    monkeypatch.setattr(sl2n, "ENUMERATION_CAP", 10**6)
    with pytest.raises(CapExceeded):
        enumerate_group(9999)


def test_closure_examples():
    assert closure(5, []).order == 1
    assert closure(5, [minus_identity(5)]).order == 2
    s3 = Mat(3, 0, 2, 1, 0)
    assert closure(3, [s3]).order == 4
    t = Mat(3, 1, 1, 0, 1)
    s = Mat(3, 0, 2, 1, 0)
    assert {Mat(3, *x) for x in R.unpacked(3, closure(3, [s, t]).elements)} == \
        enumerate_group(3)


def test_closure_is_a_subgroup_and_lagrange_holds():
    rng = random.Random(424242)
    for n in (3, 4, 5, 6, 8):
        elems = sorted(enumerate_group(n))
        for _ in range(8):
            gens = rng.sample(elems, rng.randint(1, 3))
            sub = closure(n, gens)
            assert sl2_order(n) % sub.order == 0
            mats = R.unpacked(n, sub.elements)
            for x in mats:
                assert R._inv(x, n) in mats
                for g in gens:
                    assert R._mul(x, g[1:], n) in mats


def test_closure_equals_tuple_closure_on_random_generator_sets():
    for n, gens in R.random_generator_sets(240, 1729):
        mats = [Mat(n, *g) for g in gens]
        sub = closure(n, mats)
        assert R.unpacked(n, sub.elements) == R.ref_closure(n, gens), (n, gens)


def test_greedy_closure_is_the_closure_of_a_subsequence():
    # closure keeps only the generators that enlarge the group so far: they are
    # a subsequence of the input and close to the same set
    for n, gens in R.random_generator_sets(240, 1729):
        mats = [Mat(n, *g) for g in gens]
        sub = closure(n, mats)
        rest = iter(mats)
        assert all(g in rest for g in sub.generators), (n, gens)
        assert closure(n, sub.generators).elements == sub.elements, (n, gens)


def test_closure_of_nothing_new_is_trivial():
    sub = closure(7, [identity(7), identity(7)])
    assert sub.order == 1 and sub.generators == ()


def test_closure_skips_generators_already_generated():
    s, t = Mat(5, 0, 4, 1, 0), Mat(5, 1, 1, 0, 1)
    sub = closure(5, [s, Mat(5, *R._mul(s[1:], s[1:], 5)), t,
                      Mat(5, *R._mul(t[1:], s[1:], 5)), Mat(5, *R._inv(t[1:], 5))])
    assert sub.generators == (s, t)
    assert sub.order == sl2_order(5)


def test_closure_that_reaches_sl2_keeps_the_generators_of_a_full_run():
    # past half of |SL2(Z/n)| the closure stops; a generator is kept exactly
    # when it lies outside the reference closure of those kept before it, and
    # the image is the keyless family image
    rng = random.Random(1913)
    reached = 0
    for n in range(2, 17):
        elems = sorted(R.sl2_elements(n))
        t, s = (1, 1, 0, 1), (0, n - 1, 1, 0)
        for gens in ([t, s], [s, t, R._mul(t, s, n), t], *(
                rng.sample(elems, 2) + [t, s] + rng.sample(elems, 2) for _ in range(4))):
            kept = []
            for g in gens:
                if g not in R.ref_closure(n, kept):
                    kept.append(g)
            sub = closure(n, [Mat(n, *g) for g in gens])
            assert sub.keys is None and sub.order == sl2_order(n), (n, gens)
            assert [g[1:] for g in sub.generators] == kept, (n, gens)
            assert sub == standard_subgroup(SubgroupKind.FULL, n)
            reached += 1
    assert reached == 15 * 6
    # the later generators are still read and validated
    with pytest.raises(ValueError):
        closure(5, [Mat(5, 1, 1, 0, 1), Mat(5, 0, 4, 1, 0), Mat(5, 0, 3, 2, 1)])
    # an image of exactly half the group keeps its keys: A3 in SL2(Z/2) = S3
    half = closure(2, [Mat(2, 0, 1, 1, 1)])
    assert half.order == 3 and half.keys is not None


def test_closure_admits_the_level_before_reading_a_generator(monkeypatch):
    def untouched():
        pytest.fail("a generator was read before the level was refused")
        yield  # pragma: no cover

    with pytest.raises(CapExceeded):
        closure(2 ** 127 - 1, untouched())
    monkeypatch.setattr(sl2n, "ENUMERATION_CAP", 100)
    with pytest.raises(CapExceeded):
        closure(97, untouched())


def test_closure_respects_cap(monkeypatch):
    monkeypatch.setattr(sl2n, "ENUMERATION_CAP", 100)
    with pytest.raises(CapExceeded):
        closure(97, [Mat(97, 0, 96, 1, 0), Mat(97, 1, 1, 0, 1)])


@pytest.mark.parametrize("n", [2, 12, 97])
def test_closure_refuses_the_level_before_work(monkeypatch, n):
    # the closure of T has only n elements; the cap is on |SL2(Z/n)|
    t = Mat(n, 1, 1, 0, 1)
    monkeypatch.setattr(sl2n, "ENUMERATION_CAP", sl2_order(n) - 1)
    with pytest.raises(CapExceeded):
        closure(n, [t])
    monkeypatch.setattr(sl2n, "ENUMERATION_CAP", sl2_order(n))
    assert closure(n, [t]).order == n


def test_contains_minus_i_flag():
    assert closure(5, [minus_identity(5)]).contains_minus_i
    assert not closure(5, []).contains_minus_i
    # at level 2, -I collapses onto I
    assert closure(2, []).contains_minus_i


def test_closure_reduces_and_validates_generators():
    # [[4, 0], [2, 1]] at level 3 reduces to [[1, 0], [2, 1]]; [[0, 3], [2, 1]]
    # reduces to a matrix of determinant 0
    lower = closure(3, [Mat(3, 1, 0, 1, 1)])
    assert lower.order == 3
    assert closure(3, [Mat(3, 4, 0, 2, 1)]) == lower
    with pytest.raises(ValueError):
        closure(3, [Mat(3, 1, 0, 1, 1), Mat(3, 0, 3, 2, 1)])
    with pytest.raises(ValueError):
        closure(3, [Mat(5, 1, 1, 0, 1)])


def test_element_order():
    assert closure(7, [identity(7)]).order == 1
    assert closure(7, [minus_identity(7)]).order == 2
    assert closure(3, [Mat(3, 1, 1, 0, 1)]).order == 3
    assert closure(5, [Mat(5, 0, 4, 1, 0)]).order == 4


def test_pm_elements_doubles_only_without_minus_i():
    h = closure(5, [])
    assert len(pm_elements(h)) == 2
    g = closure(5, [minus_identity(5)])
    assert len(pm_elements(g)) == 2
    full = closure(5, [Mat(5, 0, 4, 1, 0), Mat(5, 1, 1, 0, 1)])
    assert full.elements == {sl2n._key(m) for m in enumerate_group(5)}
    assert pm_elements(full) == full.elements


def test_subgroup_equality_is_by_level_and_elements():
    s = Mat(5, 0, 4, 1, 0)
    a = closure(5, [s])
    b = closure(5, [Mat(5, *R._neg(s[1:], 5))])
    assert a.generators != b.generators
    assert a == b and hash(a) == hash(b)
    assert a != closure(5, [minus_identity(5)])
    assert closure(5, []) != closure(7, [])


def test_subgroup_image_validates_its_keys():
    """A string names a described family, and only "gamma0" and "gamma1" do;
    a key set must hold the key of I.  The class is exported."""
    t = Mat(5, 1, 1, 0, 1)
    for name in ("gamma2", "gamma", "full", ""):
        with pytest.raises(ValueError):
            SubgroupImage(5, name, (t,))
    with pytest.raises(ValueError):
        SubgroupImage(5, frozenset({sl2n._key(t)}), (t,))
    assert SubgroupImage(5, "gamma1", (t,)) == closure(5, [t])
    assert "SubgroupImage" in jbound.__all__ and jbound.SubgroupImage is SubgroupImage


def test_gamma0_order_factors_its_level_at_most_once(monkeypatch):
    """Gamma0(N) reads its order N phi(N), and its hash, at every cache
    lookup; phi(N) is cached, so N is factored at most once however often."""
    levels = (12, 60, 97, 120, 211)
    images = [standard_subgroup("gamma0", n) for n in levels]
    numtheory.euler_phi.cache_clear()
    factored = []
    prime_powers = numtheory._prime_powers
    monkeypatch.setattr(numtheory, "_prime_powers",
                        lambda n: factored.append(n) or prime_powers(n))
    for _ in range(50):
        for n, h in zip(levels, images):
            assert h.order == n * R.euler_phi(n) and hash(h) == hash((n, h.order))
    assert all(factored.count(n) <= 1 for n in levels), factored


# ---- the packed representation ----

def test_pack_unpack_round_trip():
    for n in range(2, 31):
        for m in enumerate_group(n):
            key = sl2n._key(m)
            assert 0 <= key < n ** 4
            assert list(sl2n._entries(n, [key])) == [m[1:]]
            assert R.unpacked(n, [key]) == {(m.a, m.b, m.c, m.d)}


def test_packed_keys_sort_like_mats():
    for n in range(2, 31):
        mats = sorted(enumerate_group(n))
        keys = [sl2n._key(m) for m in mats]
        assert keys == sorted(keys)


def test_identity_and_minus_identity_keys():
    for n in range(2, 31):
        h = closure(n, [minus_identity(n)])
        assert h.elements == {sl2n._key(identity(n)), sl2n._key(minus_identity(n))}
        assert h.contains_minus_i
