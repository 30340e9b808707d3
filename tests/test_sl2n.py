"""Arithmetic in SL2(Z/N): enumeration, closure, the +-1 image."""

import random
from math import gcd

import pytest

from jbound.numtheory import sl2_order
from jbound.sl2n import (
    CapExceeded,
    Mat,
    SubgroupImage,
    closure,
    element_order,
    enumerate_group,
    group_order,
    identity,
    iter_group,
    mat_inv,
    mat_mul,
    mat_neg,
    minus_identity,
    pm_elements,
)


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


def test_mat_mul_examples():
    n5 = identity(5)
    assert mat_mul(n5, n5) == n5
    s = Mat(5, 0, 4, 1, 0)
    assert mat_mul(s, s) == minus_identity(5)
    x = Mat(3, 1, 1, 0, 1)
    y = Mat(3, 1, 0, 1, 1)
    assert mat_mul(x, y) == Mat(3, 2, 1, 1, 1)
    with pytest.raises(ValueError):
        mat_mul(x, n5)


def test_mat_inv_and_neg():
    rng = random.Random(31337)
    for n in (2, 3, 5, 8, 12):
        elems = sorted(enumerate_group(n))
        for m in rng.sample(elems, min(25, len(elems))):
            assert mat_mul(m, mat_inv(m)) == identity(n)
            assert mat_mul(mat_inv(m), m) == identity(n)
            assert mat_neg(m) == mat_mul(minus_identity(n), m)


def test_group_orders_match_formula():
    assert group_order(2) == 6
    assert group_order(3) == 24
    assert group_order(6) == 144
    for n in range(2, 13):
        assert len(enumerate_group(n)) == group_order(n) == sl2_order(n)


def test_enumeration_matches_brute_force_filter():
    for n in range(2, 6):
        assert enumerate_group(n) == brute_group(n)


def test_enumeration_is_deterministic():
    first = list(iter_group(7))
    second = list(iter_group(7))
    assert first == second
    assert len(set(first)) == group_order(7)


def test_enumeration_cap_is_checked_before_work():
    with pytest.raises(CapExceeded):
        enumerate_group(9999, cap=10**6)


def test_closure_examples():
    assert closure(5, []).order == 1
    assert closure(5, [minus_identity(5)]).order == 2
    s3 = Mat(3, 0, 2, 1, 0)
    assert closure(3, [s3]).order == 4
    t = Mat(3, 1, 1, 0, 1)
    s = Mat(3, 0, 2, 1, 0)
    assert closure(3, [s, t]).elements == enumerate_group(3)


def test_closure_is_a_subgroup_and_lagrange_holds():
    rng = random.Random(424242)
    for n in (3, 4, 5, 6, 8):
        elems = sorted(enumerate_group(n))
        for _ in range(8):
            gens = rng.sample(elems, rng.randint(1, 3))
            sub = closure(n, gens)
            assert group_order(n) % sub.order == 0
            for x in sub.elements:
                assert mat_inv(x) in sub.elements
                for g in gens:
                    assert mat_mul(x, g) in sub.elements


def test_closure_respects_cap():
    with pytest.raises(CapExceeded):
        closure(97, [Mat(97, 0, 96, 1, 0), Mat(97, 1, 1, 0, 1)], cap=100)


def test_contains_minus_i_flag():
    assert closure(5, [minus_identity(5)]).contains_minus_i
    assert not closure(5, []).contains_minus_i
    # at level 2, -I collapses onto I
    assert closure(2, []).contains_minus_i


def test_from_elements_rejects_non_closed_sets():
    with pytest.raises(ValueError):
        SubgroupImage.from_elements(3, [identity(3), Mat(3, 1, 1, 0, 1)])
    with pytest.raises(ValueError):
        SubgroupImage.from_elements(3, [identity(3)], [Mat(3, 1, 1, 0, 1)])


def test_element_order():
    assert element_order(identity(7)) == 1
    assert element_order(minus_identity(7)) == 2
    assert element_order(Mat(3, 1, 1, 0, 1)) == 3
    assert element_order(Mat(5, 0, 4, 1, 0)) == 4


def test_pm_elements_doubles_only_without_minus_i():
    h = closure(5, [])
    assert len(pm_elements(h)) == 2
    g = closure(5, [minus_identity(5)])
    assert len(pm_elements(g)) == 2
    full = SubgroupImage.from_elements(5, enumerate_group(5),
                                       [Mat(5, 0, 4, 1, 0), Mat(5, 1, 1, 0, 1)])
    assert pm_elements(full) == full.elements


def test_subgroup_equality_is_by_level_and_elements():
    a = closure(5, [minus_identity(5)])
    b = SubgroupImage.from_elements(5, [identity(5), minus_identity(5)])
    assert a == b and hash(a) == hash(b)
    assert a != closure(7, [minus_identity(7)])
