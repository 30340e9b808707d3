"""Directed-rounding scalar: enclosure soundness, direction bookkeeping,
rendering."""

import random
from fractions import Fraction

import pytest
from mpmath.libmp import from_int, from_man_exp, mpf_exp, mpf_log, mpf_mul, to_str

from jbound.xreal import (
    _GUARD_BITS,
    DEFAULT_PREC,
    ExponentOverflow,
    Rounding,
    XReal,
    _log_nearest,
    payload_rel_diff,
)

UP, DOWN = Rounding.UP, Rounding.DOWN


def _rand_fraction(rng, small=False):
    num = rng.randint(1, 10**6 if not small else 50)
    den = rng.randint(1, 10**6 if not small else 50)
    sign = rng.choice([1, -1])
    return Fraction(sign * num, den)


# ---- exact dyadic enclosure of the field operations ----

def test_add_sub_mul_div_enclose_exact_value():
    rng = random.Random(20240817)
    for _ in range(400):
        qa, qb = _rand_fraction(rng), _rand_fraction(rng)
        for prec in (24, 53, 128):
            au, bu = XReal.from_fraction(qa, UP, prec), XReal.from_fraction(qb, UP, prec)
            ad, bd = XReal.from_fraction(qa, DOWN, prec), XReal.from_fraction(qb, DOWN, prec)
            assert ad.to_fraction() <= qa <= au.to_fraction()
            assert au.add(bu).to_fraction() >= qa + qb
            assert ad.add(bd).to_fraction() <= qa + qb
            assert au.sub(bd).to_fraction() >= qa - qb
            assert ad.sub(bu).to_fraction() <= qa - qb
            if qa > 0 and qb > 0:
                assert au.mul(bu).to_fraction() >= qa * qb
                assert ad.mul(bd).to_fraction() <= qa * qb
                assert au.div(bd).to_fraction() >= qa / qb
                assert ad.div(bu).to_fraction() <= qa / qb


def test_scale_encloses_and_handles_sign():
    rng = random.Random(7)
    for _ in range(300):
        q = _rand_fraction(rng)
        k = _rand_fraction(rng, small=True)
        xu = XReal.from_fraction(q, UP, 53).scale(k)
        xd = XReal.from_fraction(q, DOWN, 53).scale(k)
        if k > 0:
            assert xu.rounding is UP and xd.rounding is DOWN
            assert xu.to_fraction() >= k * q >= xd.to_fraction()
        elif k < 0:
            # negative scaling flips which side the result bounds
            assert xu.rounding is DOWN and xd.rounding is UP
            assert xu.to_fraction() <= k * q <= xd.to_fraction()
        else:
            assert xu.payload_sign() == xd.payload_sign() == 0


def test_scale_exact_when_representable():
    x = XReal.from_int(3, UP).scale(Fraction(1, 3))
    assert x.to_fraction() == 1
    y = XReal.from_int(7, DOWN).scale(4)
    assert y.to_fraction() == 28


def test_neg_flips_direction_exactly():
    x = XReal.from_fraction(Fraction(22, 7), UP, 53)
    y = x.neg()
    assert y.rounding is DOWN
    assert y.to_fraction() == -x.to_fraction()


# ---- direction bookkeeping is enforced, not assumed ----

def test_mixed_direction_operations_are_rejected():
    a = XReal.from_int(2, UP)
    b = XReal.from_int(3, DOWN)
    with pytest.raises(ValueError):
        a.add(b)
    with pytest.raises(ValueError):
        a.sub(XReal.from_int(1, UP))  # subtrahend must carry the opposite tag
    with pytest.raises(ValueError):
        a.mul(b)
    with pytest.raises(ValueError):
        a.div(XReal.from_int(3, UP))  # positive numerator needs DOWN denominator


def test_mul_rejects_negative_payloads():
    a = XReal.from_int(-2, UP)
    b = XReal.from_int(3, UP)
    with pytest.raises(ValueError):
        a.mul(b)
    with pytest.raises(ValueError):
        b.mul(a)


def test_div_rejects_nonpositive_denominator():
    a = XReal.from_int(5, UP)
    with pytest.raises(ValueError):
        a.div(XReal.zero(DOWN))
    with pytest.raises(ValueError):
        a.div(XReal.from_int(-2, DOWN))


def test_log_rejects_nonpositive_payload():
    with pytest.raises(ValueError):
        XReal.zero(UP).log()
    with pytest.raises(ValueError):
        XReal.from_int(-1, UP).log()


# ---- log/exp enclosure against a much more precise reference ----

def _nearest_fraction(op, raw, bits):
    man_exp = op(raw, bits, "n")
    sign, man, exp, bc = man_exp
    q = Fraction(man, 1) * Fraction(2) ** exp
    return -q if sign else q


# 4096 bits is above mpmath's 2500-bit Taylor limit, so its logarithm takes
# the AGM path; one sample in STRIDE is checked at each precision.
ENCLOSURE_STRIDE = {53: 1, 128: 1, 1024: 4, 4096: 10}


def test_log_encloses_high_precision_reference():
    rng = random.Random(99)
    for i in range(200):
        q = Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9))
        for prec, stride in ENCLOSURE_STRIDE.items():
            if i % stride:
                continue
            xu = XReal.from_fraction(q, UP, prec)
            xd = XReal.from_fraction(q, DOWN, prec)
            ref_hi = _nearest_fraction(mpf_log, xu.raw, prec + 300)
            ref_lo = _nearest_fraction(mpf_log, xd.raw, prec + 300)
            for _cold_then_warm in range(2):
                assert xu.log().to_fraction() >= ref_hi
                assert xd.log().to_fraction() <= ref_lo


def test_exp_encloses_high_precision_reference():
    rng = random.Random(1234)
    for i in range(200):
        q = _rand_fraction(rng, small=True) + Fraction(rng.randint(-40, 40))
        for prec, stride in ENCLOSURE_STRIDE.items():
            if i % stride:
                continue
            xu = XReal.from_fraction(q, UP, prec)
            xd = XReal.from_fraction(q, DOWN, prec)
            assert xu.exp().to_fraction() >= _nearest_fraction(mpf_exp, xu.raw, prec + 300)
            assert xd.exp().to_fraction() <= _nearest_fraction(mpf_exp, xd.raw, prec + 300)


# ---- the memoised logarithm ----

def _uncached_log(x):
    return x._padded(mpf_log(x.raw, x.prec + _GUARD_BITS, "n"))


def test_memoised_log_equals_uncached_evaluation():
    rng = random.Random(4242)
    samples = {8: 40, 53: 40, 128: 40, 1024: 10, 4096: 3, 8192: 2}
    xs = []
    for prec, count in samples.items():
        for _ in range(count):
            man = rng.getrandbits(prec) | (1 << (prec - 1))
            raw = from_man_exp(man, rng.randint(-prec - 200, 200 - prec))
            xs += [XReal(raw, UP, prec), XReal(raw, DOWN, prec)]
    _log_nearest.cache_clear()
    for _cold_then_warm in range(2):
        for x in xs:
            got, want = x.log(), _uncached_log(x)
            assert (got.raw, got.rounding, got.prec) == (want.raw, want.rounding, want.prec)
    assert _log_nearest.cache_info().hits >= len(xs)


def test_up_and_down_log_share_one_memo_entry():
    _log_nearest.cache_clear()
    raw = XReal.from_fraction(Fraction(10**9 + 7, 3), UP, 200).raw
    up = XReal(raw, UP, 200).log()
    down = XReal(raw, DOWN, 200).log()
    info = _log_nearest.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert down < up


def test_log_memo_is_bounded_and_evicts_safely():
    maxsize = _log_nearest.cache_info().maxsize
    assert isinstance(maxsize, int) and maxsize > 0
    _log_nearest.cache_clear()
    first = XReal.from_int(3, UP, 64).log()
    for k in range(maxsize + 10):
        XReal.from_int(k + 5, UP, 64).log()
    info = _log_nearest.cache_info()
    assert info.currsize == maxsize
    again = XReal.from_int(3, UP, 64).log()
    assert _log_nearest.cache_info().misses == info.misses + 1  # evicted, recomputed
    assert (again.raw, again.rounding, again.prec) == (first.raw, first.rounding, first.prec)


def test_log_of_one_and_exp_of_zero_are_exact():
    for rnd in (UP, DOWN):
        assert XReal.from_int(1, rnd).log().payload_sign() == 0
        assert XReal.zero(rnd).exp().to_fraction() == 1


def test_log_exp_roundtrip_brackets_identity():
    x = XReal.from_fraction(Fraction(355, 113), UP)
    y = x.log().exp()
    assert y.to_fraction() >= Fraction(355, 113) * (1 - Fraction(1, 2**100))


# ---- precision escalation tightens the bound from the same side ----

def test_lower_precision_upper_bound_dominates_higher_precision():
    rng = random.Random(5150)
    for _ in range(100):
        q = Fraction(rng.randint(2, 10**6), rng.randint(1, 10**3))
        lo = XReal.from_fraction(q, UP, 64).log()
        hi = XReal.from_fraction(q, UP, 256).log()
        assert lo >= hi
        lo_d = XReal.from_fraction(q, DOWN, 64).log()
        hi_d = XReal.from_fraction(q, DOWN, 256).log()
        assert lo_d <= hi_d


# ---- exp stays cheap at astronomical magnitudes, with a guard rail ----

def test_exp_of_huge_argument_is_instant_and_bounded_below():
    x = XReal.from_int(10**40, UP)
    e = x.exp()
    # the exponent integer of the result is ~ 10^40 / ln 2: a 134-bit int
    assert 130 <= e.raw[2].bit_length() <= 140
    d = XReal.from_int(10**40, DOWN).exp()
    assert d <= e


def test_exp_overflow_guard_raises():
    huge = XReal((0, 1, (1 << 28) + 10, 1), UP)
    with pytest.raises(ExponentOverflow):
        huge.exp()


# ---- rendering ----

def test_decimal_rendering_is_fixed_format():
    # ln 6 = 1.7917594..., exp(300) = 1.9424263...e130: each side prints its own way
    assert XReal.from_int(6, UP).log().decimal() == "1.791760e+0"
    assert XReal.from_int(6, DOWN).log().decimal() == "1.791759e+0"
    assert XReal.from_int(6, UP).log().scale(150).decimal() == "2.687640e+2"
    assert XReal.zero(UP).decimal() == "0.0e+0"
    assert XReal.from_int(-3, UP).decimal() == "-3.000000e+0"
    assert XReal.from_fraction(Fraction(1, 3), DOWN).decimal() == "3.333333e-1"
    assert XReal.from_fraction(Fraction(1, 3), UP).decimal() == "3.333334e-1"
    assert XReal.from_int(300, UP).exp().decimal() == "1.942427e+130"
    assert XReal.from_int(300, DOWN).exp().decimal() == "1.942426e+130"


def test_exact_decimal_payloads_print_unchanged():
    for value in (-3, 5 * 10**6, 1234567 * 10**20, Fraction(1, 2), Fraction(-3, 16)):
        for rounding in (UP, DOWN):
            x = XReal.from_fraction(value, rounding, prec=256)
            assert x.to_fraction() == value
            assert Fraction(x.decimal()) == value, (value, rounding)


def test_decimal_moves_across_a_power_of_ten():
    # both 99999995 and -99999995 print to nearest as 1.000000e+8 in magnitude
    assert XReal.from_int(99999995, DOWN).decimal() == "9.999999e+7"
    assert XReal.from_int(99999995, UP).decimal() == "1.000000e+8"
    assert XReal.from_int(-99999995, UP).decimal() == "-9.999999e+7"
    assert XReal.from_int(-99999995, DOWN).decimal() == "-1.000000e+8"


def test_decimal_is_on_the_payload_side_for_random_payloads():
    """An Up decimal, read as an exact fraction, is at least its payload and a
    Down decimal at most; both stay within two units of their last digit."""
    rng = random.Random(8192)
    for _ in range(1500):
        prec = rng.randint(8, 8192)
        man = rng.getrandbits(prec) | 1
        raw = from_man_exp(rng.choice([1, -1]) * man, rng.randint(-2 * prec, prec) - prec,
                           prec, "n")
        for rounding in (UP, DOWN):
            x = XReal(raw, rounding, prec)
            text = x.decimal()
            printed, payload = Fraction(text), x.to_fraction()
            if rounding is UP:
                assert printed >= payload, (raw, text)
            else:
                assert printed <= payload, (raw, text)
            ulp = Fraction(10) ** (int(text.split("e")[1]) - 6)
            assert abs(printed - payload) < 2 * ulp, (raw, text)


def test_payload_rel_diff():
    a = XReal.from_int(1000, UP)
    b = XReal.from_fraction(Fraction(1001), UP)
    assert abs(payload_rel_diff(a, b) - Fraction(1, 1001)) < 1e-12
    assert payload_rel_diff(a, a) == 0.0


def test_comparisons_are_payload_only():
    a = XReal.from_int(2, UP)
    b = XReal.from_int(3, DOWN)
    assert a < b and b > a and a <= a and b >= b
