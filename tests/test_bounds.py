"""Bound engine against the independent reference, plus enclosure and
monotonicity properties and the lifted-discriminant reduction inequality."""

import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

import reference as R
from jbound import bounds
from jbound.bounds import (
    BoundReport,
    InapplicableError,
    NumberFieldSpec,
    SSetSpec,
    Theorem,
    bound_auto,
    bound_main,
    bound_main1,
    delta1_ln,
    h_s,
    lambda_ln,
    ln_delta,
    ln_delta0,
    ln_dstar,
    p_max,
)
from jbound.invariants import SubgroupKind, applicability, standard_subgroup
from jbound.numtheory import b_of, d_n, euler_phi, m_of
from jbound.xreal import Rounding, XReal, payload_rel_diff

UP, DOWN = Rounding.UP, Rounding.DOWN

GRID_LEVELS = [2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 17, 25, 27, 30]
GRID_FIELDS = [(1, 1), (2, 23), (3, 49), (6, 9747)]
GRID_SSETS = [(1, ()), (2, ((3, 1),)), (1, ((2, 2), (5, 1))),
              (3, ((2, 1), (3, 2), (7, 1)))]


def grid_points():
    for n in GRID_LEVELS:
        for d, disc in GRID_FIELDS:
            for r, places in GRID_SSETS:
                if all(f <= d for _p, f in places):
                    yield n, d, disc, r, places


def as_up(mpf_val):
    """Wrap a reference mpf payload for payload-level comparison."""
    return XReal(mpf_val._mpf_, UP, 256)


def rel(engine_val, ref_mpf):
    return payload_rel_diff(engine_val, as_up(ref_mpf))


def mpf_to_fraction(x):
    sign, man, exp, _bc = x._mpf_
    q = Fraction(int(man), 1) * Fraction(2) ** exp
    return -q if sign else q


# ---- hand-checkable anchors ----

def test_anchor_lambda_level2():
    with mp.workdps(80):
        true = 150 * mp.log(6)
        for prec in (128, 256):
            up = lambda_ln(2, UP, prec)
            down = lambda_ln(2, DOWN, prec)
            assert rel(up, true) < 1e-20
            assert rel(down, true) < 1e-20
            assert down <= up


def test_anchor_lambda_level2_encloses_frozen_digits():
    # 150 ln 6 to 62 digits, frozen from an independent computation
    with mp.workdps(70):
        true = mpf_to_fraction(mp.mpf(
            "268.76392038420825012187160375710534090844860382745070587830615"))
    up = lambda_ln(2, UP)
    down = lambda_ln(2, DOWN)
    assert down.to_fraction() <= true <= up.to_fraction()


def test_anchor_delta0_level5_rational_field():
    field = NumberFieldSpec(1, 1)
    sset = SSetSpec(1)
    with mp.workdps(80):
        true = mp.mpf(5) / 2 * mp.log(5) + 4 * mp.log(5 * mp.log(5))
        true_frac = mpf_to_fraction(true)
    up = ln_delta0(5, field, sset, UP)
    down = ln_delta0(5, field, sset, DOWN)
    assert rel(up, true) < 1e-20
    assert rel(down, true) < 1e-20
    assert down.to_fraction() <= true_frac <= up.to_fraction()
    with mp.workdps(70):
        frozen = mpf_to_fraction(mp.mpf(
            "12.364886412130094918995004520196493655386607947445355191425344"))
    assert down.to_fraction() <= frozen <= up.to_fraction()


# ---- oracle equivalence over the grid ----

def test_oracle_grid_ln_quantities():
    points = list(grid_points())
    assert len(points) >= 200
    for n, d, disc, r, places in points:
        field = NumberFieldSpec(d, disc)
        sset = SSetSpec(r, places)

        assert rel(lambda_ln(n, UP), R.ref_lambda_ln(n)) < 1e-15
        assert rel(ln_dstar(n, field, sset, UP),
                   R.ref_ln_dstar(n, d, disc, places)) < 1e-15
        assert rel(ln_delta0(n, field, sset, UP),
                   R.ref_ln_delta0(n, d, disc, places)) < 1e-15
        assert rel(ln_delta(n, field, sset, UP),
                   R.ref_ln_delta(n, d, disc, places)) < 1e-15

        main = bound_main(n, field, sset)
        ref_main, ref_level = R.ref_ln_bound_cusps(n, d, disc, r, places)
        assert main.level_used == ref_level
        assert rel(main.ln_bound, ref_main) < 1e-15

        cov = bound_main1(n, field, sset)
        ref_cov, ref_level1 = R.ref_ln_bound_covering(n, d, disc, r, places)
        assert cov.level_used == ref_level1
        assert rel(cov.ln_bound, ref_cov) < 1e-15


def test_oracle_grid_down_up_sandwich():
    for n, d, disc, r, places in grid_points():
        field = NumberFieldSpec(d, disc)
        sset = SSetSpec(r, places)
        for fn in (lambda f, s, rnd: ln_dstar(n, f, s, rnd),
                   lambda f, s, rnd: ln_delta0(n, f, s, rnd),
                   lambda f, s, rnd: ln_delta(n, f, s, rnd)):
            assert fn(field, sset, DOWN) <= fn(field, sset, UP)
        assert (bound_main(n, field, sset, rounding=DOWN).ln_bound
                <= bound_main(n, field, sset).ln_bound)
        assert (bound_main1(n, field, sset, rounding=DOWN).ln_bound
                <= bound_main1(n, field, sset).ln_bound)


def test_literal_tier_cross_check():
    places = ((2, 2), (3, 1))
    field = NumberFieldSpec(2, 23)
    sset = SSetSpec(1, places)
    for n in range(2, 9):
        lit = R.ref_ln_delta_literal(n, 2, 23, places)
        assert rel(ln_delta(n, field, sset, UP), lit) < 1e-15
        with mp.workdps(R.REF_DPS):
            lit_dstar = mp.log(R.ref_dstar_literal(n, 2, 23, places))
        assert rel(ln_dstar(n, field, sset, UP), lit_dstar) < 1e-15
    for n in GRID_LEVELS:
        lit_main, lev = R.ref_ln_bound_cusps_literal(n, 2, 23, 1, places)
        rep = bound_main(n, field, sset)
        assert rep.level_used == lev
        assert rel(rep.ln_bound, lit_main) < 1e-15
    for n in (2, 3, 6):  # substituted level stays within the literal tier
        lit_cov, lev = R.ref_ln_bound_covering_literal(n, 2, 23, 1, places)
        rep = bound_main1(n, field, sset)
        assert rep.level_used == lev == 6
        assert rel(rep.ln_bound, lit_cov) < 1e-15


# ---- report structure ----

def test_bound_main_level6_decomposition():
    rep = bound_main(6, NumberFieldSpec(1, 1), SSetSpec(1))
    assert rep.theorem is Theorem.MAIN
    assert rep.level_used == 6
    assert rep.ln_c_coefficient == 12
    assert set(rep.components) == {"lnBound", "lnCTerm", "lnLogTerm",
                                   "lnPTerm", "lnDelta0"}
    with mp.workdps(60):
        assert rel(rep.components["lnCTerm"], 12 * mp.log(36)) < 1e-20
        assert rel(rep.components["lnLogTerm"], 18 * mp.log(mp.log(6))) < 1e-20
        assert rel(rep.components["lnDelta0"],
                   3 * mp.log(6) + 2 * mp.log(6 * mp.log(6))) < 1e-20
    assert rep.components["lnPTerm"].payload_sign() == 0
    total = (rep.components["lnCTerm"].add(rep.components["lnLogTerm"])
             .add(rep.components["lnPTerm"]).add(rep.components["lnDelta0"]))
    assert payload_rel_diff(total, rep.ln_bound) == 0.0
    assert rep.notes == ()


def test_bound_main1_report_structure():
    rep = bound_main1(17, NumberFieldSpec(1, 1), SSetSpec(1))
    assert rep.theorem is Theorem.MAIN1_PRIME_POWER
    assert rep.level_used == 34
    assert rep.ln_c_coefficient == 2 * 34 * 14688
    assert {"lnDelta", "lnDstar", "lnLambda"} <= set(rep.components)
    assert len(rep.notes) == 2

    rep6 = bound_main1(6, NumberFieldSpec(1, 1), SSetSpec(1))
    assert rep6.theorem is Theorem.MAIN1
    assert rep6.level_used == 6
    assert rep6.notes == ()


def test_levels_used():
    f, s = NumberFieldSpec(1, 1), SSetSpec(1)
    assert bound_main(2, f, s).level_used == 6
    assert bound_main(3, f, s).level_used == 6
    assert bound_main(4, f, s).level_used == 12
    assert bound_main(5, f, s).level_used == 10
    assert bound_main(6, f, s).level_used == 6
    assert bound_main(12, f, s).level_used == 12
    assert bound_main(30, f, s).level_used == 30
    assert bound_main1(17, f, s).level_used == 34


def test_log10_rendering_against_ln():
    rep = bound_main(6, NumberFieldSpec(1, 1), SSetSpec(1))
    with mp.workdps(60):
        expect = mp.mpf(rep.ln_bound.payload_float()) / mp.log(10)
        assert rel(rep.log10_bound, expect) < 1e-12
    assert rep.log10_bound.rounding is UP


def test_bound_auto_dispatch():
    f, s = NumberFieldSpec(1, 1), SSetSpec(1)
    rep = bound_auto(applicability(standard_subgroup(SubgroupKind.PRINCIPAL, 5)), f, s)
    assert rep.theorem is Theorem.MAIN and rep.level_used == 10

    rep17 = bound_auto(applicability(standard_subgroup(SubgroupKind.GAMMA0, 17)), f, s)
    assert rep17.theorem is Theorem.MAIN1_PRIME_POWER
    assert rep17.level_used == 34
    assert rep17.ln_c_coefficient == 998784

    with pytest.raises(InapplicableError) as err:
        bound_auto(applicability(standard_subgroup(SubgroupKind.FULL, 2)), f, s)
    assert err.value.subgroup_cusps == 1
    assert err.value.tilde_cusps == 1


# ---- structural zeros and validation ----

def test_field_and_sset_validation():
    with pytest.raises(ValueError):
        NumberFieldSpec(0, 1)
    with pytest.raises(ValueError):
        NumberFieldSpec(1, 0)
    with pytest.raises(ValueError):
        SSetSpec(0)
    with pytest.raises(ValueError):
        SSetSpec(1, ((4, 1),))  # 4 is not prime
    with pytest.raises(ValueError):
        SSetSpec(1, ((5, 0),))
    with pytest.raises(ValueError):
        # residue degree exceeds the field degree
        ln_delta0(5, NumberFieldSpec(1, 1), SSetSpec(1, ((2, 2),)))


def test_h_s_and_p_max():
    assert h_s(SSetSpec(3), NumberFieldSpec(2, 5)).payload_sign() == 0
    assert p_max(SSetSpec(2)) == 1
    assert p_max(SSetSpec(1, ((3, 1), (11, 2), (7, 1)))) == 11
    got = h_s(SSetSpec(1, ((2, 2), (3, 1))), NumberFieldSpec(4, 1), UP)
    with mp.workdps(60):
        assert rel(got, (2 * mp.log(2) + mp.log(3)) / 4) < 1e-25


def test_zero_lambda_isolates_the_disc_and_h_s_terms_of_dstar():
    # with the tower constant Lambda = 0 and trivial data, ln D* collapses;
    # elsewhere Lambda swamps the disc and h_S terms
    zero = XReal.zero(UP)
    x = bounds._ln_dstar(7, NumberFieldSpec(3, 1), SSetSpec(2), zero, UP, 128)
    assert x.payload_sign() == 0
    y = bounds._ln_dstar(7, NumberFieldSpec(1, 1), SSetSpec(1, ((2, 1),)), zero, UP, 128)
    with mp.workdps(60):
        assert rel(y, 168 * mp.log(2)) < 1e-25


@pytest.mark.parametrize("n", [6, 17])
def test_covering_bound_evaluates_lambda_once(monkeypatch, n):
    field, sset = NumberFieldSpec(2, 23), SSetSpec(1, ((3, 1),))
    calls = []

    def counted(*args):
        calls.append(args)
        return lambda_ln(*args)

    monkeypatch.setattr(bounds, "lambda_ln", counted)
    rep = bound_main1(n, field, sset, 0, UP, 256)
    assert len(calls) == 1
    monkeypatch.undo()
    level = rep.level_used
    assert rep.components["lnDstar"].raw == ln_dstar(level, field, sset, UP, 256).raw
    assert rep.components["lnLambda"].raw == lambda_ln(level, UP, 256).raw


def test_s_counts_infinite_and_finite_places():
    assert SSetSpec(1).s == 1
    assert SSetSpec(2, ((3, 1), (5, 2))).s == 4


# ---- rounding soundness and monotonicity ----

def test_doubling_the_constant_shifts_by_exactly_2sL_ln2():
    f = NumberFieldSpec(2, 23)
    s = SSetSpec(1, ((3, 1),))
    ln2 = math.log(2.0)
    for n in (5, 6, 17):
        level = m_of(n) or n
        coeff = 2 * s.s * level
        hi = bound_main(n, f, s, ln_c=ln2).ln_bound
        lo = bound_main(n, f, s, ln_c=0.0, rounding=DOWN).ln_bound
        diff_up = hi.sub(lo)
        lo2 = bound_main(n, f, s, ln_c=ln2, rounding=DOWN).ln_bound
        hi2 = bound_main(n, f, s, ln_c=0.0).ln_bound
        diff_down = lo2.sub(hi2)
        shift = coeff * Fraction(ln2)
        assert diff_down.to_fraction() <= shift <= diff_up.to_fraction()


def test_monotone_in_discriminant_prime_and_constant():
    s = SSetSpec(1, ((3, 1),))
    prev = None
    for disc in (1, 23, 10**4, 10**12):
        cur = bound_main(7, NumberFieldSpec(2, disc), s)
        cur_dn = bound_main(7, NumberFieldSpec(2, disc), s, rounding=DOWN)
        if prev is not None:
            assert cur_dn.ln_bound > prev.ln_bound  # certified strict increase
        prev = cur

    base = bound_main(7, NumberFieldSpec(2, 23), SSetSpec(1, ((3, 1),)))
    bigger_p = bound_main(7, NumberFieldSpec(2, 23), SSetSpec(1, ((101, 1),)),
                          rounding=DOWN)
    assert bigger_p.ln_bound > base.ln_bound

    with_c = bound_main(7, NumberFieldSpec(2, 23), SSetSpec(1, ((3, 1),)),
                        ln_c=5.0, rounding=DOWN)
    assert with_c.ln_bound > base.ln_bound


def test_up_at_low_precision_dominates_up_at_high_precision():
    f = NumberFieldSpec(3, 49)
    s = SSetSpec(2, ((2, 2), (5, 1)))
    for n in (5, 6, 17, 30):
        for fn in (bound_main, bound_main1):
            u64 = fn(n, f, s, prec=64).ln_bound
            u256 = fn(n, f, s, prec=256).ln_bound
            d64 = fn(n, f, s, rounding=DOWN, prec=64).ln_bound
            d256 = fn(n, f, s, rounding=DOWN, prec=256).ln_bound
            assert u64 >= u256 >= d256 >= d64
            # enclosure width at 64 bits is ~2^-64 amplified by the tower
            # exponent, a few parts in 10^10 at worst on this grid
            assert payload_rel_diff(u64, u256) < 1e-6


# ---- the lifted-discriminant reduction ----

def test_residue_degree_product_lemma_exhaustive():
    checked = 0
    for d_l in range(1, 25):
        for total in range(1, d_l + 1):
            count = 0
            for part in R.partitions(total):
                assert sum(part) == total and part[0] >= 1 and part == sorted(part)
                prod = 1
                for f in part:
                    prod *= f
                assert prod <= 2 ** d_l, (d_l, part)
                count += 1
            assert count == R.PARTITION_COUNTS[total], total
            checked += count
    assert checked > 10**4


def _sample_lifted_product(rng, places, dl, rounding, prec):
    """Product of log-norms over a random genuine lift of each finite place:
    residue degrees of the extensions partition at most d_level."""
    prod = XReal.from_int(1, rounding, prec)
    count = 0
    for p, f in places:
        total = rng.randint(1, dl)
        parts = []
        while total:
            k = rng.randint(1, total)
            parts.append(k)
            total -= k
        lnp = XReal.from_int(p, rounding, prec).log()
        for fk in parts:
            prod = prod.mul(lnp.scale(fk * f))
            count += 1
    return prod, count


def test_delta1_reduction_inequality_sampled():
    rng = random.Random(97)
    configs = [
        (2, 1, 1, 1, ()),
        (3, 1, 5, 1, ((2, 1),)),
        (4, 2, 44, 1, ((3, 2),)),
        (5, 1, 1, 2, ((7, 1),)),
        (6, 2, 23, 1, ((2, 2), (5, 1))),
        (7, 3, 49, 1, ((11, 1),)),
        (8, 1, 3, 2, ((3, 1), (13, 1))),
        (6, 1, 1, 1, ((2, 1),)),
        (5, 2, 8, 1, ((5, 2),)),
        (7, 1, 7, 1, ()),
    ]
    samples_per = 1000
    total = 0
    for level, d, disc, r, places in configs:
        field = NumberFieldSpec(d, disc)
        sset = SSetSpec(r, places)
        dl = d_n(level)
        phi = euler_phi(level)
        rhs = (XReal.from_int(2, DOWN).log().scale(sset.s * phi * dl)
               .add(ln_delta(level, field, sset, DOWN)))
        for _ in range(samples_per):
            d0 = rng.randint(d, d * dl)
            disc0 = rng.randint(1, 10**30)
            prod, lifted_finite = _sample_lifted_product(rng, places, dl, UP, 128)
            s0 = rng.randint(1, r * dl) + lifted_finite
            lhs = delta1_ln(level, NumberFieldSpec(d0, disc0), prod, s0, UP)
            assert lhs <= rhs, (level, d0, disc0)
            total += 1
    assert total == 10**4


def test_delta1_degenerates_to_delta0_for_trivial_lift():
    # taking the lifted field equal to the base field must reproduce the
    # small-discriminant factor exactly
    for level, d, disc, r, places in [(5, 1, 1, 1, ()),
                                      (6, 2, 23, 1, ((2, 2), (3, 1))),
                                      (17, 3, 49, 2, ((5, 1),))]:
        field = NumberFieldSpec(d, disc)
        sset = SSetSpec(r, places)
        prod = XReal.from_int(1, UP, 192)
        for p, f in places:
            prod = prod.mul(XReal.from_int(p, UP, 192).log().scale(f))
        got = delta1_ln(level, field, prod, sset.s, UP, 192)
        want = ln_delta0(level, field, sset, UP, 192)
        assert payload_rel_diff(got, want) < 1e-30


def test_delta1_validation():
    f = NumberFieldSpec(1, 1)
    one_up = XReal.from_int(1, UP)
    with pytest.raises(ValueError):
        delta1_ln(1, f, one_up, 1, UP)
    with pytest.raises(ValueError):
        delta1_ln(5, f, one_up, 0, UP)
    with pytest.raises(ValueError):
        delta1_ln(5, f, XReal.from_int(1, DOWN), 1, UP)


# ---- report dataclass ----

def test_bound_report_is_frozen_and_exposes_ln_bound():
    rep = bound_main(6, NumberFieldSpec(1, 1), SSetSpec(1))
    assert isinstance(rep, BoundReport)
    assert rep.ln_bound is rep.components["lnBound"]
    with pytest.raises(AttributeError):
        rep.level_used = 7
