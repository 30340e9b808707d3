"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Tolerances and runtime limits are asserted inside the tests, so a
pass line certifies both the value and the budget.
"""

import random
import time

from mpmath import mp

import reference as R
from jbound.bounds import (
    NumberFieldSpec,
    SSetSpec,
    bound_main,
    bound_main1,
    delta1_ln,
    lambda_ln,
    ln_delta,
    ln_delta0,
    ln_dstar,
)
from jbound.invariants import (
    SubgroupKind,
    Verdict,
    applicability,
    curve_invariants,
    elliptic_counts,
    forces_three_cusps,
    standard_subgroup,
    tilde_subgroup,
)
from jbound.numtheory import d_n, euler_phi, is_prime, sl2_order
from jbound.sl2n import closure, enumerate_group
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


def rel(engine_val, ref_mpf):
    return payload_rel_diff(engine_val, XReal(ref_mpf._mpf_, UP, 256))


def legendre(a, p):
    r = pow(a % p, (p - 1) // 2, p)
    return r - p if r > 1 else r


def test_criterion_01_group_orders_exact_for_levels_2_to_30():
    t0 = time.monotonic()
    for n in range(2, 31):
        formula = n ** 3
        m = n
        q = 2
        while q * q <= m:
            if m % q == 0:
                formula = formula // (q * q) * (q * q - 1)
                while m % q == 0:
                    m //= q
            q += 1
        if m > 1:
            formula = formula // (m * m) * (m * m - 1)
        assert len(enumerate_group(n)) == formula == sl2_order(n), n
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_principal_level_cusps_and_genus_identities():
    for n in range(2, 21):
        inv = curve_invariants(closure(n, []))
        dn = d_n(n)
        assert inv.nu_inf * n == dn, n
        assert 12 * n * (inv.genus - 1) == dn * (n - 6), n


def test_criterion_03_classical_gamma0_tables_primes_to_97():
    classical_genus = {2: 0, 3: 0, 5: 0, 7: 0, 11: 1, 13: 0, 17: 1, 19: 1,
                       23: 2, 29: 2, 31: 2, 37: 2, 41: 3, 43: 3, 47: 4,
                       53: 4, 59: 5, 61: 4, 67: 5, 71: 6, 73: 5, 79: 6,
                       83: 7, 89: 7, 97: 7}
    for p in (q for q in range(2, 98) if is_prime(q)):
        inv = curve_invariants(standard_subgroup(SubgroupKind.GAMMA0, p))
        assert inv.nu_inf == 2, p
        assert inv.nu2 == (1 if p == 2 else 1 + legendre(-1, p)), p
        assert inv.nu3 == (0 if p == 2 else 1 + legendre(-3, p)), p
        assert inv.genus == classical_genus[p], p


def test_criterion_04_gamma0_primes_route_through_stabilizer_subgroup():
    for p in (17, 19, 23, 29, 31, 37):
        a = applicability(standard_subgroup(SubgroupKind.GAMMA0, p))
        assert a.verdict is Verdict.MAIN_VIA_TILDE, p
        assert a.tilde_invariants.nu_inf >= 3, p
        # the base curve itself has positive genus and only two cusps
        inv = curve_invariants(standard_subgroup(SubgroupKind.GAMMA0, p))
        assert inv.genus >= 1 and inv.nu_inf == 2, p


def test_criterion_05_elliptic_free_images_get_trivial_stabilizer_subgroup():
    cases = [closure(n, []) for n in range(2, 31)]
    cases += [standard_subgroup(SubgroupKind.GAMMA1, n) for n in range(4, 31)]
    cases.append(standard_subgroup(SubgroupKind.GAMMA0, 11))
    for h in cases:
        e = elliptic_counts(h)
        assert (e.nu2, e.nu3) == (0, 0), h.level
        assert tilde_subgroup(h).order == 1, h.level
        if d_n(h.level) // h.level >= 3:
            assert applicability(h).verdict is not Verdict.INAPPLICABLE, h.level


def test_criterion_06_order_test_forces_three_cusps_across_corpus():
    tested = 0
    for kind in SubgroupKind:
        for n in range(2, 31):
            t = tilde_subgroup(standard_subgroup(kind, n))
            if forces_three_cusps(t):
                assert curve_invariants(t).nu_inf >= 3, (kind.value, n)
                tested += 1
    assert tested > 0


def test_criterion_07_bound_engine_matches_independent_reference():
    t0 = time.monotonic()
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
        ref_main, lev = R.ref_ln_bound_cusps(n, d, disc, r, places)
        assert main.level_used == lev and rel(main.ln_bound, ref_main) < 1e-15
        cov = bound_main1(n, field, sset)
        ref_cov, lev1 = R.ref_ln_bound_covering(n, d, disc, r, places)
        assert cov.level_used == lev1 and rel(cov.ln_bound, ref_cov) < 1e-15
    assert time.monotonic() - t0 < 60.0


def test_criterion_08_hand_checkable_anchors_to_1e20():
    with mp.workdps(80):
        assert rel(lambda_ln(2, UP), 150 * mp.log(6)) < 1e-20
        assert rel(lambda_ln(2, DOWN), 150 * mp.log(6)) < 1e-20
        anchor = mp.mpf(5) / 2 * mp.log(5) + 4 * mp.log(5 * mp.log(5))
        field, sset = NumberFieldSpec(1, 1), SSetSpec(1)
        assert rel(ln_delta0(5, field, sset, UP), anchor) < 1e-20
        assert rel(ln_delta0(5, field, sset, DOWN), anchor) < 1e-20


def test_criterion_09_rounding_soundness_and_monotonicity_zero_violations():
    # Soundness: enclosures computed at low precision must contain the tighter
    # high-precision ones, so Up values can only shrink toward the true value.
    violations = 0
    for n, d, disc, r, places in grid_points():
        field = NumberFieldSpec(d, disc)
        sset = SSetSpec(r, places)
        for fn in (bound_main, bound_main1):
            u64 = fn(n, field, sset, prec=64).ln_bound
            u256 = fn(n, field, sset, prec=256).ln_bound
            d64 = fn(n, field, sset, rounding=DOWN, prec=64).ln_bound
            d256 = fn(n, field, sset, rounding=DOWN, prec=256).ln_bound
            if not u64 >= u256 >= d256 >= d64:
                violations += 1

    # Monotonicity in |D|, p and the constant C.  On the summed route the
    # increments are certifiable strictly (Down at the larger input beats Up
    # at the smaller one).  On the exponentiated route the true increments sit
    # far below the representable resolution, so the check there is that no
    # comparison ever certifies a decrease.
    s = SSetSpec(1, ((3, 1),))
    prev_up = None
    for disc in (1, 23, 10**4, 10**12):
        down = bound_main(7, NumberFieldSpec(2, disc), s, rounding=DOWN)
        if prev_up is not None and not down.ln_bound > prev_up:
            violations += 1
        prev_up = bound_main(7, NumberFieldSpec(2, disc), s).ln_bound
    base_up = bound_main(7, NumberFieldSpec(2, 23), s).ln_bound
    if not bound_main(7, NumberFieldSpec(2, 23), SSetSpec(1, ((101, 1),)),
                      rounding=DOWN).ln_bound > base_up:
        violations += 1
    if not bound_main(7, NumberFieldSpec(2, 23), s, ln_c=5.0,
                      rounding=DOWN).ln_bound > base_up:
        violations += 1

    big_primes = (997, 991, 983)
    for n, d, disc, r, places in grid_points():
        sset = SSetSpec(r, places)
        for fn in (bound_main, bound_main1):
            base_down = fn(n, NumberFieldSpec(d, disc), sset,
                           rounding=DOWN).ln_bound
            bumps = [fn(n, NumberFieldSpec(d, disc * 1000), sset).ln_bound,
                     fn(n, NumberFieldSpec(d, disc), sset, ln_c=1.0).ln_bound]
            if places:
                raised = tuple((big_primes[i], f)
                               for i, (_p, f) in enumerate(places))
                bumps.append(fn(n, NumberFieldSpec(d, disc),
                                SSetSpec(r, raised)).ln_bound)
            for bumped_up in bumps:
                if bumped_up < base_down:
                    violations += 1
    assert violations == 0


def test_criterion_10_partition_lemma_and_lifted_reduction_inequality():
    for d_l in range(1, 25):
        for total in range(1, d_l + 1):
            seen = set()
            for part in R.partitions(total):
                assert sum(part) == total and part[0] >= 1 and part == sorted(part)
                seen.add(tuple(part))
                prod = 1
                for f in part:
                    prod *= f
                assert prod <= 2 ** d_l, (d_l, part)
            assert len(seen) == R.PARTITION_COUNTS[total], total

    rng = random.Random(1729)
    configs = [(2, 1, 1, 1, ()), (3, 1, 5, 1, ((2, 1),)),
               (4, 2, 44, 1, ((3, 2),)), (5, 1, 1, 2, ((7, 1),)),
               (6, 2, 23, 1, ((2, 2), (5, 1))), (7, 3, 49, 1, ((11, 1),)),
               (8, 1, 3, 2, ((3, 1), (13, 1))), (6, 1, 1, 1, ((2, 1),)),
               (5, 2, 8, 1, ((5, 2),)), (7, 1, 7, 1, ())]
    checked = 0
    for level, d, disc, r, places in configs:
        field = NumberFieldSpec(d, disc)
        sset = SSetSpec(r, places)
        dl = d_n(level)
        phi = euler_phi(level)
        rhs = (XReal.from_int(2, DOWN).log().scale(sset.s * phi * dl)
               .add(ln_delta(level, field, sset, DOWN)))
        for _ in range(1000):
            d0 = rng.randint(d, d * dl)
            disc0 = rng.randint(1, 10**30)
            prod = XReal.from_int(1, UP)
            lifted = 0
            for p, f in places:
                total = rng.randint(1, dl)
                lnp = XReal.from_int(p, UP).log()
                while total:
                    k = rng.randint(1, total)
                    prod = prod.mul(lnp.scale(k * f))
                    lifted += 1
                    total -= k
            s0 = rng.randint(1, r * dl) + lifted
            lhs = delta1_ln(level, NumberFieldSpec(d0, disc0), prod, s0, UP)
            assert lhs <= rhs, (level, d0, disc0)
            checked += 1
    assert checked == 10**4
