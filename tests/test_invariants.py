"""Curve invariants: cusp and elliptic counts, genus, the elliptic-stabilizer
subgroup, and route applicability — checked against classical tables and a
brute-force recomputation at small levels."""

import gc
import random
import weakref
from math import gcd, prod

import pytest

import reference as R
from jbound import invariants, sl2n
from jbound.invariants import (
    Applicability,
    CurveInvariants,
    SubgroupKind,
    Verdict,
    applicability,
    curve_invariants,
    elliptic_counts,
    forces_three_cusps,
    psl_index,
    standard_subgroup,
    tilde_subgroup,
    verify_unramified,
)
from jbound.numtheory import d_n, is_prime, prime_factors, sl2_order
from jbound.sl2n import (
    CapExceeded,
    Mat,
    closure,
    enumerate_group,
)


def minus_identity(n):
    return Mat(n, n - 1, 0, 0, n - 1)


PRIMES_TO_97 = [p for p in range(2, 98) if is_prime(p)]

# classical genus of X0(p); the independent anchor for the big table scan
X0_GENUS = {2: 0, 3: 0, 5: 0, 7: 0, 11: 1, 13: 0, 17: 1, 19: 1, 23: 2,
            29: 2, 31: 2, 37: 2, 41: 3, 43: 3, 47: 4, 53: 4, 59: 5, 61: 4,
            67: 5, 71: 6, 73: 5, 79: 6, 83: 7, 89: 7, 97: 7}


def legendre(a, p):
    """Legendre symbol (a|p) for odd prime p via the Euler criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return r - p if r > 1 else r


# ---- standard families ----

def test_standard_subgroup_shapes():
    g0 = standard_subgroup(SubgroupKind.GAMMA0, 11)
    assert g0.order == 110 and g0.contains_minus_i
    g1 = standard_subgroup(SubgroupKind.GAMMA1, 5)
    assert g1.order == 5 and not g1.contains_minus_i
    gp = standard_subgroup(SubgroupKind.PRINCIPAL, 7)
    assert gp.order == 1
    gf = standard_subgroup(SubgroupKind.FULL, 6)
    assert gf.order == 144


def test_standard_subgroup_accepts_strings_and_validates():
    assert standard_subgroup("gamma0", 11) is standard_subgroup(SubgroupKind.GAMMA0, 11)
    with pytest.raises(ValueError):
        standard_subgroup("gamma0", 1)
    with pytest.raises(ValueError):
        standard_subgroup("borel", 5)


def test_standard_subgroup_cap():
    with pytest.raises(CapExceeded):
        standard_subgroup(SubgroupKind.GAMMA0, 9999)
    with pytest.raises(CapExceeded):
        standard_subgroup(SubgroupKind.FULL, 997)
    # 221 is the first level the cap refuses, whatever the family
    for kind in SubgroupKind:
        with pytest.raises(CapExceeded):
            standard_subgroup(kind, 221)
    for n in (220, 222):
        assert standard_subgroup(SubgroupKind.PRINCIPAL, n).order == 1
        assert standard_subgroup(SubgroupKind.GAMMA1, n).order == n


FAMILY_DEFINITIONS = {
    SubgroupKind.GAMMA0: lambda a, b, c, d: c == 0,
    SubgroupKind.GAMMA1: lambda a, b, c, d: c == 0 and a == 1,
    SubgroupKind.PRINCIPAL: lambda a, b, c, d: (a, b, c, d) == (1, 0, 0, 1),
    SubgroupKind.FULL: lambda a, b, c, d: True,
}


def test_families_are_their_definitions_and_their_generators_close_to_them():
    """Each family's keys are its definition filtered from all of SL2(Z/N);
    its generators close to it, and they are the subsequence that closing
    the family's generator list keeps: T and then every unit diagonal for
    Gamma0(N), S and T for SL2(Z/N).  SL2(Z/N) stores no keys, and so does
    the closure of its generators, which equals and hashes like it; its
    elements, read, are still the definition."""
    for n in range(2, 61):
        group = list(R.sl2_elements(n))
        t = Mat(n, 1, 1, 0, 1)
        listed = {
            SubgroupKind.GAMMA0: [t] + [Mat(n, u, 0, 0, pow(u, -1, n))
                                        for u in range(1, n) if gcd(u, n) == 1],
            SubgroupKind.GAMMA1: [t],
            SubgroupKind.PRINCIPAL: [],
            SubgroupKind.FULL: [Mat(n, 0, n - 1, 1, 0), t],
        }
        for kind, member in FAMILY_DEFINITIONS.items():
            if kind is SubgroupKind.FULL and n > 24:
                continue
            H = standard_subgroup(kind, n)
            expected = {((a * n + b) * n + c) * n + d for a, b, c, d in group
                        if member(a, b, c, d)}
            assert H.elements == expected, (kind, n)
            assert closure(n, H.generators) == H, (kind, n)
            assert hash(closure(n, H.generators)) == hash(H), (kind, n)
            assert (H.keys is None) == (kind is SubgroupKind.FULL), (kind, n)
            assert H.generators == closure(n, listed[kind]).generators, (kind, n)


def test_described_families_equal_their_closures_by_content():
    """Gamma0(N) and Gamma1(N) hold no keys, yet each equals and hashes like
    the closure of its generators, which holds them, from either side; their
    order and -I membership are their written elements'.  An image of the
    same level and order, hence the same hash, with other elements is
    unequal: the lower-triangular group against Gamma0(N).  Gamma0(2) is
    Gamma1(2).  A closure meets the caches that a family image filled."""
    for n in [*range(2, 41), 64, 81, 121]:
        for kind in (SubgroupKind.GAMMA0, SubgroupKind.GAMMA1):
            H = standard_subgroup(kind, n)
            written = closure(n, H.generators)
            assert H.keys == kind.value and isinstance(written.keys, frozenset), (kind, n)
            assert H == written and written == H and hash(H) == hash(written), (kind, n)
            assert H.order == len(H.elements), (kind, n)
            minus_i = minus_identity(n)[1:] in R.unpacked(n, H.elements)
            assert H.contains_minus_i == minus_i, (kind, n)
        g0 = standard_subgroup(SubgroupKind.GAMMA0, n)
        lower = closure(n, [Mat(n, m.a, m.c, m.b, m.d) for m in g0.generators])
        assert lower.order == g0.order and hash(lower) == hash(g0), n
        assert lower != g0 and g0 != lower, n
    g0, g1 = standard_subgroup("gamma0", 2), standard_subgroup("gamma1", 2)
    assert g0.keys != g1.keys and g0 == g1 and hash(g0) == hash(g1)
    for n in (35, 64):
        H = standard_subgroup(SubgroupKind.GAMMA0, n)
        inv, tilde = curve_invariants(H), tilde_subgroup(H)
        hits = curve_invariants.cache_info().hits, tilde_subgroup.cache_info().hits
        written = closure(n, H.generators)
        assert curve_invariants(written) is inv and tilde_subgroup(written) is tilde, n
        assert (curve_invariants.cache_info().hits, tilde_subgroup.cache_info().hits) == (
            hits[0] + 1, hits[1] + 1), n


def test_listed_trace_hits_equal_the_filtered_keys():
    """A described family lists its elements of a wanted trace from its
    units; they are exactly its written keys of those traces, for each trace
    set that a scan (with or without -I) or the tilde asks for."""
    for n in [*range(2, 61), 64, 81, 121, 125, 169]:
        for kind in ("gamma0", "gamma1"):
            H = standard_subgroup(kind, n)
            assert isinstance(H.keys, str), (kind, n)
            written = R.unpacked(n, H.elements)
            for traces in ((2, 0, -1, -2), (2, 0, -1), (0, -1)):
                hot = {t % n for t in traces}
                want = sorted(x for x in written if (x[0] + x[3]) % n in hot)
                assert sorted(invariants._trace_hits(H, traces)) == want, (kind, n, traces)


# ---- cusp counts ----

def test_cusp_count_examples():
    assert curve_invariants(closure(5, [])).nu_inf == 12
    assert curve_invariants(standard_subgroup(SubgroupKind.GAMMA0, 11)).nu_inf == 2
    for n in (2, 3, 5, 8, 12):
        assert curve_invariants(standard_subgroup(SubgroupKind.FULL, n)).nu_inf == 1


def test_cusp_count_cap():
    with pytest.raises(CapExceeded):
        curve_invariants(closure(9973, []))


def test_cusp_count_matches_the_orbit_search():
    images = [standard_subgroup(kind, n) for kind in SubgroupKind for n in range(2, 41)]
    images += random_subgroups(240, 1729)
    # uncached: a random image equal to a family's must not leave its own
    # generators in the tilde cache for later tests
    images += [tilde_subgroup.__wrapped__(h) for h in images]
    for h in dict.fromkeys(images):  # a tilde is often its image
        ref = R.ref_cusp_count(h.level, R.unpacked(h.level, h.elements))
        assert curve_invariants(h).nu_inf == ref, h


def test_fixed_vectors_match_brute_counting():
    """_fixed of x and of -x against the unimodular vectors that each fixes,
    counted one by one."""
    rng = random.Random(2718)
    cases = [(n, list(R.sl2_elements(n))) for n in range(2, 17)]
    cases += [(n, rng.sample(sorted(R.sl2_elements(n)), 300)) for n in (25, 27, 32, 49, 64, 81)]
    for n, elements in cases:
        qs = invariants._prime_powers(n)
        vectors = [(v, w) for v in range(n) for w in range(n) if gcd(gcd(v, w), n) == 1]
        for x in elements:
            trace = (x[0] + x[3]) % n
            for sign, (a, b, c, d) in ((1, x), (-1, R._neg(x, n))):
                fixed = sum((a * v + b * w - v) % n == 0 and (c * v + d * w - w) % n == 0
                            for v, w in vectors)
                assert invariants._fixed(qs, a, b, c, d) == fixed, (n, x, (a, b, c, d))
                # det(x - I) = 2 - tr x: x fixes a vector only when tr x = 2 mod n,
                # and -x only when tr x = -2
                assert not fixed or trace == 2 * sign % n, (n, x, sign)


# ---- elliptic counts ----

def test_elliptic_count_examples():
    full = standard_subgroup(SubgroupKind.FULL, 5)
    e = elliptic_counts(full)
    assert (e.nu2, e.nu3) == (1, 1)
    g11 = standard_subgroup(SubgroupKind.GAMMA0, 11)
    e11 = elliptic_counts(g11)
    assert (e11.nu2, e11.nu3) == (0, 0)
    t11 = tilde_subgroup(g11)
    assert t11.order == 1 and t11.generators == ()
    g13 = standard_subgroup(SubgroupKind.GAMMA0, 13)
    e13 = elliptic_counts(g13)
    assert (e13.nu2, e13.nu3) == (2, 2)


def test_elliptic_counts_is_curve_invariants():
    """elliptic_counts is another name for curve_invariants: one function, one cache."""
    assert elliptic_counts is curve_invariants


def test_stabilizer_generator_orders():
    for kind in SubgroupKind:
        for n in range(2, 15):
            h = standard_subgroup(kind, n)
            t = tilde_subgroup(h)
            if t is h:  # H's own generators need not be elliptic
                continue
            allowed = {2, 3} if n == 2 else {3, 4, 6}
            for m in t.generators:
                if m != minus_identity(n):
                    assert closure(n, [m]).order in allowed


# ---- genus and the index identity ----

def test_genus_examples():
    assert curve_invariants(standard_subgroup(SubgroupKind.GAMMA0, 11)).genus == 1
    assert curve_invariants(closure(7, [])).genus == 3
    for n in (2, 3, 4, 5, 6, 7):
        assert curve_invariants(standard_subgroup(SubgroupKind.FULL, n)).genus == 0


def test_curve_invariants_rejects_inconsistent_data():
    with pytest.raises(ValueError):
        CurveInvariants(mu=12, nu_inf=2, nu2=1, nu3=0, genus=1)
    with pytest.raises(ValueError):
        CurveInvariants(mu=1, nu_inf=0, nu2=1, nu3=1, genus=0)


def test_index_identity_on_corpus():
    for kind in SubgroupKind:
        for n in range(2, 21):
            inv = curve_invariants(standard_subgroup(kind, n))
            assert inv.mu == 12 * (inv.genus - 1) + 3 * inv.nu2 + 4 * inv.nu3 + 6 * inv.nu_inf


def test_classical_gamma0_prime_tables():
    for p in PRIMES_TO_97:
        inv = curve_invariants(standard_subgroup(SubgroupKind.GAMMA0, p))
        assert inv.mu == p + 1
        assert inv.nu_inf == 2
        expected_nu2 = 1 if p == 2 else 1 + legendre(-1, p)
        expected_nu3 = 0 if p == 2 else 1 + legendre(-3, p)
        assert inv.nu2 == expected_nu2, p
        assert inv.nu3 == expected_nu3, p
        assert inv.genus == X0_GENUS[p], p


def test_principal_congruence_identities():
    # the trivial image at level N: d_N/N cusps, genus 1 + d_N(N-6)/(12N)
    for n in range(2, 21):
        inv = curve_invariants(closure(n, []))
        dn = d_n(n)
        assert dn % n == 0
        assert inv.nu_inf == dn // n
        assert (inv.nu2, inv.nu3) == (0, 0)
        num = dn * (n - 6)
        assert num % (12 * n) == 0
        assert inv.genus == 1 + num // (12 * n)


# ---- invariance properties ----

def test_invariants_stable_under_generator_regeneration():
    rng = random.Random(2718)
    for n in (5, 7, 8, 12):
        h = standard_subgroup(SubgroupKind.GAMMA0, n)
        base = curve_invariants(h)
        elems = sorted(enumerate_group(n))
        for _ in range(4):
            g = rng.choice(elems)
            conj = [Mat(n, *R._mul(R._mul(g[1:], m[1:], n), R._inv(g[1:], n), n))
                    for m in h.generators]
            hc = closure(n, conj)
            assert hc.order == h.order
            assert curve_invariants(hc) == base


def test_invariants_stable_under_adjoining_minus_i():
    for n in (4, 5, 7, 9):
        h = standard_subgroup(SubgroupKind.GAMMA1, n)
        assert not h.contains_minus_i
        hpm = closure(n, list(h.generators) + [minus_identity(n)])
        assert hpm.order == 2 * h.order
        assert curve_invariants(hpm) == curve_invariants(h)


CACHED = (standard_subgroup, elliptic_counts, curve_invariants, tilde_subgroup)


def test_invariant_caches_are_bounded_and_recompute_after_eviction():
    for cached in CACHED:
        assert cached.cache_info().maxsize == 64
    h = standard_subgroup(SubgroupKind.GAMMA0, 17)
    before = (elliptic_counts(h), curve_invariants(h), tilde_subgroup(h))
    # 64 other images of each kind push level 17 out of every cache
    for n in range(18, 18 + 64):
        curve_invariants(standard_subgroup(SubgroupKind.GAMMA1, n))
        curve_invariants(tilde_subgroup(standard_subgroup(SubgroupKind.GAMMA1, n)))
    misses = [cached.cache_info().misses for cached in CACHED]
    h2 = standard_subgroup(SubgroupKind.GAMMA0, 17)
    assert h2 is not h and h2 == h
    after = (elliptic_counts(h2), curve_invariants(h2), tilde_subgroup(h2))
    assert [cached.cache_info().misses for cached in CACHED] == [m + 1 for m in misses]
    assert after == before
    assert applicability(h2).tilde_image == before[2]



def test_no_image_outlives_the_public_caches():
    """Once the four public caches are cleared, nothing holds an image that
    applicability counted: here a --gens image at 60 that splits, and its
    tilde, the trivial image."""
    n = 60

    def counted():
        h = closure(n, [Mat.make(n, 1, 1, 0, 1), Mat.make(n, 1, 0, 12, 1),
                        Mat.make(n, 7, 0, 0, 43)])
        tilde = applicability(h).tilde_image
        assert tilde != h and [f.order for f in invariants._factors(h)] == [8, 3, 120]
        return weakref.ref(h), weakref.ref(tilde)

    refs = counted()
    for cached in CACHED:
        cached.cache_clear()
    gc.collect()
    assert [ref() for ref in refs] == [None, None]

# ---- brute-force recomputation at small levels ----

def brute_invariants(H):
    """Recompute every invariant from the full element set: coset partition,
    orbit count, and matrix conjugation against s and the order-3 element."""
    n = H.level
    G = sorted(m[1:] for m in enumerate_group(n))
    hmats = R.unpacked(n, H.elements)
    hpm = hmats | {R._neg(m, n) for m in hmats}
    mu = len(G) // len(hpm)

    prim = [(a, c) for a in range(n) for c in range(n)
            if gcd(gcd(a, c), n) == 1]
    seen, nu_inf = set(), 0
    for v in prim:
        if v in seen:
            continue
        nu_inf += 1
        stack = [v]
        seen.add(v)
        while stack:
            a, c = stack.pop()
            for ma, mb, mc, md in hpm:
                w = ((ma * a + mb * c) % n, (mc * a + md * c) % n)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)

    covered, reps = set(), []
    for g in G:
        if g not in covered:
            reps.append(g)
            covered.update(R._mul(h, g, n) for h in hpm)
    assert len(reps) == mu

    s = Mat.make(n, 0, -1, 1, 0)[1:]
    tau = Mat.make(n, 0, -1, 1, -1)[1:]
    nu2 = sum(1 for g in reps if R._mul(R._mul(g, s, n), R._inv(g, n), n) in hpm)
    nu3 = sum(1 for g in reps if R._mul(R._mul(g, tau, n), R._inv(g, n), n) in hpm)

    g12 = 12 + mu - 3 * nu2 - 4 * nu3 - 6 * nu_inf
    assert g12 % 12 == 0
    return CurveInvariants(mu, nu_inf, nu2, nu3, g12 // 12)


def test_brute_force_agreement_small_levels():
    rng = random.Random(161803)
    for n in (2, 3, 4, 5, 6):
        subgroups = [standard_subgroup(kind, n) for kind in SubgroupKind]
        elems = sorted(enumerate_group(n))
        for _ in range(6):
            gens = rng.sample(elems, rng.randint(1, 2))
            subgroups.append(closure(n, gens))
        for h in subgroups:
            assert curve_invariants(h) == brute_invariants(h)


# ---- the elliptic-stabilizer subgroup ----

def test_tilde_examples():
    t11 = tilde_subgroup(standard_subgroup(SubgroupKind.GAMMA0, 11))
    assert t11.order == 1

    t17 = tilde_subgroup(standard_subgroup(SubgroupKind.GAMMA0, 17))
    assert t17.order == 68
    assert forces_three_cusps(t17)
    assert curve_invariants(t17).nu_inf == 8

    t19 = tilde_subgroup(standard_subgroup(SubgroupKind.GAMMA0, 19))
    assert t19.order == 114
    assert not forces_three_cusps(t19)  # order test inconclusive here...
    assert curve_invariants(t19).nu_inf >= 3  # ...but the direct count works

    # 4 * 6 * 6 = 144 = |SL2(Z/6)|: the strict inequality fails at equality
    assert not forces_three_cusps(standard_subgroup(SubgroupKind.GAMMA1, 6))

    for n in (3, 5, 7):
        tf = tilde_subgroup(standard_subgroup(SubgroupKind.FULL, n))
        assert tf.order == sl2_order(n)


def test_tilde_equal_to_h_is_h():
    """A tilde of H's order is H, not a second copy of H's element set."""
    for n in (3, 5, 7):
        h = standard_subgroup(SubgroupKind.FULL, n)
        assert tilde_subgroup(h) is h


def test_tilde_is_contained_in_sign_extension():
    for kind in SubgroupKind:
        for n in range(2, 13):
            h = standard_subgroup(kind, n)
            hmats = R.unpacked(n, h.elements)
            hpm = hmats | {R._neg(m, n) for m in hmats}
            t = tilde_subgroup(h)
            assert R.unpacked(n, t.elements) <= hpm


def test_order_criterion_implies_three_cusps_on_corpus():
    for kind in SubgroupKind:
        for n in range(2, 21):
            t = tilde_subgroup(standard_subgroup(kind, n))
            if forces_three_cusps(t):
                assert curve_invariants(t).nu_inf >= 3, (kind, n)


# ---- applicability ----

def test_applicability_examples():
    a = applicability(standard_subgroup(SubgroupKind.PRINCIPAL, 5))
    assert a.verdict is Verdict.MAIN_DIRECT

    a17 = applicability(standard_subgroup(SubgroupKind.GAMMA0, 17))
    assert a17.verdict is Verdict.MAIN_VIA_TILDE
    assert a17.sufficient_criterion_holds
    assert a17.tilde_invariants.nu_inf == 8

    for n in (2, 3, 5, 8):
        af = applicability(standard_subgroup(SubgroupKind.FULL, n))
        assert af.verdict is Verdict.INAPPLICABLE


def test_applicability_gamma0_prime_examples():
    for p in (17, 19, 23, 29, 31, 37):
        a = applicability(standard_subgroup(SubgroupKind.GAMMA0, p))
        assert a.verdict is Verdict.MAIN_VIA_TILDE, p
        assert a.tilde_invariants.nu_inf >= 3, p


def test_elliptic_free_images_have_trivial_tilde():
    cases = [standard_subgroup(SubgroupKind.PRINCIPAL, n) for n in range(2, 21)]
    cases += [standard_subgroup(SubgroupKind.GAMMA1, n) for n in range(4, 21)]
    cases.append(standard_subgroup(SubgroupKind.GAMMA0, 11))
    for h in cases:
        e = elliptic_counts(h)
        assert (e.nu2, e.nu3) == (0, 0)
        t = tilde_subgroup(h)
        assert t.order == 1
        n = h.level
        if d_n(n) // n >= 3:
            assert applicability(h).verdict is not Verdict.INAPPLICABLE, n


# ---- ramification check ----

def test_verify_unramified_examples():
    h17 = standard_subgroup(SubgroupKind.GAMMA0, 17)
    assert verify_unramified(h17, tilde_subgroup(h17))

    full3 = standard_subgroup(SubgroupKind.FULL, 3)
    assert not verify_unramified(full3, closure(3, []))

    assert verify_unramified(h17, h17)


def test_verify_unramified_on_gamma0_corpus():
    for p in (5, 7, 11, 13, 17, 19, 23):
        h = standard_subgroup(SubgroupKind.GAMMA0, p)
        assert verify_unramified(h, tilde_subgroup(h)), p


def test_verify_unramified_preconditions():
    h5 = standard_subgroup(SubgroupKind.GAMMA1, 5)
    g5 = standard_subgroup(SubgroupKind.GAMMA0, 5)
    with pytest.raises(ValueError):
        verify_unramified(h5, g5)  # G not inside +-H
    with pytest.raises(ValueError):
        verify_unramified(g5, standard_subgroup(SubgroupKind.GAMMA0, 7))


# ---- misc ----

def test_psl_index_matches_mu():
    for kind in SubgroupKind:
        for n in (2, 5, 8, 11):
            h = standard_subgroup(kind, n)
            assert psl_index(h) == curve_invariants(h).mu


def test_applicability_carries_tilde_image():
    h = standard_subgroup(SubgroupKind.GAMMA0, 17)
    a = applicability(h)
    assert isinstance(a, Applicability)
    assert a.tilde_image == tilde_subgroup(h)
    assert curve_invariants(a.tilde_image) == a.tilde_invariants


# ---- the conjugacy-class engine against the full-group sweep ----

def random_subgroups(count, seed):
    """Subgroups closed from one or two random elements at levels 2..16."""
    return [closure(n, [Mat(n, *g) for g in gens])
            for n, gens in R.random_generator_sets(count, seed)]


def check_against_sweep(h):
    """nu2 and nu3 must equal the sweep's; the sweep's tilde (one conjugate
    per elliptic coset) must equal the engine's wherever it passes
    verify_unramified.  Returns the sweep's tilde."""
    n = h.level
    nu2, nu3, stab = R.ref_elliptic_sweep(n, R.unpacked(n, h.elements))
    e = elliptic_counts(h)
    assert (e.nu2, e.nu3) == (nu2, nu3), h
    old = closure(n, [Mat(n, *x) for x in stab])
    if verify_unramified(h, old):
        assert tilde_subgroup(h) == old, h
    return old


def test_elliptic_counts_match_full_group_sweep():
    for kind in (SubgroupKind.GAMMA1, SubgroupKind.PRINCIPAL, SubgroupKind.FULL):
        for n in range(2, 31):
            check_against_sweep(standard_subgroup(kind, n))
    for n in range(2, 61):
        check_against_sweep(standard_subgroup(SubgroupKind.GAMMA0, n))


def test_engines_agree_on_random_subgroups():
    ramified_old = 0
    for h in random_subgroups(240, 1729):
        old = check_against_sweep(h)
        hs = R.unpacked(h.level, h.elements)
        for g in (old, tilde_subgroup(h)):
            assert verify_unramified(h, g) == R.ref_unramified(
                h.level, hs, R.unpacked(g.level, g.elements)), h
        ramified_old += not verify_unramified(h, old)
    # the corpus reaches subgroups where one conjugate per coset is too few
    assert ramified_old > 0


def test_tilde_is_unramified_over_h():
    corpus = [standard_subgroup(kind, n) for kind in SubgroupKind
              for n in range(2, 31)]
    for h in corpus + random_subgroups(240, 1729):
        assert verify_unramified(h, tilde_subgroup(h)), h


def test_tilde_contains_every_elliptic_element():
    # the conjugates of s in +-H generate a subgroup of order 8; one
    # conjugate per elliptic coset gives order 4, which ramifies over H
    n = 4
    h = closure(n, [Mat.make(n, 0, 3, 1, 0), Mat.make(n, 0, 3, 1, 2)])
    t = tilde_subgroup(h)
    assert t.order == 8
    assert verify_unramified(h, t)
    assert curve_invariants(t).nu_inf == 2
    assert applicability(h).verdict is Verdict.INAPPLICABLE


# ---- elliptic membership by trace ----

@pytest.mark.parametrize("n", [*range(2, 33), 64, 81])
def test_membership_test_and_centralizer_order_match_the_conjugates(n):
    """_is_elliptic, for x and for -x with unreduced entries, holds exactly
    on the oracle's conjugates of s and of t, and |C| |Cl| = |SL2(Z/n)|."""
    elems, *classes = zip(*R._conjugates(n))
    is_elliptic = invariants._is_elliptic
    for k, cls in enumerate(map(set, classes)):
        assert {x for x in elems if is_elliptic(n, k, *x)} == cls, (n, k)
        assert {R._neg((a, b, c, d), n) for a, b, c, d in elems
                if is_elliptic(n, k, -a, -b, -c, -d)} == cls, (n, k)
        assert invariants._centralizer_order(n, k) * len(cls) == sl2_order(n), (n, k)


# ---- counts one prime power at a time ----

def prime_powers(n):
    """The prime powers q || n."""
    out = []
    for p in R.prime_factors(n):
        q = p
        while n % (q * p) == 0:
            q *= p
        out.append(q)
    return out


def one_factor_counts(h, monkeypatch):
    """The cusp and elliptic counts of h with its factor list forced to
    [h]: the computation at the full level N."""
    with monkeypatch.context() as m:
        m.setattr(invariants, "_factors", lambda h: (h,))
        return invariants._counts(h)


def split_factors(h):
    """The factors of h, checked: one per prime power q || N exactly when
    |h| = prod |h_q|, and then h_q is the image of h mod q."""
    n = h.level
    local = [closure(q, [Mat(q, m.a % q, m.b % q, m.c % q, m.d % q)
                         for m in h.generators]) for q in prime_powers(n)]
    factors = invariants._factors(h)
    if len(local) > 1 and h.order == prod(f.order for f in local):
        assert list(factors) == local, h
    else:
        assert factors == (h,), h
    return factors


def test_local_counts_equal_one_factor_counts(monkeypatch):
    images = [standard_subgroup(kind, n) for kind in SubgroupKind
              for n in range(2, 41 if kind is SubgroupKind.FULL else 61)]
    images += [tilde_subgroup(h) for h in images]
    images += random_subgroups(240, 1729)
    split = 0
    for h in images:
        if len(split_factors(h)) == 1:
            continue
        split += 1
        inv = curve_invariants(h)
        assert (inv.nu_inf, inv.nu2, inv.nu3) == one_factor_counts(h, monkeypatch), h
    # every family image at a level with two or more primes splits
    mixed = [len(prime_powers(n)) > 1 for n in range(2, 61)]
    assert split >= 3 * sum(mixed) + sum(mixed[:39])


# large low-index images at prime-power levels, one factor each, whose
# counts are one scan of all their keys
PRIME_POWER_GENS = {64: "1,1,0,1;1,0,2,1;3,0,0,43", 81: "1,1,0,1;1,0,3,1;2,0,0,41",
                    125: "1,1,0,1;1,0,5,1;2,0,0,63"}


def trace_filter_corpus():
    """Every family image at 2..60 and its tilde, the 240 reference random
    subgroups and the PRIME_POWER_GENS images.  SL2(Z/N) is left out: its
    factors take the closed form and it is its own tilde, so nothing of it
    is scanned."""
    images = [standard_subgroup(kind, n) for kind in SubgroupKind
              if kind is not SubgroupKind.FULL for n in range(2, 61)]
    images += [tilde_subgroup(h) for h in images]
    images += random_subgroups(240, 1729)
    images += [closure(n, [Mat.make(n, *map(int, g.split(","))) for g in gens.split(";")])
               for n, gens in PRIME_POWER_GENS.items()]
    return list(dict.fromkeys(images))


def unfiltered_local_counts(F):
    """_local_counts(F) from _fixed and _is_elliptic on every key of F and on
    its negative, with no trace test and no shortcut when -I is in F."""
    n, qs = F.level, invariants._prime_powers(F.level)
    inside, negated = [0, 0, 0], [0, 0, 0]
    for x in R.unpacked(n, F.elements):
        for sums, y in ((inside, x), (negated, R._neg(x, n))):
            sums[0] += invariants._fixed(qs, *y)
            for k in range(2):
                sums[k + 1] += invariants._is_elliptic(n, k, *y)
    return tuple(zip(inside, negated))


def unfiltered_tilde_elements(h):
    """Every key of h that is elliptic, or whose negative is when -I is not
    in h, in key order, then -I when h holds it: what tilde_subgroup closes."""
    n, signed = h.level, not h.contains_minus_i

    def elliptic(x):
        return any(invariants._is_elliptic(n, k, *x) for k in range(2))

    elems = sorted(Mat(n, *x) for x in R.unpacked(n, h.elements)
                   if elliptic(x) or signed and elliptic(R._neg(x, n)))
    if elems and h.contains_minus_i:
        elems.append(minus_identity(n))
    return elems


def test_traces_zero_and_one_force_minus_identity():
    """x^2 = -I when tr x = 0 and x^3 = -I when tr x = 1 (Cayley-Hamilton),
    so an image without -I has no key of either trace, and the scans need
    not test -x for Cl(s) or Cl(t)."""
    for n in range(2, 17):
        minus = R._neg((1, 0, 0, 1), n)
        for x in R.sl2_elements(n):
            x2 = R._mul(x, x, n)
            if (x[0] + x[3]) % n == 0:
                assert x2 == minus, (n, x)
            if (x[0] + x[3] - 1) % n == 0:
                assert R._mul(x2, x, n) == minus, (n, x)
    for h in trace_filter_corpus():
        if not h.contains_minus_i:
            assert all((a + d) % h.level not in (0, 1)
                       for a, _b, _c, d in R.unpacked(h.level, h.elements)), h


def test_trace_filter_matches_unfiltered_scans(monkeypatch):
    """The scans that decode only the keys of a few traces count what a scan
    of every key counts, and the tilde closes the same element list."""
    images = trace_filter_corpus()
    factors = dict.fromkeys(F for h in images for F in invariants._factors(h)
                            if F.order < sl2_order(F.level))  # all of SL2 is a formula
    for F in factors:
        assert invariants._local_counts(F) == unfiltered_local_counts(F), F
    closed, close = [], invariants.closure

    def recording(n, gens):
        gens = list(gens)
        closed.append((n, gens))
        return close(n, gens)

    monkeypatch.setattr(invariants, "closure", recording)
    scanned = 0
    for h in images:
        elems = unfiltered_tilde_elements(h) if h.order < sl2_order(h.level) else []
        if not elems:
            continue  # no scan: the tilde is H, or the trivial image
        closed.clear()
        tilde_subgroup.__wrapped__(h)
        assert [gens for n, gens in closed if n == h.level] == [elems], h
        scanned += 1
    assert scanned > 100


def test_non_split_image_falls_back_to_one_factor():
    # <-I> at 15: |H| = 2, but its images mod 3 and mod 5 have order 2 each
    n = 15
    h = closure(n, [minus_identity(n)])
    assert [f.order for f in (closure(q, [minus_identity(q)]) for q in (3, 5))] == [2, 2]
    assert invariants._factors(h) == (h,)
    inv = curve_invariants(h)
    nu2, nu3, _stab = R.ref_elliptic_sweep(n, R.unpacked(n, h.elements))
    assert (inv.nu_inf, inv.nu2, inv.nu3) == (R.dn(n) // n, nu2, nu3)
    assert inv == brute_invariants(h)


def reduced_key_by_key(keys, n, q):
    """The keys at level n reduced mod q, one key at a time: a key is
    (a N + b) N^2 + (c N + d), and each half reduces through one table."""
    n2, half = n * n, [a % q * q + b % q for a in range(n) for b in range(n)]
    return {half[k // n2] * q * q + half[k % n2] for k in keys}


def count_closures(m, calls):
    """Send every closure, called from invariants or from within sl2n,
    through a wrapper that appends its level to calls."""
    close = sl2n.closure

    def counted(n, gens):
        calls.append(n)
        return close(n, gens)

    m.setattr(invariants, "closure", counted)
    m.setattr(sl2n, "closure", counted)


def test_every_image_mod_q_is_its_keys_reduced(monkeypatch):
    """sl2n._reduce_mod(h, q) is h's keys reduced mod q, key by key, for
    each q || N: family images at 2..60 (Gamma(N) among them) and their
    tildes, the 240 reference random subgroups, and T, S at 120, a closure
    that reaches SL2(Z/120) and stores no keys.  Gamma0, Gamma1 and SL2
    reduce to the same description at q without a closure call."""
    images = [standard_subgroup(kind, n) for kind in SubgroupKind for n in range(2, 61)]
    images += [tilde_subgroup(h) for h in images]
    images += random_subgroups(240, 1729)
    t_s = closure(120, [Mat.make(120, 1, 1, 0, 1), Mat.make(120, 0, -1, 1, 0)])
    assert t_s.keys is None
    images.append(t_s)
    described = 0
    for h in dict.fromkeys(images):
        calls = []
        with monkeypatch.context() as m:
            count_closures(m, calls)
            local = [sl2n._reduce_mod(h, q) for q in prime_powers(h.level)]
        keys = h.elements  # a described image writes them at each read
        for f in local:
            assert f.elements == reduced_key_by_key(keys, h.level, f.level), (h, f.level)
        split = len(local) > 1 and prod(f.order for f in local) == h.order
        assert invariants._factors(h) == (tuple(local) if split else (h,)), h
        if not isinstance(h.keys, frozenset):
            assert calls == [] and all(f.keys == h.keys for f in local), h
            described += 1
    assert described == 3 * 59  # Gamma1(2) = Gamma0(2) is met once, then T, S at 120
    for n in range(2, 61):
        assert standard_subgroup("gamma", n) == closure(n, []), n


def closures_counted(images, monkeypatch):
    """Calls to closure while applicability runs over the (kind, n) images
    in the given order, from empty caches."""
    calls = []
    for cached in CACHED:
        cached.cache_clear()
    with monkeypatch.context() as m:
        count_closures(m, calls)
        for kind, n in images:
            applicability(standard_subgroup(kind, n))
    return len(calls)


def test_closures_do_not_depend_on_the_order_images_come_in(monkeypatch):
    """Equal images share the cached invariants, so the closures a run makes
    must not depend on which of two equal images came first: Gamma(N) and the
    elliptic-free tilde of Gamma1(N) are both the trivial closure.  The same
    count in any order is what the benchmark's steady counters need."""
    levels = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 17, 25, 27, 30)
    images = [(kind, n) for kind in ("gamma0", "gamma1", "gamma") for n in levels]
    forward = closures_counted(images, monkeypatch)
    assert forward > 0
    assert closures_counted(images[::-1], monkeypatch) == forward
    assert closures_counted(random.Random(17).sample(images, len(images)),
                            monkeypatch) == forward


@pytest.mark.parametrize("kind, n", [("gamma1", 12), ("gamma", 10), ("gamma0", 12)])
def test_elliptic_free_image_never_builds_its_levels_classes(monkeypatch, kind, n):
    """Elliptic counts of zero come from the factors' keys, and the tilde is
    then the trivial image without a membership test at level N."""
    tested = []
    is_elliptic = invariants._is_elliptic

    def recording(level, *args):
        tested.append(level)
        return is_elliptic(level, *args)

    monkeypatch.setattr(invariants, "_is_elliptic", recording)
    for cached in CACHED:
        cached.cache_clear()
    h = standard_subgroup(kind, n)
    a = applicability(h)
    assert (a.invariants.nu2, a.invariants.nu3) == (0, 0)
    assert a.tilde_image == closure(n, []) and a.tilde_image.order == 1
    assert n not in tested
    assert sorted(set(tested)) == sorted(prime_powers(n))


# ---- Diamond-Shurman closed forms (A First Course in Modular Forms, 3.9) ----

def kronecker_minus(a, p):
    """The symbol (-a/p) for a in {1, 3}, with the conventions of the
    closed forms: (-1/2) = 0, (-3/2) = -1 and (-3/3) = 0."""
    if p == 2:
        return 0 if a == 1 else -1
    if p == a:
        return 0
    return 1 if p % (4 if a == 1 else 3) == 1 else -1


def closed_forms(kind, n):
    """(mu, nuInf, nu2, nu3) of Gamma0(n), Gamma1(n) or Gamma(n)."""
    ps = R.prime_factors(n)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    full_index = n * n
    for p in ps:
        full_index = full_index // (p * p) * (p * p - 1)   # [SL2(Z) : Gamma1(n)]
    if kind is SubgroupKind.GAMMA0:
        mu = n
        nu2 = 0 if n % 4 == 0 else 1
        nu3 = 0 if n % 9 == 0 else 1
        for p in ps:
            mu = mu // p * (p + 1)
            nu2 *= 1 + kronecker_minus(1, p)
            nu3 *= 1 + kronecker_minus(3, p)
        nu_inf = sum(R.euler_phi(gcd(d, n // d)) for d in divisors)
        return mu, nu_inf, nu2, nu3
    if kind is SubgroupKind.GAMMA1:
        if n <= 4:
            return {2: (3, 2, 1, 0), 3: (4, 2, 0, 1), 4: (6, 3, 0, 0)}[n]
        nu_inf = sum(R.euler_phi(d) * R.euler_phi(n // d) for d in divisors)
        return full_index // 2, nu_inf // 2, 0, 0
    if n == 2:
        return 6, 3, 0, 0
    mu = full_index * n // 2
    return mu, mu // n, 0, 0


def test_closed_forms_to_level_150():
    kinds = (SubgroupKind.GAMMA0, SubgroupKind.GAMMA1, SubgroupKind.PRINCIPAL)
    for n in range(2, 151):
        for kind in kinds:
            inv = curve_invariants(standard_subgroup(kind, n))
            assert (inv.mu, inv.nu_inf, inv.nu2, inv.nu3) == closed_forms(kind, n), (kind, n)
