"""Curve invariants: cusp and elliptic counts, genus, the elliptic-stabilizer
subgroup, and route applicability — checked against classical tables and a
brute-force recomputation at small levels."""

import random
from math import gcd

import pytest

import reference as R
from jbound.invariants import (
    Applicability,
    CurveInvariants,
    SubgroupKind,
    Verdict,
    applicability,
    curve_invariants,
    cusp_count,
    elliptic_counts,
    forces_three_cusps,
    psl_index,
    standard_subgroup,
    tilde_subgroup,
    verify_unramified,
)
from jbound.numtheory import d_n, is_prime, prime_factors
from jbound.sl2n import (
    CapExceeded,
    Mat,
    SubgroupImage,
    closure,
    element_order,
    enumerate_group,
    group_order,
    identity,
    mat_inv,
    mat_mul,
    mat_neg,
    minus_identity,
)

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
        standard_subgroup(SubgroupKind.GAMMA0, 9999, cap=10**6)
    with pytest.raises(CapExceeded):
        standard_subgroup(SubgroupKind.FULL, 997, cap=10**6)


# ---- cusp counts ----

def test_cusp_count_examples():
    assert cusp_count(closure(5, [])) == 12
    assert cusp_count(standard_subgroup(SubgroupKind.GAMMA0, 11)) == 2
    for n in (2, 3, 5, 8, 12):
        assert cusp_count(standard_subgroup(SubgroupKind.FULL, n)) == 1


def test_cusp_count_cap():
    h = SubgroupImage.from_elements(9973, [identity(9973)], [])
    with pytest.raises(CapExceeded):
        cusp_count(h, cap=10**6)


# ---- elliptic counts ----

def test_elliptic_count_examples():
    full = standard_subgroup(SubgroupKind.FULL, 5)
    e = elliptic_counts(full)
    assert (e.nu2, e.nu3) == (1, 1)
    g11 = standard_subgroup(SubgroupKind.GAMMA0, 11)
    e11 = elliptic_counts(g11)
    assert (e11.nu2, e11.nu3) == (0, 0)
    assert e11.stabilizer_generators == ()
    g13 = standard_subgroup(SubgroupKind.GAMMA0, 13)
    e13 = elliptic_counts(g13)
    assert (e13.nu2, e13.nu3) == (2, 2)


def test_stabilizer_generator_orders():
    for kind in SubgroupKind:
        for n in range(2, 15):
            e = elliptic_counts(standard_subgroup(kind, n))
            allowed = {2, 3} if n == 2 else {3, 4, 6}
            for m in e.stabilizer_generators:
                assert element_order(m) in allowed


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
            conj = [mat_mul(mat_mul(g, m), mat_inv(g)) for m in h.generators]
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


# ---- brute-force recomputation at small levels ----

def brute_invariants(H):
    """Recompute every invariant from the full element set: coset partition,
    orbit count, and matrix conjugation against s and the order-3 element."""
    n = H.level
    G = sorted(enumerate_group(n))
    hpm = set(H.elements) | {mat_neg(m) for m in H.elements}
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
            for m in hpm:
                w = ((m.a * a + m.b * c) % n, (m.c * a + m.d * c) % n)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)

    covered, reps = set(), []
    for g in G:
        if g not in covered:
            reps.append(g)
            covered.update(mat_mul(h, g) for h in hpm)
    assert len(reps) == mu

    s = Mat.make(n, 0, -1, 1, 0)
    tau = Mat.make(n, 0, -1, 1, -1)
    nu2 = sum(1 for g in reps if mat_mul(mat_mul(g, s), mat_inv(g)) in hpm)
    nu3 = sum(1 for g in reps if mat_mul(mat_mul(g, tau), mat_inv(g)) in hpm)

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

    for n in (3, 5, 7):
        tf = tilde_subgroup(standard_subgroup(SubgroupKind.FULL, n))
        assert tf.order == group_order(n)


def test_tilde_is_contained_in_sign_extension():
    for kind in SubgroupKind:
        for n in range(2, 13):
            h = standard_subgroup(kind, n)
            hpm = set(h.elements) | {mat_neg(m) for m in h.elements}
            t = tilde_subgroup(h)
            assert t.elements <= hpm


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

def _tuples(elems):
    return {(m.a, m.b, m.c, m.d) for m in elems}


def random_subgroups(count, seed):
    """Subgroups closed from one or two random elements at levels 2..16."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 16)
        elems = sorted(enumerate_group(n))
        out.append(closure(n, rng.sample(elems, rng.randint(1, 2))))
    return out


def check_against_sweep(h):
    """nu2 and nu3 must equal the sweep's; the sweep's tilde (one conjugate
    per elliptic coset) must equal the engine's wherever it passes
    verify_unramified.  Returns the sweep's tilde."""
    n = h.level
    nu2, nu3, stab = R.ref_elliptic_sweep(n, _tuples(h.elements))
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
        hs = _tuples(h.elements)
        for g in (old, tilde_subgroup(h)):
            assert verify_unramified(h, g) == R.ref_unramified(
                h.level, hs, _tuples(g.elements)), h
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
