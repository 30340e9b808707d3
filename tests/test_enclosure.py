"""An interval enclosure oracle for the height bounds.

Each bound and each of its components is evaluated again over the
acceptance grid with ``mpmath.iv``, whose operations round every endpoint
outward, so the true value lies in the interval.  An Up payload below the
interval's lower end, or a Down payload above its upper end, is a proven
soundness failure; no tolerance enters.  Only the reference's exact integer
level quantities are shared; the formulas are written out again on
intervals, in the reference's forms, not the engine's.
"""

import contextlib
from fractions import Fraction

from mpmath import iv, mp, mpf
from mpmath.libmp import mpf_cmp

import reference as R
from jbound.bounds import NumberFieldSpec, SSetSpec, bound_main, bound_main1
from jbound.xreal import Rounding
from test_acceptance import grid_points

UP, DOWN = Rounding.UP, Rounding.DOWN

IV_PREC = 256
ENGINE_PRECS = (64, 128)
LN_CS = (0, 2.5)
TIGHT = mpf(2) ** -100  # relative width: no payload passes for a wide interval


@contextlib.contextmanager
def iv_precision(bits):
    old = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = old


def _exact(q):
    q = Fraction(q)
    return iv.mpf(q.numerator) / q.denominator


def _places_loglog(places):
    """sum of ln(f ln p) over the finite places, an exact 0 when there are none."""
    return sum((iv.log(f * iv.log(p)) for p, f in places), iv.mpf(0))


def iv_lambda_ln(n):
    bd = R.b_of(n) * R.dn(n)
    return _exact(25 * bd) * iv.log(_exact(bd))


def iv_ln_dstar(n, d, disc, places, lam_ln):
    h_s = sum((f * iv.log(p) for p, f in places), iv.mpf(0)) / d
    return (R.dn(n) * iv.log(disc)
            + (h_s + (1 + iv.log(1728)) * iv.exp(lam_ln)) * d * R.dn(n))


def iv_ln_delta0(level, d, disc, places):
    """ln of the materialized Delta0, as ``reference.ref_ln_delta0`` forms it."""
    phi = R.euler_phi(level)
    inner = iv.mpf(level) ** (d * level) * iv.mpf(disc) ** phi
    lognorms = iv.mpf(1)
    for p, f in places:
        lognorms *= iv.log(iv.mpf(p) ** f)
    return iv.log(iv.mpf(d) ** (-d) * iv.sqrt(inner) * iv.log(inner) ** (d * phi)
                  * lognorms ** phi)


def iv_ln_delta(level, d, places, ln_dstar):
    """ln Delta in log space, as ``reference.ref_ln_delta`` forms it."""
    phi, dl = R.euler_phi(level), R.dn(level)
    ln_inner = level * d * dl * iv.log(level) + phi * ln_dstar
    return (-d * iv.log(d) + ln_inner / 2 + phi * d * dl * iv.log(ln_inner)
            + phi * dl * _places_loglog(places))


def iv_route(level, k, d, s, places, ln_c, delta):
    """(ln bound, C term, log term, p term) of a route with factor k."""
    cterm = 2 * s * level * k * (iv.mpf(ln_c) + iv.log(d * s * k * k * level * level))
    logterm = 3 * s * level * k * iv.log(iv.log(d * level * k))
    pterm = d * level * k * iv.log(R.p_max(places))
    return cterm + logterm + pterm + delta, cterm, logterm, pterm


def iv_main(n, d, disc, r, places, ln_c):
    level = R.m_of(n) or n
    delta0 = iv_ln_delta0(level, d, disc, places)
    ln_bound, cterm, logterm, pterm = iv_route(
        level, 1, d, R.s_of(r, places), places, ln_c, delta0)
    return {"lnBound": ln_bound, "lnCTerm": cterm, "lnLogTerm": logterm,
            "lnPTerm": pterm, "lnDelta0": delta0}


def iv_main1(n, d, disc, r, places, ln_c):
    level = R.m_of(n) or n
    lam = iv_lambda_ln(level)
    dstar = iv_ln_dstar(level, d, disc, places, lam)
    delta = iv_ln_delta(level, d, places, dstar)
    ln_bound, cterm, logterm, pterm = iv_route(
        level, R.dn(level), d, R.s_of(r, places), places, ln_c, delta)
    return {"lnBound": ln_bound, "lnCTerm": cterm, "lnLogTerm": logterm,
            "lnPTerm": pterm, "lnDelta": delta, "lnDstar": dstar, "lnLambda": lam}


def _is_tight(interval):
    lo, hi = (mp.make_mpf(end) for end in interval._mpi_)
    return hi - lo <= max(abs(lo), abs(hi)) * TIGHT


def escapes(x, interval):
    """Whether the payload of ``x`` lies on the wrong side of the interval:
    below it for an Up value, above it for a Down one."""
    lo, hi = interval._mpi_
    if x.rounding is UP:
        return mpf_cmp(x.raw, lo) < 0
    return mpf_cmp(x.raw, hi) > 0


def test_every_bound_payload_lies_on_its_side_of_an_interval_enclosure():
    failures, checked = [], 0
    with iv_precision(IV_PREC):
        ln10 = iv.log(10)
        for n, d, disc, r, places in grid_points():
            field, sset = NumberFieldSpec(d, disc), SSetSpec(r, places)
            for ln_c in LN_CS:
                for fn, oracle in ((bound_main, iv_main), (bound_main1, iv_main1)):
                    want = oracle(n, d, disc, r, places, ln_c)
                    want["log10Bound"] = want["lnBound"] / ln10
                    assert all(_is_tight(v) for v in want.values()), (n, d, disc)
                    for prec in ENGINE_PRECS:
                        for rounding in (UP, DOWN):
                            rep = fn(n, field, sset, ln_c, rounding, prec)
                            got = {**rep.components, "log10Bound": rep.log10_bound}
                            assert got.keys() == want.keys()
                            for name, x in got.items():
                                checked += 1
                                if escapes(x, want[name]):
                                    failures.append((fn.__name__, n, d, disc, r, places,
                                                     ln_c, prec, rounding.name, name))
    assert checked > 10_000
    assert failures == [], failures[:5]
