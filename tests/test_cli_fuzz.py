"""Fuzz of the command line: every argv and every ``--spec`` job document
ends in a documented exit code.

Levels are either admissible and small (2..64) or far above the cap, so
that each example stays one fast job.  Place primes and ``--primes-only``
levels go up to 10^40, past the bound below which the primality test is
exact; a probable prime above it must exit 3.
"""

import contextlib
import io
import json
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from jbound import invariants
from jbound.cli import main

EXIT_CODES = {0, 2, 3, 4}


def mostly(valid, invalid):
    """``valid`` seven times in eight, so that most jobs get past parsing."""
    return st.integers(0, 7).flatmap(lambda k: valid if k else invalid)


SMALL_LEVEL = st.integers(2, 64)
# primes below and above 3317044064679887385961981, where is_prime stops
# being exact
BIG_PRIMES = [10 ** 15 + 37, 2 ** 61 - 1, 2 ** 89 - 1, 2 ** 127 - 1]
# |SL2(Z/N)| > (6/pi^2) N^3 exceeds the cap 10^7 for every N >= 255
LARGE_LEVEL = st.one_of(st.integers(255, 10 ** 40), st.sampled_from(BIG_PRIMES))
HUGE_LEVEL = st.one_of(LARGE_LEVEL, st.sampled_from([3 ** 200, 10 ** 4000]))
BAD_NUMBER = st.sampled_from(["", "x", "0", "1", "-7", "1e3", "17.9", "0x11"])

LEVEL_TEXT = mostly(st.one_of(SMALL_LEVEL, HUGE_LEVEL).map(str), BAD_NUMBER)
FAMILY = mostly(st.sampled_from(["gamma0", "gamma1", "gamma", "full"]), st.just("borel"))
MATRIX = mostly(
    st.sampled_from(["0,-1,1,0", "1,1,0,1", "1,0,1,1", "-1,0,0,-1", "2,1,1,1", "3,2,1,1"]),
    st.lists(st.one_of(st.integers(-3, 70).map(str), st.sampled_from(["", "x", "1.5"])),
             min_size=3, max_size=5).map(",".join))
GENS_TEXT = mostly(st.lists(MATRIX, min_size=1, max_size=3).map(";".join),
                   st.sampled_from(["", ";", " ; "]))
PRECISION_TEXT = mostly(
    st.sampled_from(["8", "53", "128", "200", "1024", "8192"]),
    st.one_of(st.sampled_from(["7", "8193", "-1", "1e3", "x"]),
              st.integers(-(10 ** 30), 10 ** 30).map(str)))
LNC_TEXT = mostly(
    st.one_of(st.sampled_from(["0", "2.5", "-1e300", "1e308"]),
              st.floats(-1e6, 1e6).map(repr)),
    st.one_of(st.sampled_from(["1e999", "nan", "-inf", "x", ""]),
              st.floats().map(repr)))
PLACE_TEXT = mostly(
    st.tuples(st.sampled_from([2, 3, 5, 7, 11, 97, 7919] + BIG_PRIMES), st.integers(1, 3))
    .map(lambda pf: f"{pf[0]}^{pf[1]}"),
    st.one_of(st.integers(-3, 10 ** 40).map(str),
              st.tuples(st.integers(-3, 200), st.integers(-2, 12))
              .map(lambda pf: f"{pf[0]}^{pf[1]}"),
              st.sampled_from(["", "^", "3^", "^2", "x", "2^x", "3^2^1"])))


@st.composite
def job_argv(draw):
    argv = [draw(st.sampled_from(["invariants", "bound"])), f"--level={draw(LEVEL_TEXT)}"]
    if draw(st.booleans()):
        argv.append(f"--gens={draw(GENS_TEXT)}")
    else:
        argv.append(f"--subgroup={draw(FAMILY)}")
    if draw(st.booleans()):
        argv.append(f"--precision={draw(PRECISION_TEXT)}")
    if draw(st.booleans()):
        argv.append(f"--lnC={draw(LNC_TEXT)}")
    for place in draw(st.lists(PLACE_TEXT, max_size=2)):
        argv.append(f"--place={place}")
    if draw(st.booleans()):
        argv.append(f"--degree={draw(mostly(st.integers(1, 4), st.integers(-1, 0)))}")
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@st.composite
def tables_argv(draw):
    primes_only = draw(st.booleans())
    # a primality test of a 4000-digit level takes seconds
    start = draw(st.one_of(SMALL_LEVEL, LARGE_LEVEL if primes_only else HUGE_LEVEL))
    stop = start + draw(st.integers(-1, 1))
    argv = ["tables", f"--family={draw(FAMILY)}", f"--from={start}", f"--to={stop}"]
    if primes_only:
        argv.append("--primes-only")
    return argv


ARGV = mostly(st.one_of(job_argv(), job_argv(), tables_argv()),
              st.lists(st.sampled_from(["bound", "--level", "5", "--bogus", "-h"]),
                       max_size=3))


def assert_documented_exit(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch("sys.stdin", io.StringIO(stdin)):
            code = main(argv)
    finally:
        # one job's images at a time, not every level's SL2(Z/N) at once
        for cached in (invariants.standard_subgroup, invariants.elliptic_counts,
                       invariants.curve_invariants, invariants.tilde_subgroup):
            cached.cache_clear()
    assert code in EXIT_CODES, (argv, stdin, code, err.getvalue())
    if code:
        assert err.getvalue().startswith("error:"), (argv, stdin, err.getvalue())


@settings(derandomize=True, deadline=None, max_examples=150)
@given(argv=ARGV)
def test_every_argv_ends_in_a_documented_exit_code(argv):
    assert_documented_exit(argv)


# ---- job documents ----

# stands for an integer of 5000 digits, past the limit of json.loads
LONG_INT = "long-int"
JUNK = st.one_of(
    st.none(), st.booleans(), st.just(LONG_INT), st.just(10 ** 400),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e308, -0.0, 2.5]),
    st.integers(-(10 ** 40), 10 ** 40), st.text(max_size=6),
    st.lists(st.integers(-3, 5), max_size=3), st.just({}), st.just({"level": 5}))


def number_or_text(values):
    return st.one_of(values, values.map(str))


PLACE = st.one_of(PLACE_TEXT, st.tuples(st.sampled_from([2, 3, 5, 7, 97]), st.integers(1, 3))
                  .map(list), JUNK)
SPEC_VALUES = {
    "level": number_or_text(st.one_of(SMALL_LEVEL, LARGE_LEVEL)),
    "subgroup": FAMILY,
    "gens": GENS_TEXT,
    "degree": number_or_text(st.integers(1, 4)),
    "disc": number_or_text(st.integers(1, 10 ** 6)),
    "infPlaces": number_or_text(st.integers(1, 3)),
    "places": st.lists(PLACE, max_size=2),
    "lnC": st.one_of(st.floats(-1e6, 1e6), st.sampled_from(["2.5", "-1e300"])),
    "precision": st.sampled_from([8, 53, 128, 1024, "256"]),
}


@st.composite
def spec_document(draw):
    """A valid document with up to two keys set to junk or added unknown, so
    that each fault meets every check that comes before it."""
    doc = {"level": draw(SPEC_VALUES["level"])}
    for key in draw(st.sets(st.sampled_from(sorted(SPEC_VALUES)))):
        doc[key] = draw(SPEC_VALUES[key])
    for key in draw(st.lists(st.sampled_from([*SPEC_VALUES, "bogus", "Level", ""]),
                             max_size=2)):
        doc[key] = draw(JUNK)
    return doc


DOCUMENT = mostly(spec_document(), st.one_of(st.lists(spec_document(), max_size=2), JUNK))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(command=st.sampled_from(["invariants", "bound"]), doc=DOCUMENT)
def test_every_spec_document_ends_in_a_documented_exit_code(command, doc):
    text = json.dumps(doc).replace(json.dumps(LONG_INT), "1" * 5000)
    assert_documented_exit([command, "--spec", "-"], text)
