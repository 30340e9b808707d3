"""Command-line behavior: exit codes, text and JSON output, job documents."""

import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from jbound import bounds, cli, invariants, sl2n
from jbound.cli import (
    EXIT_CAP_EXCEEDED,
    EXIT_INAPPLICABLE,
    EXIT_OK,
    EXIT_SPEC_ERROR,
    MAX_PRECISION,
    build_report,
    main,
    render_tables,
    report_to_json,
)
from jbound.numtheory import sl2_order
from test_acceptance import grid_points


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- exit codes ----

def test_exit_ok(capsys):
    code, out, err = run(capsys, "invariants", "--level", "11", "--subgroup", "gamma0")
    assert code == EXIT_OK
    assert err == ""


def test_exit_inapplicable(capsys):
    code, out, err = run(capsys, "bound", "--level", "2", "--subgroup", "full")
    assert code == EXIT_INAPPLICABLE
    assert "1 cusp" in err


def test_exit_spec_error(capsys):
    cases = [
        ("invariants", "--level", "1"),
        ("invariants", "--level", "5", "--subgroup", "borel"),
        ("invariants", "--level", "5", "--gens", "1,2,3"),
        ("invariants", "--level", "5", "--gens", "1,0,0,2"),
        ("invariants", "--level", "11", "--gens", ""),
        ("bound", "--level", "5", "--degree", "0"),
        ("bound", "--level", "5", "--place", "4"),
        ("bound", "--level", "5", "--place", "3^x"),
        ("bound",),
        ("invariants", "--level", "5", "--precision", "4"),
    ]
    for argv in cases:
        code, _out, err = run(capsys, *argv)
        assert code == EXIT_SPEC_ERROR, argv
        assert err.startswith("error:"), argv


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_lnc_is_spec_error(capsys, value):
    code, out, err = run(capsys, "bound", "--level", "11", f"--lnC={value}")
    assert code == EXIT_SPEC_ERROR
    assert out == "" and "lnC must be finite" in err


def test_residue_degree_above_field_degree_is_spec_error(capsys):
    code, _out, err = run(capsys, "bound", "--level", "11", "--place", "3^5",
                          "--degree", "2")
    assert code == EXIT_SPEC_ERROR
    assert "exceeds the field degree" in err


def test_precision_above_the_cap_is_spec_error(capsys):
    code, _out, err = run(capsys, "bound", "--level", "11", "--precision", "100000000")
    assert code == EXIT_SPEC_ERROR
    assert str(MAX_PRECISION) in err
    code, _out, _err = run(capsys, "bound", "--level", "11",
                           "--precision", str(MAX_PRECISION))
    assert code == EXIT_OK


def test_exit_cap_exceeded(capsys):
    code, _out, err = run(capsys, "invariants", "--level", "9999",
                          "--subgroup", "gamma")
    assert code == EXIT_CAP_EXCEEDED
    assert "cap" in err


@pytest.mark.parametrize("argv", [
    ("invariants", "--level", "1500", "--subgroup", "gamma1"),
    ("invariants", "--level", "300", "--gens", "0,299,1,0;1,1,0,1"),
    ("bound", "--level", str(2 ** 127 - 1)),
    ("invariants", "--level", str(2 ** 127 - 1), "--subgroup", "full"),
    ("tables", "--from", str(2 ** 127 - 1), "--to", str(2 ** 127 + 1)),
], ids=["gamma1-1500", "gens-300", "bound-2^127-1", "full-2^127-1", "tables-2^127-1"])
def test_oversized_level_is_refused_before_any_sweep(monkeypatch, capsys, argv):
    """The level is refused before a cusp sweep, a closure or a factorisation
    of the level starts: the S, T closure at level 300 would build 10^7
    matrices, and 2^127 - 1 is a prime that trial division never factors."""
    counted = []
    monkeypatch.setattr(invariants, "_counts", counted.append)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CAP_EXCEEDED
    assert out == "" and "exceeds the cap" in err
    assert counted == []


@pytest.mark.parametrize("refused, argv", [
    (221, ("tables", "--family", "gamma0", "--from", "2", "--to", "100000")),
    (221, ("tables", "--family", "gamma1", "--from", "2", "--to", "100000")),
    (223, ("tables", "--family", "full", "--primes-only", "--from", "2", "--to", "100000")),
], ids=["gamma0", "gamma1", "full-primes-only"])
def test_over_cap_table_range_is_refused_before_any_row(monkeypatch, capsys, refused, argv):
    """The cap is first exceeded at level 221 (223 among the primes), and the
    range is refused before row 2 is computed: the rows below 221 used to
    take 26.5 s for gamma0 before the table ended with exit 4 anyway."""
    counted = []
    monkeypatch.setattr(invariants, "_counts", counted.append)
    monkeypatch.setattr(cli, "standard_subgroup", counted.append)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == EXIT_CAP_EXCEEDED
    assert out == "" and f"|SL2(Z/{refused})| exceeds the cap" in err
    assert counted == []


@pytest.mark.parametrize("argv", [
    ("bound", "--level", "11", "--place", str(2 ** 127 - 1)),
    ("tables", "--primes-only", "--from", str(2 ** 127 - 1), "--to", str(2 ** 127 - 1)),
], ids=["place-2^127-1", "tables-primes-only-2^127-1"])
def test_uncertifiable_prime_is_spec_error_at_once(capsys, argv):
    """2^127 - 1 is prime, but above the bound where the primality test is
    exact, so it is refused without factoring."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.1
    assert code == EXIT_SPEC_ERROR
    assert out == "" and "cannot certify primality" in err


@pytest.mark.parametrize("argv", [
    ("bound", "--level", "11", "--place", str(10 ** 3999 + 3)),
    ("tables", "--primes-only", "--from", str(10 ** 3999 + 3), "--to", str(10 ** 3999 + 3)),
], ids=["place-4000-digits", "tables-primes-only-4000-digits"])
def test_huge_candidate_is_spec_error_before_any_base(capsys, argv):
    """10^3999 + 3 has no prime factor up to 41 and more than 1024 bits: it is
    refused before a strong-test base is tried, each of which would take
    seconds.  As a tables level it used to print only the header."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.1
    assert code == EXIT_SPEC_ERROR
    assert out == "" and "cannot certify primality" in err


@pytest.mark.parametrize("family", ["gamma0", "gamma1", "gamma"])
def test_cap_boundary_is_the_order_of_sl2(capsys, family):
    # |SL2(Z/240)| = 8847360 and |SL2(Z/241)| = 13997280 around the cap 10^7
    code, out, _err = run(capsys, "invariants", "--level", "240", "--subgroup", family)
    assert code == EXIT_OK and out.startswith(f"subgroup {family} level 240\n")
    code, out, _err = run(capsys, "invariants", "--level", "241", "--subgroup", family)
    assert code == EXIT_CAP_EXCEEDED and out == ""


def test_tilde_from_every_elliptic_element(capsys):
    # one conjugate of s per elliptic coset generates only an order-4
    # subgroup here, which would have 3 cusps but ramifies over H
    gens = ("--level", "4", "--gens", "0,3,1,0;0,3,1,2")
    code, out, _err = run(capsys, "invariants", *gens)
    assert code == EXIT_OK
    assert "tilde order 8  mu 6  nuInf 2  nu2 2  nu3 0  genus 0\n" in out
    assert "verdict Inapplicable" in out
    code, _out, err = run(capsys, "bound", *gens)
    assert code == EXIT_INAPPLICABLE
    assert "2 cusp(s)" in err


def test_unknown_subcommand_is_spec_error(capsys):
    code, _out, _err = run(capsys, "frobnicate")
    assert code == EXIT_SPEC_ERROR


# ---- text output ----

def test_invariants_text_gamma0_11(capsys):
    _code, out, _err = run(capsys, "invariants", "--level", "11",
                           "--subgroup", "gamma0")
    assert out == (
        "subgroup gamma0 level 11\n"
        "mu 12  nuInf 2  nu2 0  nu3 0  genus 1\n"
        "tilde order 1  mu 660  nuInf 60  nu2 0  nu3 0  genus 26\n"
        "verdict MainViaTilde  (three-cusp order criterion: holds)\n")


def test_invariants_text_principal_5(capsys):
    _code, out, _err = run(capsys, "invariants", "--level", "5",
                           "--subgroup", "gamma")
    assert out == (
        "subgroup gamma level 5\n"
        "mu 60  nuInf 12  nu2 0  nu3 0  genus 0\n"
        "tilde order 1  mu 60  nuInf 12  nu2 0  nu3 0  genus 0\n"
        "verdict MainDirect  (three-cusp order criterion: holds)\n")


def test_invariants_text_full_3(capsys):
    _code, out, _err = run(capsys, "invariants", "--level", "3",
                           "--subgroup", "full")
    assert out == (
        "subgroup full level 3\n"
        "mu 1  nuInf 1  nu2 1  nu3 1  genus 0\n"
        "tilde order 24  mu 1  nuInf 1  nu2 1  nu3 1  genus 0\n"
        "verdict Inapplicable  (three-cusp order criterion: fails)\n")


def test_explicit_generators(capsys):
    code, out, _err = run(capsys, "invariants", "--level", "5",
                          "--gens", "0,4,1,0")
    assert code == EXIT_OK
    assert "subgroup gens:0,4,1,0 level 5" in out
    assert "mu 30  nuInf 6  nu2 2  nu3 0  genus 0" in out
    # negative entries are reduced mod the level
    code2, out2, _err = run(capsys, "invariants", "--level", "5",
                            "--gens", "0,-1,1,0")
    assert code2 == EXIT_OK
    assert "mu 30  nuInf 6  nu2 2  nu3 0  genus 0" in out2


def test_bound_text_contains_marked_values_and_warnings(capsys):
    _code, out, _err = run(capsys, "bound", "--level", "17",
                           "--subgroup", "gamma0")
    assert "theorem Main1PrimePowerPart\n" in out
    assert "levelUsed 34\n" in out
    assert "lnC coefficient 998784\n" in out
    assert "(rounded up)" in out
    assert "log10(log10(bound))" in out  # the bound dwarfs 10^(10^6)
    assert out.count("warning:") == 2


def test_small_bound_has_no_loglog_line(capsys):
    _code, out, _err = run(capsys, "bound", "--level", "6",
                           "--subgroup", "gamma")
    assert "log10(bound)" in out
    assert "log10(log10(bound))" not in out


# ---- job documents ----

def test_spec_file_with_flag_override(tmp_path, capsys):
    doc = {"level": 5, "subgroup": "gamma", "degree": 2, "disc": 23,
           "places": ["3", [2, 2]], "lnC": 0.5}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    code, out, _err = run(capsys, "bound", "--spec", str(path))
    assert code == EXIT_OK
    assert "levelUsed 10" in out


# at level 12 the three-cusp route applies, and its bound moves with |D|
SPEC_BASE = {"level": 12, "subgroup": "gamma0", "degree": 2, "disc": 23,
             "infPlaces": 1, "places": ["3"], "lnC": 0.5, "precision": 128}
OVERRIDES = [  # document key, its value a in the document, value b, the flag giving b
    ("level", 12, 13, ["--level", "13"]),
    ("subgroup", "gamma0", "gamma1", ["--subgroup", "gamma1"]),
    ("gens", "0,11,1,0", "1,1,0,1", ["--gens", "1,1,0,1"]),
    ("degree", 2, 3, ["--degree", "3"]),
    ("disc", 23, 49, ["--disc", "49"]),
    ("infPlaces", 1, 2, ["--inf-places", "2"]),
    ("places", ["3"], ["5^2"], ["--place", "5^2"]),
    ("lnC", 0.5, 2.5, ["--lnC", "2.5"]),
    ("precision", 128, 256, ["--precision", "256"]),
]


@pytest.mark.parametrize("key, a, b, flag", OVERRIDES, ids=[o[0] for o in OVERRIDES])
def test_each_flag_overrides_its_document_key(tmp_path, capsys, key, a, b, flag):
    """--spec {key: a} with the flag giving b prints what --spec {key: b}
    prints, and not what --spec {key: a} prints."""
    command = ("invariants",) if key in ("level", "subgroup", "gens") else ("bound", "--json")
    path = tmp_path / "job.json"

    def output(value, *flags):
        path.write_text(json.dumps({**SPEC_BASE, key: value}))
        code, out, err = run(capsys, *command, "--spec", str(path), *flags)
        assert code == EXIT_OK, err
        return out

    overridden = output(a, *flag)
    assert overridden == output(b)
    assert overridden != output(a)


def test_spec_unknown_keys_rejected(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"level": 5, "bogus": 1}))
    code, _out, err = run(capsys, "invariants", "--spec", str(path))
    assert code == EXIT_SPEC_ERROR
    assert "bogus" in err


def test_spec_malformed_json(tmp_path, capsys):
    path = tmp_path / "job.json"
    # the second document is nested deeper than json.loads can recurse
    for text in ("{not json", '{"level": ' + "[" * 200000 + "]" * 200000 + "}"):
        path.write_text(text)
        code, _out, _err = run(capsys, "invariants", "--spec", str(path))
        assert code == EXIT_SPEC_ERROR


def test_spec_integer_beyond_the_str_to_int_limit(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text('{"level": ' + "1" * 5000 + "}")
    code, out, err = run(capsys, "invariants", "--spec", str(path))
    assert code == EXIT_SPEC_ERROR
    assert out == "" and "cannot read job spec" in err


@pytest.mark.parametrize("doc, message", [
    ({"level": 17.9}, "level must be an integer"),
    ({"level": 11, "places": [[2, 1.5]]}, "residue degree must be an integer"),
    ({"level": 11, "places": [["x", 1]]}, "place prime must be an integer"),
    ({"level": 11, "degree": 2.5}, "degree must be an integer"),
    ({"level": 11, "precision": 256.0}, "precision must be an integer"),
    ({"level": True}, "level must be an integer"),
    ({"level": 11, "places": 5}, "places must be a list"),
    ({"level": 11, "gens": 5}, "gens must be a string"),
    ({"level": 11, "gens": []}, "gens must be a string"),
    ({"level": 11, "lnC": float("nan")}, "lnC must be finite"),
    ({"level": 11, "lnC": "inf"}, "lnC must be finite"),
    ({"level": 11, "lnC": 10 ** 400}, "bad lnC: int too large"),
    ({"level": 11, "lnC": True}, "lnC must be a number"),
    ({"level": 11, "gens": ""}, "empty generator list"),
])
def test_spec_values_are_strict(tmp_path, capsys, doc, message):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "bound", "--spec", str(path))
    assert code == EXIT_SPEC_ERROR, doc
    assert out == "" and message in err, doc


def test_spec_from_stdin():
    proc = subprocess.run(
        [sys.executable, "-m", "jbound", "invariants", "--spec", "-"],
        input='{"level": 11, "subgroup": "gamma0"}',
        capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert "mu 12  nuInf 2" in proc.stdout


def test_one_parser_serves_every_call_like_a_fresh_one(capsys):
    """The parser is built once per process; no argument of one call may
    reach the next, whether that call succeeded, failed or printed help."""
    sequence = [
        ("bound", "--level", "11", "--place", "2", "--json"),
        ("bound", "--level", "11", "--bogus"),
        ("bound", "--help"),
        ("bound", "--level", "11", "--json"),
    ]
    cli._make_parser.cache_clear()
    warm = [run(capsys, *argv) for argv in sequence]
    assert cli._make_parser.cache_info().hits == len(sequence) - 1
    assert [code for code, _out, _err in warm] == [EXIT_OK, EXIT_SPEC_ERROR, 0, EXIT_OK]
    for argv, got in zip(sequence, warm):
        cli._make_parser.cache_clear()
        assert run(capsys, *argv) == got, argv
    assert warm[0][1] != warm[3][1]  # a leaked place would show
    assert warm[2][1].startswith("usage:")


# ---- JSON report ----

def test_json_report_round_trip():
    args = cli._make_parser().parse_args(["bound", "--level", "17", "--subgroup", "gamma0"])
    rep = build_report(cli._build_job(args), want_bound=True)
    text = report_to_json(rep)
    again = json.loads(text)
    assert again == rep
    assert report_to_json(again) == text


def test_json_report_fields(capsys):
    code, out, _err = run(capsys, "bound", "--level", "17",
                          "--subgroup", "gamma0", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["command"] == "bound"
    assert doc["verdict"] == "MainViaTilde"
    assert doc["sufficientCriterionHolds"] is True
    assert doc["invariants"] == {"mu": 18, "nuInf": 2, "nu2": 2, "nu3": 0,
                                 "genus": 1}
    assert doc["tilde"]["order"] == 68
    assert doc["tilde"]["invariants"]["nuInf"] == 8
    b = doc["bound"]
    assert b["theorem"] == "Main1PrimePowerPart"
    assert b["levelUsed"] == 34
    assert b["logCCoefficient"] == 998784
    assert b["log10Bound"]["rounding"] == "up"
    assert b["log10Bound"]["decimal"].endswith("e+2659628459")
    assert len(doc["warnings"]) == 2


def test_json_invariants_has_no_bound(capsys):
    _code, out, _err = run(capsys, "invariants", "--level", "5",
                           "--subgroup", "gamma", "--json")
    doc = json.loads(out)
    assert doc["bound"] is None
    assert doc["command"] == "invariants"


def _serialised_xreals(doc):
    """Every serialised XReal in a JSON report: the dicts with a "decimal"."""
    if isinstance(doc, dict):
        if "decimal" in doc:
            yield doc
        else:
            for value in doc.values():
                yield from _serialised_xreals(value)


def test_json_decimals_are_on_the_payload_side_on_the_acceptance_grid(capsys):
    """Each "up" decimal of a bound report, read as an exact fraction, is at
    least its raw payload, and each "down" decimal at most, wherever both
    are small enough to be exact fractions (every component; the Main1
    log10 bounds near 10^(2.7e9) are left to the random-payload test)."""
    precisions = (128, 1024, 4096)
    checked = 0
    for i, (family, (n, d, disc, r, places)) in enumerate(
            (f, point) for f in ("gamma0", "gamma1", "gamma") for point in grid_points()):
        argv = ["bound", "--level", str(n), "--subgroup", family, "--degree", str(d),
                "--disc", str(disc), "--inf-places", str(r),
                "--precision", str(precisions[i % 3]), "--lnC", ("0", "2.5")[i % 2], "--json"]
        for p, f in places:
            argv += ["--place", f"{p}^{f}"]
        code, out, _err = run(capsys, *argv)
        if code == EXIT_INAPPLICABLE:
            continue
        assert code == EXIT_OK, argv
        for doc in _serialised_xreals(json.loads(out)):
            x = cli._xreal_from_json(doc)
            if abs(x.raw[2]) > 10 ** 5 or abs(int(doc["decimal"].split("e")[1])) > 10 ** 4:
                continue
            printed, payload = Fraction(doc["decimal"]), x.to_fraction()
            assert (printed >= payload if doc["rounding"] == "up" else printed <= payload), \
                (argv, doc)
            checked += 1
    assert checked > 1000


# ---- each image's invariants once ----

@pytest.mark.parametrize("kind, n, job", [
    ("gamma0", 17, lambda: main(["bound", "--level", "17", "--subgroup", "gamma0"])),
    ("gamma1", 13, lambda: render_tables("gamma1", 13, 13, False)),
])
def test_job_counts_each_images_cusps_once(monkeypatch, capsys, kind, n, job):
    """A job counts the cusps and elliptic points of H and of its tilde in
    one scan each, and an identical second job reads every invariant from
    the caches."""
    counted = []
    counts = invariants._counts

    def counting(H):
        counted.append(H)
        return counts(H)

    monkeypatch.setattr(invariants, "_counts", counting)
    for cached in (invariants.standard_subgroup, invariants.elliptic_counts,
                   invariants.curve_invariants, invariants.tilde_subgroup):
        cached.cache_clear()
    job()
    H = invariants.standard_subgroup(kind, n)
    tilde = invariants.applicability(H).tilde_image
    assert H != tilde
    assert sorted(counted, key=lambda h: h.order) == [tilde, H]
    job()
    assert len(counted) == 2
    capsys.readouterr()


def test_bound_job_decides_the_route_once(monkeypatch, capsys):
    """build_report hands its Applicability to bound_auto, which does not
    decide the route again."""
    calls = []

    def counting(H):
        calls.append(H)
        return invariants.applicability(H)

    monkeypatch.setattr(cli, "applicability", counting)
    monkeypatch.setattr(bounds, "applicability", counting, raising=False)
    for argv in (("bound", "--level", "17"), ("bound", "--level", "17", "--json")):
        calls.clear()
        code, _out, _err = run(capsys, *argv)
        assert code == EXIT_OK
        assert len(calls) == 1


def test_full_level_job_never_closes_sl2(monkeypatch, capsys):
    """SL2(Z/13) is neither written down nor closed, and its tilde is H
    itself, since s and t generate it, so no closure of its order runs at
    all."""
    full_closures = []
    closure = sl2n.closure

    def counting(n, gens, *args):
        sub = closure(n, gens, *args)
        if sub.order == sl2_order(n):
            full_closures.append(sub)
        return sub

    monkeypatch.setattr(sl2n, "closure", counting)
    monkeypatch.setattr(invariants, "closure", counting)
    for cached in (invariants.standard_subgroup, invariants.elliptic_counts,
                   invariants.curve_invariants, invariants.tilde_subgroup):
        cached.cache_clear()
    code, _out, _err = run(capsys, "invariants", "--level", "13", "--subgroup", "full")
    assert code == EXIT_OK
    assert full_closures == []


def run_limited(megabytes, *argv):
    """``python -m jbound`` in a child process whose address space is
    limited by RLIMIT_AS; the limit acts on the child only."""
    limit = megabytes * 2 ** 20
    return subprocess.run(
        [sys.executable, "-m", "jbound", *argv], capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))


def test_full_group_is_never_written_down(monkeypatch):
    """Every SL2(Z/N) the cap admits, 2..220, is X(1) without a key of it
    written down: the CLI table runs in 1 GB, and in process no count reads
    the keys, which here cannot be written."""
    proc = run_limited(1024, "tables", "--family", "full", "--from", "2", "--to", "220")
    assert proc.returncode == EXIT_OK, proc.stderr
    rows = [row.split() for row in proc.stdout.splitlines()[1:]]
    assert rows == [["full", str(n), "1", "1", "1", "1", "0", str(sl2_order(n)),
                     "1", "Inapplicable"] for n in range(2, 221)]

    def refuse(n):
        raise AssertionError(f"the keys of SL2(Z/{n}) were written down")

    monkeypatch.setattr(sl2n, "_group_keys", refuse)
    for cached in (invariants.standard_subgroup, invariants.elliptic_counts,
                   invariants.curve_invariants, invariants.tilde_subgroup):
        cached.cache_clear()
    for n in range(2, 221):
        app = invariants.applicability(invariants.standard_subgroup("full", n))
        assert app.verdict is invariants.Verdict.INAPPLICABLE, n
        assert app.invariants == app.tilde_invariants == invariants.CurveInvariants(
            1, 1, 1, 1, 0), n
        assert app.tilde_image.order == sl2_order(n), n


def test_gamma0_and_gamma1_are_never_written_down(monkeypatch, capsys):
    """Gamma0(N) and Gamma1(N), 2..220, are tabulated from their definitions:
    with the caches cleared and the family key writer refusing, both tables
    still run in process, with the rows of a run that may write keys."""
    caches = (invariants.standard_subgroup, invariants.elliptic_counts,
              invariants.curve_invariants, invariants.tilde_subgroup)

    def tables(family):
        for cached in caches:
            cached.cache_clear()
        return run(capsys, "tables", "--family", family, "--from", "2", "--to", "220")

    want = {family: tables(family) for family in ("gamma0", "gamma1")}

    def refuse(H):
        raise AssertionError(f"the keys of {H.keys}({H.level}) were written down")

    monkeypatch.setattr(sl2n, "_family_keys", refuse)
    for family, (code, out, err) in want.items():
        assert (code, err, len(out.splitlines())) == (EXIT_OK, "", 220), family
        assert tables(family) == (code, out, err), family


def test_out_of_memory_is_a_request_too_large():
    """A MemoryError ends in one error line and exit 4, not a traceback.
    Closing SL2(Z/200) from T and S needs several hundred MB; 150 MB are
    enough for a small job."""
    assert run_limited(150, "invariants", "--level", "11").returncode == EXIT_OK
    proc = run_limited(150, "invariants", "--level", "200", "--gens", "1,1,0,1;0,199,1,0")
    assert proc.returncode == EXIT_CAP_EXCEEDED
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory") and proc.stderr.count("\n") == 1


# ---- tables ----

def test_tables_deterministic(capsys):
    a = render_tables("gamma0", 2, 30, False)
    b = render_tables("gamma0", 2, 30, False)
    assert a == b
    code, out, _err = run(capsys, "tables", "--family", "gamma0",
                          "--from", "2", "--to", "30")
    assert code == EXIT_OK
    assert out == a


def test_tables_primes_only(capsys):
    code, out, _err = run(capsys, "tables", "--family", "gamma0",
                          "--from", "2", "--to", "30", "--primes-only")
    assert code == EXIT_OK
    header, *body = out.splitlines()
    levels = [int(line.split()[1]) for line in body]
    assert levels == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    # a huge composite level is skipped before the level is refused
    code, out, _err = run(capsys, "tables", "--primes-only",
                          "--from", str(10 ** 30), "--to", str(10 ** 30))
    assert code == EXIT_OK
    assert out.splitlines() == [header]


def test_tables_match_goldens(capsys):
    import pathlib
    golden_dir = pathlib.Path(__file__).parent / "golden"
    for family in ("gamma0", "gamma1", "gamma", "full"):
        path = golden_dir / f"{family}_02_30.txt"
        assert path.exists(), f"missing golden table {path}"
        got = render_tables(family, 2, 30, False)
        assert got == path.read_text(), family


BOUND_GOLDENS = {
    "gamma0_11": ["--level", "11", "--subgroup", "gamma0"],
    "gamma0_17": ["--level", "17", "--subgroup", "gamma0"],
    "gamma0_12": ["--level", "12", "--subgroup", "gamma0"],
    "gamma_2": ["--level", "2", "--subgroup", "gamma"],
    "gamma0_11_d2_disc23_place3": ["--level", "11", "--subgroup", "gamma0",
                                   "--degree", "2", "--disc", "23", "--place", "3"],
    "gamma0_17_prec1024": ["--level", "17", "--subgroup", "gamma0",
                           "--precision", "1024"],
}


@pytest.mark.parametrize("name", sorted(BOUND_GOLDENS))
def test_bound_reports_match_goldens(capsys, name):
    # every payload and printed decimal of both routes, in both renderings
    import pathlib
    golden_dir = pathlib.Path(__file__).parent / "golden"
    for ext, extra in (("txt", []), ("json", ["--json"])):
        code, out, _err = run(capsys, "bound", *BOUND_GOLDENS[name], *extra)
        assert code == EXIT_OK
        assert out == (golden_dir / f"bound_{name}.{ext}").read_text(), ext


CLOSED_STDOUT_JOBS = {"tables": ("tables", "--to", "30"),
                      "bound-json": ("bound", "--level", "17", "--json"),
                      "help": ("--help",), "bound-help": ("bound", "--help")}


@pytest.mark.parametrize("argv, unbuffered", [
    pytest.param(argv, unbuffered, id=name + "-unbuffered" * unbuffered)
    for name, argv in CLOSED_STDOUT_JOBS.items() for unbuffered in (False, True)])
def test_closed_stdout_is_one_error_line(argv, unbuffered):
    """A stdout whose read end is closed ends in exit 1 and one error line,
    not a BrokenPipeError traceback, nor, for --help written unbuffered, an
    exit 0 with the help lost."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "jbound", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == "error: stdout was closed before the output was written\n"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "jbound", "tables", "--family", "gamma0",
         "--to", "12"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    first = proc.stdout.splitlines()[0].split()
    assert first[:3] == ["family", "N", "mu"]
