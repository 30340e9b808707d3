"""Command-line behavior: exit codes, text and JSON output, job documents."""

import json
import subprocess
import sys

import pytest

from jbound import invariants
from jbound.cli import (
    EXIT_CAP_EXCEEDED,
    EXIT_INAPPLICABLE,
    EXIT_OK,
    EXIT_SPEC_ERROR,
    MAX_PRECISION,
    JobSpec,
    build_report,
    main,
    render_tables,
    report_from_json,
    report_to_json,
)


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

    # --disc overrides the document value; verify via the JSON report
    code, out, _err = run(capsys, "bound", "--spec", str(path),
                          "--disc", "1", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["schema"] == 1


def test_spec_unknown_keys_rejected(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"level": 5, "bogus": 1}))
    code, _out, err = run(capsys, "invariants", "--spec", str(path))
    assert code == EXIT_SPEC_ERROR
    assert "bogus" in err


def test_spec_malformed_json(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text("{not json")
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


# ---- JSON report ----

def test_json_report_round_trip():
    spec = JobSpec(level=17, subgroup="gamma0")
    rep = build_report(spec, want_bound=True)
    text = report_to_json(rep)
    again = report_from_json(text)
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
    restored = report_from_json(out)
    assert restored.bound.ln_c_coefficient == 998784


def test_json_invariants_has_no_bound(capsys):
    _code, out, _err = run(capsys, "invariants", "--level", "5",
                           "--subgroup", "gamma", "--json")
    doc = json.loads(out)
    assert doc["bound"] is None
    assert doc["command"] == "invariants"


# ---- each image's invariants once ----

@pytest.mark.parametrize("kind, n, job", [
    ("gamma0", 17, lambda: main(["bound", "--level", "17", "--subgroup", "gamma0"])),
    ("gamma1", 13, lambda: render_tables("gamma1", 13, 13, False)),
])
def test_job_counts_each_images_cusps_once(monkeypatch, capsys, kind, n, job):
    """A job counts the cusps of H and of its tilde once each, and an
    identical second job reads every invariant from the caches."""
    counted = []
    cusp_count = invariants.cusp_count

    def counting(H, *args):
        counted.append(H)
        return cusp_count(H, *args)

    monkeypatch.setattr(invariants, "cusp_count", counting)
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
    body = out.splitlines()[1:]
    levels = [int(line.split()[1]) for line in body]
    assert levels == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_tables_match_goldens(capsys):
    import pathlib
    golden_dir = pathlib.Path(__file__).parent / "golden"
    for family in ("gamma0", "gamma1", "gamma", "full"):
        path = golden_dir / f"{family}_02_30.txt"
        assert path.exists(), f"missing golden table {path}"
        got = render_tables(family, 2, 30, False)
        assert got == path.read_text(), family


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "jbound", "tables", "--family", "gamma0",
         "--to", "12"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    first = proc.stdout.splitlines()[0].split()
    assert first[:3] == ["family", "N", "mu"]
