"""Command-line front end.

Three subcommands: ``invariants`` (index, cusps, elliptic counts, genus, and
the same for the elliptic-stabilizer subgroup), ``bound`` (the full height
bound report), and ``tables`` (deterministic family tables for regression
testing).  A job can be given as a JSON document via --spec (file or '-' for
stdin); individual flags override fields of the document.  Each field has
one name, its document key: the validated job is a dict keyed by them, and
each flag's argparse dest is its key.

The report is its JSON document: ``build_report`` returns the dict that
--json writes, and the text rendering reads the same dict.

Exit codes: 0 success, 1 stdout was closed before the output was written,
2 no bound route applies, 3 malformed job specification, 4 request too
large: the enumeration cap is exceeded, or the process ran out of memory (a
MemoryError), each with its own message.

Only the exact layer is imported with this module.  ``tables`` and
``invariants`` run without the bound layer (``bounds``, ``xreal``, mpmath) or
``fractions``; the ``bound`` branch imports it.  ``json`` is imported by
--spec and by the JSON writer.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import lru_cache
from typing import TYPE_CHECKING

from .invariants import (
    CurveInvariants,
    InapplicableError,
    SubgroupKind,
    applicability,
    standard_subgroup,
)
from .numtheory import DEFAULT_PREC, is_prime
from .sl2n import CapExceeded, Mat, SubgroupImage, _admit_level, closure

if TYPE_CHECKING:
    from .bounds import BoundReport, NumberFieldSpec, SSetSpec
    from .xreal import XReal

EXIT_OK = 0
EXIT_INAPPLICABLE = 2
EXIT_SPEC_ERROR = 3
EXIT_CAP_EXCEEDED = 4

SCHEMA_VERSION = 1

# Above about 14000 bits a decimal rendering needs more digits than Python
# converts from an integer; 8192 bits evaluate a bound in a fraction of a second.
MAX_PRECISION = 8192

_LOG10_BREAKDOWN_THRESHOLD = 10 ** 6

# The fields of a job by their document keys, each with the value it takes
# when neither the document nor a flag gives it.
_JOB_DEFAULTS = {
    "level": None, "subgroup": "gamma0", "gens": None, "degree": 1, "disc": 1,
    "infPlaces": 1, "places": (), "lnC": 0.0, "precision": DEFAULT_PREC,
}
_INVARIANT_KEYS = ("mu", "nuInf", "nu2", "nu3", "genus")


class SpecError(ValueError):
    """The job specification is malformed."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors to the spec-error exit code
        raise SpecError(message)

    def _print_message(self, message, file=None):  # argparse 3.11+ drops a failed write
        if message:
            (file or sys.stderr).write(message)


def _parse_place(text: str) -> tuple[int, int]:
    try:
        if "^" in text:
            p_str, f_str = text.split("^", 1)
            return int(p_str), int(f_str)
        return int(text), 1
    except ValueError as exc:
        raise SpecError(f"cannot parse place {text!r}; expected p or p^f") from exc


def _parse_gens(text: str, level: int) -> list[Mat]:
    mats = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [s.strip() for s in chunk.split(",")]
        if len(parts) != 4:
            raise SpecError(f"generator {chunk!r} must have exactly 4 entries")
        try:
            a, b, c, d = (int(s) for s in parts)
        except ValueError as exc:
            raise SpecError(f"generator {chunk!r} has non-integer entries") from exc
        try:
            mats.append(Mat.make(level, a, b, c, d))
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
    if not mats:
        raise SpecError("empty generator list")
    return mats


def _as_int(value, what: str) -> int:
    """An integer or a string of one; a float or a boolean is refused
    rather than truncated."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise SpecError(f"{what} must be an integer, got {value!r}")


def _load_spec_document(path: str) -> dict:
    import json
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        doc = json.loads(text)
    # ValueError: bad JSON, or an integer too long; RecursionError: nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise SpecError(f"cannot read job spec: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError("job spec document must be a JSON object")
    return doc


def _build_job(args: argparse.Namespace) -> dict:
    """The document's fields, each overridden by its flag, checked, with
    the defaults of the fields neither gives."""
    values = _load_spec_document(args.spec) if args.spec else {}
    unknown = set(values) - set(_JOB_DEFAULTS)
    if unknown:
        raise SpecError(f"unknown job spec keys: {sorted(unknown)}")
    for key in _JOB_DEFAULTS:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    job = {**_JOB_DEFAULTS, **values}
    if job["level"] is None:
        raise SpecError("a level is required (--level or the job spec)")
    job["level"] = _as_int(job["level"], "level")
    if job["level"] < 2:
        raise SpecError(f"level must be >= 2, got {job['level']}")
    if not isinstance(job["places"], (list, tuple)):
        raise SpecError(f"places must be a list, got {job['places']!r}")
    if not isinstance(job["gens"], (str, type(None))):
        raise SpecError(f"gens must be a string, got {job['gens']!r}")
    places = []
    for item in job["places"]:
        if isinstance(item, str):
            places.append(_parse_place(item))
        elif isinstance(item, (list, tuple)) and len(item) == 2:
            places.append((_as_int(item[0], "place prime"),
                           _as_int(item[1], "residue degree")))
        else:
            raise SpecError(f"cannot parse place entry {item!r}")
    job["places"] = tuple(places)
    if isinstance(job["lnC"], bool):
        raise SpecError(f"lnC must be a number, got {job['lnC']!r}")
    try:
        job["lnC"] = float(job["lnC"])
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: a huge integer
        raise SpecError(f"bad lnC: {exc}") from exc
    if not math.isfinite(job["lnC"]):
        raise SpecError(f"lnC must be finite, got {job['lnC']}")
    for key in ("degree", "disc", "infPlaces", "precision"):
        job[key] = _as_int(job[key], key)
    job["subgroup"] = str(job["subgroup"])
    if not 8 <= job["precision"] <= MAX_PRECISION:
        raise SpecError(f"precision must be 8..{MAX_PRECISION} bits, "
                        f"got {job['precision']}")
    return job


def _resolve_subgroup(job: dict) -> SubgroupImage:
    if job["gens"] is not None:
        return closure(job["level"], _parse_gens(job["gens"], job["level"]))
    try:
        kind = SubgroupKind(job["subgroup"])
    except ValueError as exc:
        raise SpecError(
            f"unknown subgroup kind {job['subgroup']!r}; expected one of "
            f"{[k.value for k in SubgroupKind]}") from exc
    return standard_subgroup(kind, job["level"])


def _field_and_sset(job: dict) -> tuple[NumberFieldSpec, SSetSpec]:
    from .bounds import NumberFieldSpec, SSetSpec, _check_compatible
    try:
        field = NumberFieldSpec(job["degree"], job["disc"])
        sset = SSetSpec(job["infPlaces"], job["places"])
        _check_compatible(field, sset)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    return field, sset


# ---- the report: its JSON document ----

def _xreal_to_json(x: XReal) -> dict:
    sign, man, exp, bc = x.raw
    return {
        "decimal": x.decimal(),
        "rounding": x.rounding.name.lower(),
        "prec": x.prec,
        "raw": [sign, hex(man), exp, bc],
    }


def _xreal_from_json(doc: dict) -> XReal:
    from .xreal import Rounding, XReal
    sign, man_hex, exp, bc = doc["raw"]
    raw = (int(sign), int(man_hex, 16), int(exp), int(bc))
    return XReal(raw, Rounding[doc["rounding"].upper()], int(doc["prec"]))


def _invariants_to_json(inv: CurveInvariants) -> dict:
    return dict(zip(_INVARIANT_KEYS, (inv.mu, inv.nu_inf, inv.nu2, inv.nu3, inv.genus)))


def _bound_to_json(b: BoundReport) -> dict:
    return {
        "theorem": b.theorem.value,
        "levelUsed": b.level_used,
        "log10Bound": _xreal_to_json(b.log10_bound),
        "logCCoefficient": b.ln_c_coefficient,
        "components": {k: _xreal_to_json(v) for k, v in sorted(b.components.items())},
        "notes": list(b.notes),
    }


def build_report(job: dict, want_bound: bool) -> dict:
    """The report of one job: the document that --json writes."""
    H = _resolve_subgroup(job)
    app = applicability(H)
    bound = None
    if want_bound:  # the first use of the bound layer in a process imports it
        from .bounds import bound_auto
        from .xreal import Rounding
        fieldspec, sset = _field_and_sset(job)
        # raises InapplicableError when neither route applies
        bound = _bound_to_json(bound_auto(app, fieldspec, sset, job["lnC"],
                                          Rounding.UP, job["precision"]))
    return {
        "schema": SCHEMA_VERSION,
        "command": "bound" if want_bound else "invariants",
        "level": job["level"],
        "subgroup": job["subgroup"] if job["gens"] is None else f"gens:{job['gens']}",
        "invariants": _invariants_to_json(app.invariants),
        "tilde": {
            "order": app.tilde_image.order,
            "invariants": _invariants_to_json(app.tilde_invariants),
        },
        "verdict": app.verdict.value,
        "sufficientCriterionHolds": app.sufficient_criterion_holds,
        "bound": bound,
        "warnings": list(bound["notes"]) if bound else [],
    }


def report_to_json(report: dict) -> str:
    import json
    return json.dumps(report, indent=2, sort_keys=True)


# ---- text rendering ----

def _invariants_text(inv: dict) -> str:
    return "  ".join(f"{key} {inv[key]}" for key in _INVARIANT_KEYS)


def _render_bound(b: dict, out: list) -> None:
    from .bounds import _log10
    from .xreal import XReal
    out.append(f"theorem {b['theorem']}")
    out.append(f"levelUsed {b['levelUsed']}")
    out.append(f"lnC coefficient {b['logCCoefficient']}")
    log10_bound = b["log10Bound"]
    out.append(f"log10(bound) = {log10_bound['decimal']} "
               f"(rounded {log10_bound['rounding']})")
    x = _xreal_from_json(log10_bound)
    if x > XReal.from_int(_LOG10_BREAKDOWN_THRESHOLD, x.rounding, x.prec):
        loglog = _log10(x.log(), x.rounding, x.prec)
        out.append(f"log10(log10(bound)) = {loglog.decimal()} "
                   f"(rounded {loglog.rounding.name.lower()})")
    for name, c in sorted(b["components"].items()):
        out.append(f"component {name} = {c['decimal']} (rounded {c['rounding']})")
    out.append("note: the bound is valid for any admissible absolute constant; "
               "its logarithm enters with the stated coefficient")
    for w in b["notes"]:
        out.append(f"warning: {w}")


def render_report(report: dict) -> str:
    tilde = report["tilde"]
    crit = "holds" if report["sufficientCriterionHolds"] else "fails"
    out = [f"subgroup {report['subgroup']} level {report['level']}",
           _invariants_text(report["invariants"]),
           f"tilde order {tilde['order']}  {_invariants_text(tilde['invariants'])}",
           f"verdict {report['verdict']}  (three-cusp order criterion: {crit})"]
    if report["bound"] is not None:
        _render_bound(report["bound"], out)
    return "\n".join(out) + "\n"


# ---- tables ----

def render_tables(family: str, start: int, stop: int, primes_only: bool) -> str:
    try:
        kind = SubgroupKind(family)
    except ValueError as exc:
        raise SpecError(f"unknown family {family!r}") from exc
    header = (f"{'family':<7} {'N':>3} {'mu':>6} {'nuInf':>5} {'nu2':>3} "
              f"{'nu3':>3} {'genus':>5} {'tildeOrd':>8} {'tildeNuInf':>10} verdict")
    levels = []
    for n in range(max(start, 2), stop + 1):
        try:
            if primes_only and not is_prime(n):
                continue
        except ValueError as exc:  # a probable prime that cannot be certified
            raise SpecError(str(exc)) from exc
        _admit_level(n)  # the whole range, before any row is computed
        levels.append(n)
    rows = [header]
    for n in levels:
        app = applicability(standard_subgroup(kind, n))
        inv = app.invariants
        rows.append(
            f"{kind.value:<7} {n:>3} {inv.mu:>6} {inv.nu_inf:>5} {inv.nu2:>3} "
            f"{inv.nu3:>3} {inv.genus:>5} {app.tilde_image.order:>8} "
            f"{app.tilde_invariants.nu_inf:>10} {app.verdict.value}")
    return "\n".join(rows) + "\n"


# ---- argument parsing and entry point ----

def _add_job_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--spec", help="JSON job document (path or '-' for stdin)")
    sub.add_argument("--level", type=int, help="level N >= 2")
    sub.add_argument("--subgroup", choices=[k.value for k in SubgroupKind],
                     help="named subgroup family")
    sub.add_argument("--gens", help="explicit generators 'a,b,c,d;a,b,c,d;...'")
    sub.add_argument("--degree", type=int, help="field degree d (default 1)")
    sub.add_argument("--disc", type=int, help="absolute discriminant |D| (default 1)")
    sub.add_argument("--inf-places", type=int, dest="infPlaces", metavar="INF_PLACES",
                     help="number of infinite places in S (default 1)")
    sub.add_argument("--place", action="append", dest="places", metavar="PLACE",
                     help="finite place as p or p^f; repeatable")
    sub.add_argument("--lnC", type=float, help="ln of the absolute constant (default 0)")
    sub.add_argument("--precision", type=int,
                     help=f"mantissa precision in bits (default {DEFAULT_PREC}, "
                          f"at most {MAX_PRECISION})")
    sub.add_argument("--json", action="store_true", help="emit the JSON report")


# Built on the first call and reused: parse_args returns a fresh namespace
# each time and an append action copies its list before extending it.
@lru_cache(maxsize=1)
def _make_parser() -> _Parser:
    parser = _Parser(
        prog="jbound",
        description="Invariants of congruence-subgroup curves and certified "
                    "upper bounds for heights of S-integral j-invariants.")
    subs = parser.add_subparsers(dest="command", required=True)
    p_inv = subs.add_parser("invariants", help="index, cusps, elliptic counts, genus")
    _add_job_flags(p_inv)
    p_bound = subs.add_parser("bound", help="full height-bound report")
    _add_job_flags(p_bound)
    p_tab = subs.add_parser("tables", help="deterministic family tables")
    p_tab.add_argument("--family", default="gamma0",
                       choices=[k.value for k in SubgroupKind])
    p_tab.add_argument("--from", dest="start", type=int, default=2)
    p_tab.add_argument("--to", dest="stop", type=int, default=30)
    p_tab.add_argument("--primes-only", action="store_true")
    return parser


def _run(argv) -> int:
    try:
        args = _make_parser().parse_args(argv)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    if args.command == "tables":
        sys.stdout.write(render_tables(args.family, args.start, args.stop,
                                       args.primes_only))
        return EXIT_OK
    report = build_report(_build_job(args), want_bound=(args.command == "bound"))
    sys.stdout.write(report_to_json(report) + "\n" if args.json else render_report(report))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # fd 1 goes to devnull, so the final flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 1
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except MemoryError:
        print("error: out of memory: the request needs more memory than the "
              "process may use", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except InapplicableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE


if __name__ == "__main__":
    sys.exit(main())
