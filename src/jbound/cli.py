"""Command-line front end.

Three subcommands: ``invariants`` (index, cusps, elliptic counts, genus, and
the same for the elliptic-stabilizer subgroup), ``bound`` (the full height
bound report), and ``tables`` (deterministic family tables for regression
testing).  A job can be given as a JSON document via --spec (file or '-' for
stdin); individual flags override fields of the document.

Exit codes: 0 success, 2 no bound route applies, 3 malformed job
specification, 4 request too large: the enumeration cap is exceeded, or
the process ran out of memory (a MemoryError), each with its own message.

Only the exact layer is imported with this module.  ``tables`` and
``invariants`` run without the bound layer (``bounds``, ``xreal``, mpmath) or
``fractions``; the ``bound`` branch imports it, and so does reading back a
JSON report that holds a bound.  ``json`` is imported by --spec and by the
JSON writer and reader.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
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


class SpecError(ValueError):
    """The job specification is malformed."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors to the spec-error exit code
        raise SpecError(message)


@dataclass
class JobSpec:
    level: int
    subgroup: str = "gamma0"
    gens: str | None = None
    degree: int = 1
    abs_disc: int = 1
    inf_places: int = 1
    places: tuple = ()
    ln_c: float = 0.0
    precision_bits: int = DEFAULT_PREC


@dataclass(frozen=True)
class Report:
    """Machine-readable result of one job."""

    schema: int
    command: str
    level: int
    subgroup: str
    invariants: CurveInvariants
    tilde_order: int
    tilde_invariants: CurveInvariants
    verdict: str
    sufficient_criterion_holds: bool
    bound: BoundReport | None


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
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, or an integer too long
        raise SpecError(f"cannot read job spec: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError("job spec document must be a JSON object")
    return doc


_DOC_KEYS = {
    "level": "level", "subgroup": "subgroup", "gens": "gens",
    "degree": "degree", "disc": "abs_disc", "infPlaces": "inf_places",
    "places": "places", "lnC": "ln_c", "precision": "precision_bits",
}


def _build_jobspec(args: argparse.Namespace) -> JobSpec:
    values: dict = {}
    if args.spec:
        doc = _load_spec_document(args.spec)
        unknown = set(doc) - set(_DOC_KEYS)
        if unknown:
            raise SpecError(f"unknown job spec keys: {sorted(unknown)}")
        for key, dest in _DOC_KEYS.items():
            if key in doc:
                values[dest] = doc[key]
    overrides = {
        "level": args.level, "subgroup": args.subgroup, "gens": args.gens,
        "degree": args.degree, "abs_disc": args.disc,
        "inf_places": args.inf_places, "ln_c": args.lnC,
        "precision_bits": args.precision,
    }
    for dest, val in overrides.items():
        if val is not None:
            values[dest] = val
    if args.place:
        values["places"] = list(args.place)
    if values.get("level") is None:
        raise SpecError("a level is required (--level or the job spec)")
    level = _as_int(values["level"], "level")
    if level < 2:
        raise SpecError(f"level must be >= 2, got {level}")
    places_raw = values.get("places", ())
    if not isinstance(places_raw, (list, tuple)):
        raise SpecError(f"places must be a list, got {places_raw!r}")
    if not isinstance(values.get("gens", ""), (str, type(None))):
        raise SpecError(f"gens must be a string, got {values['gens']!r}")
    places = []
    for item in places_raw:
        if isinstance(item, str):
            places.append(_parse_place(item))
        elif isinstance(item, (list, tuple)) and len(item) == 2:
            places.append((_as_int(item[0], "place prime"),
                           _as_int(item[1], "residue degree")))
        else:
            raise SpecError(f"cannot parse place entry {item!r}")
    given = {"level": level, "places": tuple(places)}  # JobSpec supplies the rest
    if "ln_c" in values:
        ln_c = values["ln_c"]
        if isinstance(ln_c, bool):
            raise SpecError(f"lnC must be a number, got {ln_c!r}")
        try:
            given["ln_c"] = ln_c = float(ln_c)
        except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: a huge integer
            raise SpecError(f"bad lnC: {exc}") from exc
        if not math.isfinite(ln_c):
            raise SpecError(f"lnC must be finite, got {ln_c}")
    for key in ("degree", "disc", "infPlaces", "precision"):
        dest = _DOC_KEYS[key]
        if dest in values:
            given[dest] = _as_int(values[dest], key)
    if "subgroup" in values:
        given["subgroup"] = str(values["subgroup"])
    if "gens" in values:
        given["gens"] = values["gens"]
    spec = JobSpec(**given)
    if not 8 <= spec.precision_bits <= MAX_PRECISION:
        raise SpecError(f"precision must be 8..{MAX_PRECISION} bits, "
                        f"got {spec.precision_bits}")
    return spec


def _resolve_subgroup(spec: JobSpec) -> SubgroupImage:
    if spec.gens is not None:
        return closure(spec.level, _parse_gens(spec.gens, spec.level))
    try:
        kind = SubgroupKind(spec.subgroup)
    except ValueError as exc:
        raise SpecError(
            f"unknown subgroup kind {spec.subgroup!r}; expected one of "
            f"{[k.value for k in SubgroupKind]}") from exc
    return standard_subgroup(kind, spec.level)


def _field_and_sset(spec: JobSpec) -> tuple[NumberFieldSpec, SSetSpec]:
    from .bounds import NumberFieldSpec, SSetSpec, _check_compatible
    try:
        field = NumberFieldSpec(spec.degree, spec.abs_disc)
        sset = SSetSpec(spec.inf_places, spec.places)
        _check_compatible(field, sset)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    return field, sset


def build_report(spec: JobSpec, want_bound: bool) -> Report:
    H = _resolve_subgroup(spec)
    app = applicability(H)
    bound = None
    if want_bound:  # the first use of the bound layer in a process imports it
        from .bounds import bound_auto
        from .xreal import Rounding
        fieldspec, sset = _field_and_sset(spec)
        # raises InapplicableError when neither route applies
        bound = bound_auto(app, fieldspec, sset, spec.ln_c,
                           Rounding.UP, spec.precision_bits)
    return Report(
        schema=SCHEMA_VERSION,
        command="bound" if want_bound else "invariants",
        level=spec.level,
        subgroup=spec.subgroup if spec.gens is None else f"gens:{spec.gens}",
        invariants=app.invariants,
        tilde_order=app.tilde_image.order,
        tilde_invariants=app.tilde_invariants,
        verdict=app.verdict.value,
        sufficient_criterion_holds=app.sufficient_criterion_holds,
        bound=bound,
    )


# ---- serialization ----

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
    return {"mu": inv.mu, "nuInf": inv.nu_inf, "nu2": inv.nu2,
            "nu3": inv.nu3, "genus": inv.genus}


def _invariants_from_json(doc: dict) -> CurveInvariants:
    return CurveInvariants(doc["mu"], doc["nuInf"], doc["nu2"],
                           doc["nu3"], doc["genus"])


def _bound_to_json(b: BoundReport) -> dict:
    return {
        "theorem": b.theorem.value,
        "levelUsed": b.level_used,
        "log10Bound": _xreal_to_json(b.log10_bound),
        "logCCoefficient": b.ln_c_coefficient,
        "components": {k: _xreal_to_json(v) for k, v in sorted(b.components.items())},
        "notes": list(b.notes),
    }


def _bound_from_json(doc: dict) -> BoundReport:
    from .bounds import BoundReport, Theorem
    return BoundReport(
        theorem=Theorem(doc["theorem"]),
        level_used=int(doc["levelUsed"]),
        log10_bound=_xreal_from_json(doc["log10Bound"]),
        ln_c_coefficient=int(doc["logCCoefficient"]),
        components={k: _xreal_from_json(v) for k, v in doc["components"].items()},
        notes=tuple(doc["notes"]),
    )


def report_to_json(report: Report) -> str:
    import json
    doc = {
        "schema": report.schema,
        "command": report.command,
        "level": report.level,
        "subgroup": report.subgroup,
        "invariants": _invariants_to_json(report.invariants),
        "tilde": {
            "order": report.tilde_order,
            "invariants": _invariants_to_json(report.tilde_invariants),
        },
        "verdict": report.verdict,
        "sufficientCriterionHolds": report.sufficient_criterion_holds,
        "bound": _bound_to_json(report.bound) if report.bound else None,
        "warnings": list(report.bound.notes) if report.bound else [],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def report_from_json(text: str) -> Report:
    import json
    doc = json.loads(text)
    return Report(
        schema=int(doc["schema"]),
        command=doc["command"],
        level=int(doc["level"]),
        subgroup=doc["subgroup"],
        invariants=_invariants_from_json(doc["invariants"]),
        tilde_order=int(doc["tilde"]["order"]),
        tilde_invariants=_invariants_from_json(doc["tilde"]["invariants"]),
        verdict=doc["verdict"],
        sufficient_criterion_holds=bool(doc["sufficientCriterionHolds"]),
        bound=_bound_from_json(doc["bound"]) if doc.get("bound") else None,
    )


# ---- text rendering ----

def _marker(x: XReal) -> str:
    return f"rounded {x.rounding.name.lower()}"


def _render_invariants(report: Report, out: list) -> None:
    inv = report.invariants
    out.append(f"subgroup {report.subgroup} level {report.level}")
    out.append(f"mu {inv.mu}  nuInf {inv.nu_inf}  nu2 {inv.nu2}  "
               f"nu3 {inv.nu3}  genus {inv.genus}")
    tinv = report.tilde_invariants
    out.append(f"tilde order {report.tilde_order}  mu {tinv.mu}  "
               f"nuInf {tinv.nu_inf}  nu2 {tinv.nu2}  nu3 {tinv.nu3}  "
               f"genus {tinv.genus}")
    crit = "holds" if report.sufficient_criterion_holds else "fails"
    out.append(f"verdict {report.verdict}  (three-cusp order criterion: {crit})")


def _render_bound(report: Report, out: list) -> None:
    from .bounds import _log10
    from .xreal import XReal
    b = report.bound
    out.append(f"theorem {b.theorem.value}")
    out.append(f"levelUsed {b.level_used}")
    out.append(f"lnC coefficient {b.ln_c_coefficient}")
    out.append(f"log10(bound) = {b.log10_bound.decimal()} ({_marker(b.log10_bound)})")
    threshold = XReal.from_int(_LOG10_BREAKDOWN_THRESHOLD,
                               b.log10_bound.rounding, b.log10_bound.prec)
    if b.log10_bound > threshold:
        loglog = _log10(b.log10_bound.log(), b.log10_bound.rounding, b.log10_bound.prec)
        out.append(f"log10(log10(bound)) = {loglog.decimal()} ({_marker(loglog)})")
    for name in sorted(b.components):
        x = b.components[name]
        out.append(f"component {name} = {x.decimal()} ({_marker(x)})")
    out.append("note: the bound is valid for any admissible absolute constant; "
               "its logarithm enters with the stated coefficient")
    for w in b.notes:
        out.append(f"warning: {w}")


def render_report(report: Report) -> str:
    out: list[str] = []
    _render_invariants(report, out)
    if report.bound is not None:
        _render_bound(report, out)
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
    sub.add_argument("--inf-places", type=int, dest="inf_places",
                     help="number of infinite places in S (default 1)")
    sub.add_argument("--place", action="append",
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
    parser = _make_parser()
    args = parser.parse_args(argv)
    if args.command == "tables":
        sys.stdout.write(render_tables(args.family, args.start, args.stop,
                                       args.primes_only))
        return EXIT_OK
    spec = _build_jobspec(args)
    report = build_report(spec, want_bound=(args.command == "bound"))
    if args.json:
        sys.stdout.write(report_to_json(report) + "\n")
    else:
        sys.stdout.write(render_report(report))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        return _run(argv)
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
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
