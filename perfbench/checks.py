"""Output checks that do not trust the engine.

* ``tables`` rows for levels 2..30 must be byte-equal to the golden tables in
  ``tests/golden``.  Gamma0(N) rows above 30 are checked against the
  Diamond-Shurman closed forms, the genus formula and the verdict rule.
* ``bound --json`` jobs must exit 2 exactly where the golden verdict is
  Inapplicable; otherwise the invariants, route and level must match, and
  ``lnBound`` must agree with the independent oracle ``tests/reference.py``
  to relative 1e-15.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from math import gcd, prod

GOLDEN_MAX_LEVEL = 30
REL_TOL = 1e-15


class Checker:
    def __init__(self, root: str) -> None:
        tests = os.path.join(root, "tests")
        sys.path.insert(0, tests)
        import reference
        from mpmath import mp, mpf
        self.ref, self.mp, self.mpf = reference, mp, mpf
        self.golden = {}
        for family in ("gamma0", "gamma1", "gamma"):
            path = os.path.join(tests, "golden", f"{family}_{2:02d}_{GOLDEN_MAX_LEVEL}.txt")
            with open(path, encoding="utf-8") as fh:
                self.golden[family] = fh.read().splitlines(keepends=True)
        self._oracle: dict = {}

    def check(self, argv: list, code, out: str, err: str) -> str | None:
        """None when the item's output is right, else what is wrong."""
        try:
            if argv[0] == "tables":
                return self._check_table(argv[2], int(argv[4]), code, out)
            return self._check_bound(argv, code, out, err)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed output: {exc!r}"

    # ---- tables ----

    def _golden_row(self, family: str, n: int) -> list:
        return self.golden[family][n - 1].split()

    def _check_table(self, family: str, n: int, code, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        header = self.golden[family][0]
        if n <= GOLDEN_MAX_LEVEL:
            want = header + self.golden[family][n - 1]
            return None if out == want else "row differs from the golden table"
        if not out.startswith(header):
            return "header differs from the golden table"
        row = out[len(header):].split()
        if len(row) != 10 or row[0] != family or row[1] != str(n):
            return f"malformed row {row}"
        mu, nu_inf, nu2, nu3, genus, tilde_ord, tilde_nu_inf = map(int, row[2:9])
        return self._gamma0_closed_form(n, (mu, nu_inf, nu2, nu3, genus),
                                        tilde_ord, tilde_nu_inf, row[9])

    def _gamma0_closed_form(self, n, inv, tilde_ord, tilde_nu_inf, verdict):
        ps = self.ref.prime_factors(n)
        order = n ** 3 * prod(p * p - 1 for p in ps) // prod(p * p for p in ps)
        vectors = order // n  # unimodular columns mod n: n^2 prod(1 - p^-2)
        mu = n * prod(p + 1 for p in ps) // prod(ps)
        nu2 = 0 if n % 4 == 0 else prod(1 + _kronecker(-4, p) for p in ps)
        nu3 = 0 if n % 9 == 0 else prod(1 + _kronecker(-3, p) for p in ps)
        nu_inf = sum(self.ref.euler_phi(gcd(d, n // d))
                     for d in range(1, n + 1) if n % d == 0)
        # an elliptic point of order 2 (3) puts an element of order 4 (3 or
        # 6) into the stabilizer subgroup; none leaves it trivial
        if nu2 == nu3 == 0:
            want_tilde = (1, vectors // 2)
        elif (order % tilde_ord or (nu2 and tilde_ord % 4)
              or (nu3 and tilde_ord % 3)):
            return f"stabilizer subgroup order {tilde_ord} is impossible"
        else:
            want_tilde = (tilde_ord, tilde_nu_inf)
        genus = 1 + Fraction(mu, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(nu_inf, 2)
        want = (mu, nu_inf, nu2, nu3, genus)
        if inv != want:
            return f"invariants {inv} != closed form {want}"
        if (tilde_ord, tilde_nu_inf) != want_tilde:
            return f"stabilizer subgroup {(tilde_ord, tilde_nu_inf)} != {want_tilde}"
        want_verdict = ("MainDirect" if nu_inf >= 3 else
                        "MainViaTilde" if tilde_nu_inf >= 3 else "Inapplicable")
        if verdict != want_verdict:
            return f"verdict {verdict} != {want_verdict}"
        return None

    # ---- bound jobs ----

    def _check_bound(self, argv, code, out, err) -> str | None:
        job = _parse_bound_argv(argv)
        n, family = job["level"], job["subgroup"]
        golden = self._golden_row(family, n)
        verdict = golden[9]
        if verdict == "Inapplicable":
            if code == 2 and out == "" and err.startswith("error: no bound route applies"):
                return None
            return f"expected exit 2 (Inapplicable), got {code}"
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(out)
        got = [doc["invariants"][k] for k in ("mu", "nuInf", "nu2", "nu3", "genus")]
        got += [doc["tilde"]["order"], doc["tilde"]["invariants"]["nuInf"]]
        if (doc["schema"], doc["command"], doc["level"], doc["subgroup"]) != (1, "bound", n, family):
            return "report header differs"
        if got != [int(x) for x in golden[2:9]] or doc["verdict"] != verdict:
            return "invariants differ from the golden table"
        m = self.ref.m_of(n)
        bound = doc["bound"]
        theorem = ("Main" if verdict == "MainDirect" else
                   "Main1PrimePowerPart" if m else "Main1Part")
        if bound["theorem"] != theorem or bound["levelUsed"] != (m or n):
            return f"route {bound['theorem']} at level {bound['levelUsed']}"
        ln_bound = bound["components"]["lnBound"]
        if ln_bound["rounding"] != "up" or ln_bound["prec"] != job["precision"]:
            return "lnBound is not rounded up at the requested precision"
        key = (theorem == "Main", n, job["degree"], job["disc"], job["inf_places"],
               job["places"], job["lnC"])
        if key not in self._oracle:
            fn = self.ref.ref_ln_bound_cusps if key[0] else self.ref.ref_ln_bound_covering
            self._oracle[key] = fn(*key[1:])[0]
        with self.mp.workdps(self.ref.REF_DPS):
            sign, man, exp, bc = ln_bound["raw"]
            payload = self.mpf((int(sign), int(man, 16), int(exp), int(bc)))
            ref = self._oracle[key]
            rel = (payload - ref) / abs(ref)
        if abs(rel) > REL_TOL:
            return f"lnBound off the oracle by relative {float(rel):.3e}"
        return None


def _kronecker(a: int, p: int) -> int:
    """The Kronecker symbol (a/p) for a prime p."""
    if a % p == 0:
        return 0
    if p == 2:
        return 1 if a % 8 in (1, 7) else -1
    return 1 if pow(a % p, (p - 1) // 2, p) == 1 else -1


def _parse_bound_argv(argv: list) -> dict:
    job = {"places": []}
    it = iter(argv[1:])
    for flag in it:
        if flag == "--json":
            continue
        value = next(it)
        if flag == "--place":
            p, f = value.split("^")
            job["places"].append((int(p), int(f)))
        elif flag == "--subgroup":
            job["subgroup"] = value
        elif flag == "--lnC":
            job["lnC"] = float(value)
        else:
            job[flag[2:].replace("-", "_")] = int(value)
    job["places"] = tuple(job["places"])
    return job
