"""The exact layer runs without the bound layer.

Each check runs in a fresh interpreter, since this test process has long
since imported mpmath.  ``tables`` and ``invariants`` jobs never load mpmath,
``jbound.bounds``, ``jbound.xreal`` or ``fractions``; a ``bound`` job does,
and every name the package exports still resolves.
"""

import ast
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
BOUND_LAYER = ["mpmath", "jbound.bounds", "jbound.xreal", "fractions"]

PROBE = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
watched = sys.argv[2:]  # json is among them, so the probe never imports it
seen = {}

def loaded():
    return [m for m in watched if m in sys.modules]

import jbound.cli
seen["import"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    seen["codes"] = [
        jbound.cli.main(["tables", "--family", "gamma0", "--from", "2", "--to", "30"]),
        jbound.cli.main(["invariants", "--level", "30", "--subgroup", "gamma1", "--json"]),
        jbound.cli.main(["invariants", "--level", "11"]),
    ]
    seen["exact"] = loaded()
    seen["codes"].append(jbound.cli.main(["bound", "--level", "11"]))
seen["bound"] = loaded()
print(repr(seen))
"""


def fresh(code, *args):
    proc = subprocess.run([sys.executable, "-c", code, SRC, *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_tables_and_invariants_never_load_the_bound_layer():
    seen = ast.literal_eval(fresh(PROBE, "json", *BOUND_LAYER))
    assert seen["import"] == []
    assert seen["codes"] == [0, 0, 0, 0]
    assert seen["exact"] == ["json"]
    assert seen["bound"] == ["json", *BOUND_LAYER]


def test_every_exported_name_resolves_and_the_error_is_shared():
    out = fresh("""
import sys
sys.path.insert(0, sys.argv[1])
import jbound
missing = [name for name in jbound.__all__ if not hasattr(jbound, name)]
from jbound import bounds, invariants, xreal
print(missing, bounds.InapplicableError is invariants.InapplicableError is jbound.InapplicableError,
      jbound.XReal is xreal.XReal and jbound.bound_auto is bounds.bound_auto)
""")
    assert out.split() == ["[]", "True", "True"]
