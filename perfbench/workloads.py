"""The benchmark's workloads: each is a list of CLI argv items.

Each workload is a fixed set of items: ``tables-gamma0`` one item per level,
``bound-grid`` one job per cell of the acceptance grid.  The seed and the
pass number draw the order in which a pass sends them.  A fixed order would
run the items of similar cost back to back, so that a few seconds of a slow
host would decide a run's median latency.  The total work of a pass does not
depend on the order: every level is computed once and the garbage
collector's share of a ``tables-gamma0`` pass is under 1% in any order.  The
program only ever sees the generated argv.
"""

from __future__ import annotations

import random

# The acceptance grid of tests/test_acceptance.py, copied so that the
# benchmark's inputs stay pinned if the tests change.
GRID_LEVELS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 17, 25, 27, 30)
GRID_FIELDS = ((1, 1), (2, 23), (3, 49), (6, 9747))
GRID_SSETS = ((1, ()), (2, ((3, 1),)), (1, ((2, 2), (5, 1))),
              (3, ((2, 1), (3, 2), (7, 1))))
BOUND_FAMILIES = ("gamma0", "gamma1", "gamma")
BOUND_PRECISIONS = (128, 1024, 4096)
BOUND_LNCS = ("0", "2.5")

TABLE_RANGES = {
    "tables-gamma0": ("gamma0", 2, 60),
}


def table_items(family: str, start: int, stop: int) -> list[list[str]]:
    return [["tables", "--family", family, "--from", str(n), "--to", str(n)]
            for n in range(start, stop + 1)]


def bound_items() -> list[list[str]]:
    """Every (family, level, precision, lnC) cell once: 270 jobs.

    Each cell's field and S-set are fixed, cycling through the acceptance
    pairs, so every seed and every pass sends the same jobs.  Drawing the
    precision, field or S-set per job would let the number of log
    evaluations, and with it the run time, change from seed to seed.
    """
    pairs = [(field, sset) for field in GRID_FIELDS for sset in GRID_SSETS
             if all(f <= field[0] for _p, f in sset[1])]
    cells = [(family, n, prec, lnc) for family in BOUND_FAMILIES
             for n in GRID_LEVELS for prec in BOUND_PRECISIONS
             for lnc in BOUND_LNCS]
    items = []
    for i, (family, n, prec, lnc) in enumerate(cells):
        (d, disc), (r, places) = pairs[i % len(pairs)]
        argv = ["bound", "--level", str(n), "--subgroup", family,
                "--degree", str(d), "--disc", str(disc), "--inf-places", str(r)]
        for p, f in places:
            argv += ["--place", f"{p}^{f}"]
        argv += ["--lnC", lnc, "--precision", str(prec), "--json"]
        items.append(argv)
    return items


def build(name: str, seed: int, pass_no: int) -> list[list[str]]:
    """The items of one pass: the workload's fixed set, in an order drawn
    from the seed and the pass number."""
    items = bound_items() if name == "bound-grid" else table_items(*TABLE_RANGES[name])
    random.Random(f"{name}:{seed}:{pass_no}").shuffle(items)
    return items
