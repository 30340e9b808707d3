"""The jbound benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: each pass is a fresh single-threaded interpreter
(``worker.py``) that imports jbound and sends the workload's argv items, one
after another, through ``jbound.cli.main``, in an order drawn from the seed
and the pass number.  Passes repeat while the next one should end within
``--seconds``.  Per-pass figures are medians over the
passes, item latencies are pooled over them, and ``setup_s`` is the median
of interpreters that only import jbound, three before each pass.  Each
item's output is checked against an oracle that does not use the engine
(``checks.py``); a wrong or failed item makes the command exit 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics: it runs one pass with tracemalloc inside the calls that
build element sets and one untraced pass, then traced passes.  The spans
of the last traced pass are written to ``perfbench/out/``.  The last line of
stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
NEEDED = [os.path.join("src", "jbound", "cli.py"), os.path.join("tests", "reference.py")]
WORKLOADS = ("tables-gamma0", "bound-grid")
PROBES_PER_PASS = 3
TAIL_BEYOND = 10
PASS_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
    "item_p50_ms": "ms", "item_tail_ms": "ms", "peak_rss_mb": "MB",
}

INVARIANTS_TIMED = ("elliptic_counts", "cusp_count", "standard_subgroup",
                    "tilde_subgroup", "curve_invariants", "applicability")
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"invariants.{fn}.self_s": "s" for fn in INVARIANTS_TIMED},
    "invariants.elliptic_counts.misses": "count",
    "invariants.elliptic_counts.elements_swept": "count",
    "invariants.cusp_count.calls": "count",
    "invariants.cache_hit_ratio": "ratio",
    "sl2n.closure.self_s": "s",
    "sl2n.closure.calls": "count",
    "sl2n.closure.elements": "count",
    "sl2n.enumerate_group.self_s": "s",
    "sl2n.bytes_per_element": "B",
    "bounds.bound_auto.self_s": "s",
    "bounds.bound_main.self_s": "s",
    "bounds.bound_main1.self_s": "s",
    "bounds.ln_dstar.calls": "count",
    "bounds.lambda_ln.calls": "count",
    **{f"xreal.{m}.{k}": u for m in ("log", "exp", "decimal")
       for k, u in (("s", "s"), ("calls", "count"))},
    "cli.render.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}
RENDER = ("cli.render_tables", "cli.render_report", "cli.report_to_json")


class PassFailed(RuntimeError):
    pass


def spawn(flags: list, items: list | None = None) -> tuple[float, dict]:
    """Start one worker and wait for it; returns (wall seconds, its result)."""
    env = dict(os.environ, PYTHONHASHSEED="0")  # same str hashes in every pass
    payload = None if items is None else json.dumps(items)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, WORKER, repr(start), *flags],
                          input=payload, capture_output=True, text=True,
                          cwd=ROOT, env=env, timeout=PASS_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise PassFailed(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return wall, json.loads(proc.stdout)


def pass_figures(wall: float, result: dict) -> dict:
    return {
        "wall_s": wall,
        "items_per_s": len(result["items"]) / result["run_s"],
        "peak_rss_mb": result["maxrss_kb"] / 1024,
        "ms": [item["ms"] for item in result["items"]],
    }


def end_to_end_figures(passes: list, setups: list) -> dict:
    """Medians over the passes; item latencies pooled over them, with the
    tail at TAIL_BEYOND items per pass beyond it."""
    pooled = sorted(ms for p in passes for ms in p["ms"])
    figures = {key: statistics.median(p[key] for p in passes)
               for key in ("wall_s", "items_per_s", "peak_rss_mb")}
    figures.update(
        setup_s=statistics.median(setups),
        item_p50_ms=statistics.median(pooled),
        item_tail_ms=pooled[-(TAIL_BEYOND * len(passes) + 1)],
    )
    return figures


def layer_figures(wall: float, result: dict) -> tuple[dict, dict]:
    """Per-layer timings of one traced pass, and its exact counters."""
    self_s, calls, counts = result["self_s"], result["calls"], result["counts"]
    timed = {f"{layer}.self_s": sum((v for k, v in self_s.items()
                                     if k.startswith(layer + ".")), 0.0)
             for layer in LAYERS}
    for fn in INVARIANTS_TIMED:
        timed[f"invariants.{fn}.self_s"] = self_s.get(f"invariants.{fn}", 0.0)
    for key in ("sl2n.closure", "sl2n.enumerate_group", "bounds.bound_auto",
                "bounds.bound_main", "bounds.bound_main1", "cli.main"):
        timed[f"{key}.self_s"] = self_s.get(key, 0.0)
    for m in ("log", "exp", "decimal"):
        timed[f"xreal.{m}.s"] = self_s.get(f"xreal.{m}", 0.0)
    timed["cli.render.self_s"] = sum(self_s.get(k, 0.0) for k in RENDER)
    timed["traced_wall_s"] = wall

    caches = result["caches"]
    hits = sum(c["hits"] for c in caches.values())
    lookups = hits + sum(c["misses"] for c in caches.values())
    exact = {
        "invariants.elliptic_counts.misses": caches["elliptic_counts"]["misses"],
        "invariants.elliptic_counts.elements_swept":
            counts.get("invariants.elliptic_counts.elements_swept", 0),
        "invariants.cusp_count.calls": calls.get("invariants.cusp_count", 0),
        "invariants.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "sl2n.closure.calls": calls.get("sl2n.closure", 0),
        "sl2n.closure.elements": counts.get("sl2n.closure.elements", 0),
        "bounds.ln_dstar.calls": calls.get("bounds.ln_dstar", 0),
        "bounds.lambda_ln.calls": calls.get("bounds.lambda_ln", 0),
        **{f"xreal.{m}.calls": calls.get(f"xreal.{m}", 0)
           for m in ("log", "exp", "decimal")},
        "caches": caches,
    }
    return timed, exact


def median_of(rows: list, key: str) -> float:
    return statistics.median(row[key] for row in rows)


def run(name: str, seed: int, seconds: int, trace: bool) -> int:
    import checks
    checker = checks.Checker(ROOT)
    attempted = failed = 0
    problems: list = []

    def check(items: list, result: dict) -> None:
        nonlocal attempted, failed
        for argv, item in zip(items, result["items"], strict=True):
            attempted += 1
            problem = checker.check(argv, item["code"], item["out"], item["err"])
            if problem:
                failed += 1
                problems.append(f"{' '.join(argv)}: {problem}")

    deadline = time.perf_counter() + seconds
    spawn(["--probe"])  # warm-up: the first import in a checkout compiles bytecode
    setups: list = []
    untraced: list = []
    traced: list = []
    exacts: list = []
    spans_path = os.path.join(OUT_DIR, f"{name}-seed{seed}-spans.json")
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        items = workloads.build(name, seed, 0)
        _wall, memory = spawn(["--memory"], items)
        check(items, memory)
    # Start another round only when the longest so far would still end in
    # time, so a run lasts about --seconds whatever the pass length.  A traced
    # run makes one untraced pass, for trace.overhead_s, and then only traced
    # passes.
    longest = 0.0
    while not untraced or time.perf_counter() + longest < deadline:
        began = time.perf_counter()
        setups += [spawn(["--probe"])[1]["setup_s"] for _ in range(PROBES_PER_PASS)]
        items = workloads.build(name, seed, len(untraced) + len(traced))
        if not (trace and untraced):
            wall, result = spawn([], items)
            check(items, result)
            untraced.append(pass_figures(wall, result))
            longest = max(longest, time.perf_counter() - began)
            began = time.perf_counter()
        if trace:
            wall, result = spawn(["--trace", spans_path], items)
            check(items, result)
            timed, exact = layer_figures(wall, result)
            traced.append(timed)
            exacts.append(exact)
        longest = max(longest, time.perf_counter() - began)

    print(f"workload {name}  seed {seed}  passes {len(untraced) + len(traced)}  "
          f"items per pass {len(items)}  (closed loop, one client, one thread)")
    print(f"fail_frac {failed / attempted:.6g}  ({failed} of {attempted} items)")
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    steady = all(e == exacts[0] for e in exacts)
    if trace:
        exact = exacts[0]
        metrics = {key: median_of(traced, key) for key in traced[0]
                   if key != "traced_wall_s"}
        metrics.update({k: v for k, v in exact.items() if k in PER_LAYER})
        metrics["sl2n.bytes_per_element"] = memory["peak_bytes"] / memory["largest_set"]
        metrics["trace.overhead_s"] = (median_of(traced, "traced_wall_s")
                                       - median_of(untraced, "wall_s"))
        units = PER_LAYER
        print(f"lru caches {json.dumps(exact['caches'], sort_keys=True)}")
        print(f"largest element set {memory['largest_set']}, built with a "
              f"tracemalloc peak of {memory['peak_bytes']} B  "
              f"exact counters identical across passes: {steady}")
        print(f"spans of the last traced pass: {os.path.relpath(spans_path, ROOT)}")
    else:
        metrics = end_to_end_figures(untraced, setups)
        units = END_TO_END
    n = len(items)
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "wall_s": f"median of {len(untraced)} passes",
        "items_per_s": f"median of {len(untraced)} passes",
        "item_p50_ms": f"over {n * len(untraced)} items",
        "item_tail_ms": f"p{100 * (n - TAIL_BEYOND) / n:.1f} over {n * len(untraced)} "
                        f"items: {TAIL_BEYOND} of {n} per pass beyond it",
        "peak_rss_mb": f"median of {len(untraced)} passes",
    }
    for key in units:
        value = metrics[key]
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{key:<44} {shown} {units[key]:<6} {notes.get(key, '')}")
    correct = failed == 0 and steady
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in NEEDED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not a jbound checkout, missing {missing}", file=sys.stderr)
        return 2
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
