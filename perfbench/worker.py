"""One pass of a workload, in a fresh single-threaded interpreter.

    python3 perfbench/worker.py SPAWN_T [--probe] [--trace SPANS_PATH] [--memory]

SPAWN_T is the parent's ``time.perf_counter()`` just before it started this
process; the clock is system-wide, so ``setup_s`` covers interpreter start-up
plus ``import jbound.cli``, the import a CLI invocation pays.  ``--probe``
stops there.  Otherwise the JSON list of argv items is read from stdin, each
item goes through ``jbound.cli.main`` with stdout and stderr captured, and
one JSON result object is written to stdout.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import jbound.cli  # noqa: E402

SETUP_DONE = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402


def run_items(items, tracer):
    results = []
    for i, argv in enumerate(items):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.item = i
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = jbound.cli.main(argv)
        except Exception as exc:  # a traceback is a failed item, not a failed pass
            code = None
            err.write(repr(exc))
        end = time.perf_counter()
        results.append({"code": code, "out": out.getvalue(), "err": err.getvalue(),
                        "ms": (end - start) * 1e3})
    return results


def main(argv) -> int:
    spawn_t = float(argv[0])
    flags = argv[1:]
    result = {"setup_s": SETUP_DONE - spawn_t}
    if "--probe" in flags:
        print(json.dumps(result))
        return 0
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(jbound.cli.__file__).startswith(src + os.sep):
        print(f"jbound was imported from outside {src}", file=sys.stderr)
        return 1
    items = json.load(sys.stdin)
    tracer = None
    if "--trace" in flags:
        from tracer import SPAN_FIELDS, Tracer
        tracer = Tracer()
        tracer.install(jbound)
    probe = None
    if "--memory" in flags:
        from tracer import MemoryProbe
        probe = MemoryProbe()
        probe.install(jbound)
    start = time.perf_counter()
    result["items"] = run_items(items, tracer)
    result["run_s"] = time.perf_counter() - start
    if probe is not None:
        result.update(peak_bytes=probe.peak, largest_set=probe.largest_set)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result.update(self_s=tracer.self_s, calls=tracer.calls, counts=tracer.counts,
                      caches=tracer.cache_info())
        spans_path = flags[flags.index("--trace") + 1]
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": tracer.spans}, fh)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
