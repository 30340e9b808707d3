"""Spans around calls into jbound's public functions, recorded from outside.

``install`` rebinds every traced function in each jbound module whose
namespace holds it, so calls made inside the package pass through the
wrapper too: ``cli`` binds ``curve_invariants``, ``applicability``,
``standard_subgroup`` and ``bound_auto`` directly, and ``bounds`` binds
``applicability`` and ``cusp_count``.  Nothing under ``src/`` is edited.

A span's self time is its duration minus the durations of its direct child
spans.  Spans stay in memory with their parent span and item id until the
pass ends.
"""

from __future__ import annotations

import importlib
import inspect
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("numtheory", "sl2n", "invariants", "xreal", "bounds", "cli")

# These run once per group element or per matrix product; a span each would
# cost more than the work, so their time stays in the caller's self time.
UNTRACED = frozenset({"mat_mul", "mat_inv", "mat_neg", "identity",
                      "minus_identity", "element_order"})
XREAL_METHODS = ("log", "exp", "decimal")
CACHED = ("standard_subgroup", "elliptic_counts", "curve_invariants",
          "tilde_subgroup")
SPAN_FIELDS = ("id", "parent", "item", "name", "start", "end")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.item = None
        self.originals: dict = {}
        self._stack: list = []  # [span id, time covered by child spans]

    def wrap(self, name: str, fn, after=None):
        spans, stack, self_s, calls = self.spans, self._stack, self.self_s, self.calls

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            spans.append(None)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self_s[name] += dur - frame[1]
                calls[name] += 1
                spans[sid] = (sid, parent, self.item, name, start, end)
            if after is not None:
                after(args, result)
            return result

        return traced

    # ---- exact counters, taken where the work happens ----

    def _after_elliptic_counts(self, fn, group_order):
        misses = fn.cache_info().misses

        def after(args, _result):
            nonlocal misses
            if fn.cache_info().misses != misses:
                misses = fn.cache_info().misses
                self.counts["invariants.elliptic_counts.elements_swept"] += \
                    group_order(args[0].level)
        return after

    def _after_closure(self, _args, result) -> None:
        self.counts["sl2n.closure.elements"] += len(result.elements)

    def install(self, package) -> None:
        modules = _modules(package)
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and name not in UNTRACED
                        and getattr(obj, "__module__", None) == mod.__name__
                        and (inspect.isfunction(obj) or hasattr(obj, "cache_info"))
                        and not inspect.isgeneratorfunction(obj)):
                    self.originals[f"{layer}.{name}"] = obj
        group_order = self.originals["numtheory.sl2_order"]
        hooks = {
            "invariants.elliptic_counts": self._after_elliptic_counts(
                self.originals["invariants.elliptic_counts"], group_order),
            "sl2n.closure": self._after_closure,
        }
        for key, obj in self.originals.items():
            _rebind(package, modules, obj, self.wrap(key, obj, hooks.get(key)))
        xreal_cls = modules[LAYERS.index("xreal")].XReal
        for meth in XREAL_METHODS:
            setattr(xreal_cls, meth, self.wrap(f"xreal.{meth}", getattr(xreal_cls, meth)))

    def cache_info(self) -> dict:
        out = {}
        for name in CACHED:
            info = self.originals[f"invariants.{name}"].cache_info()
            out[name] = {"hits": info.hits, "misses": info.misses}
        return out


class MemoryProbe:
    """tracemalloc inside each call that builds an element set.

    Tracing every allocation of a whole pass slows the elliptic sweeps more
    than tenfold, so allocations are traced only while ``sl2n.closure`` or
    ``sl2n.enumerate_group`` runs.  The probe keeps the peak traced bytes of
    the call that built the largest set.
    """

    def __init__(self) -> None:
        self.largest_set = 0
        self.peak = 0

    def wrap(self, fn, size):
        def probed(*args, **kwargs):
            tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            if size(result) >= self.largest_set:
                self.largest_set, self.peak = size(result), peak
            return result

        return probed

    def install(self, package) -> None:
        modules = _modules(package)
        sl2n = modules[LAYERS.index("sl2n")]
        for fn, size in ((sl2n.closure, lambda h: len(h.elements)),
                         (sl2n.enumerate_group, len)):
            _rebind(package, modules, fn, self.wrap(fn, size))


def _modules(package) -> list:
    return [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]


def _rebind(package, modules, obj, replacement) -> None:
    """Point every name bound to ``obj`` in the package's modules at ``replacement``."""
    for ns in [package, *modules]:
        for attr in [a for a, v in vars(ns).items() if v is obj]:
            setattr(ns, attr, replacement)
