"""Span tracing of the codonbranch layers, installed from outside the package.

The tracer replaces each traced public function by a wrapper in every module
namespace that binds it by name (``search`` imports ``apply_chain`` from
``embed_chains``, the package re-exports most of the API, ...), so calls made
between layers are seen wherever they come from.  Each call records a span:
operation id, span id, parent span id, name, start and end.  A span's self
time is its duration minus the durations of its child spans.  Spans stay in
memory until the run ends.

Two methods are counted rather than spanned: they are called once per weight,
and a span would cost as much as the work it measures.
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections import Counter, defaultdict

PACKAGE = "codonbranch"
LAYERS = ("lie_core", "super_branch", "embed_chains", "phase2", "search",
          "tables", "cli")

# Per-element helpers (one call per weight, slot or multiplet).  They stay in
# their caller's self time.
UNTRACED = {
    "lie_core": {"fr", "vadd", "vsub", "vneg", "vscale", "vdot", "zero"},
    "phase2": {"slot_dim", "slot_conjugate", "render_slot", "soft_break_slot",
               "strong_break_slot", "break_multiplet"},
}

COUNTED_METHODS = (
    ("lie_core", "RootSystem", "to_dominant"),
    ("super_branch", "SuperAlgebra", "to_dominant_regular"),
)

OP_SPAN = "harness.op"


def _result_counters(name, result, counts):
    """Work counters read off a traced call's return value."""
    if name == "lie_core.irrep_character.miss":
        counts["lie_core.weights_out"] += len(result)
    elif name == "search.enumerate_phase2":
        counts["search.option_nodes"] += len(result.nodes)
        counts["search.pruned_nodes"] += len(result.pruned)
    elif name == "search.solve_freezing":
        counts["search.masks"] += len(result)
    elif name == "super_branch.to_dominant_regular" and result is not None:
        counts["super_branch.subset_terms"] += 1


class Tracer:
    """Records spans and counters for the operations run while installed."""

    def __init__(self):
        self.spans = []             # (op, span id, parent id, name, t0, t1)
        self.counts = defaultdict(Counter)   # op -> counter name -> value
        self.op = 0
        self._stack = [0]
        self._ids = itertools.count(1)
        self._patches = []          # (namespace dict or class, attribute, original)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            skip = UNTRACED.get(layer, set())
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or attr in skip or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._span_wrapper(f"{layer}.{attr}", obj))
        namespaces = [vars(m) for m in modules.values()]
        namespaces.append(vars(importlib.import_module(PACKAGE)))
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((ns, attr, obj))
                    ns[attr] = hit[1]
        for layer, cls_name, meth in COUNTED_METHODS:
            cls = getattr(modules[layer], cls_name)
            orig = vars(cls)[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._count_wrapper(f"{layer}.{meth}", orig))

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = orig
            else:
                setattr(target, attr, orig)
        self._patches.clear()

    def _span_wrapper(self, name, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        tracer = self
        cache_info = getattr(fn, "cache_info", None)

        def traced(*args, **kwargs):
            sid = next(ids)
            op = tracer.op
            if cache_info is not None:
                misses = cache_info().misses
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((op, sid, stack[-1], name, t0, t1))
            counts = tracer.counts[op]
            if cache_info is not None and cache_info().misses != misses:
                counts[name + ".misses"] += 1
                _result_counters(name + ".miss", result, counts)
            _result_counters(name, result, counts)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        if cache_info is not None:
            traced.cache_info = cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def _count_wrapper(self, name, fn):
        tracer = self
        calls = name + ".calls"

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts = tracer.counts[tracer.op]
            counts[calls] += 1
            _result_counters(name, result, counts)
            return result

        counted.__name__ = fn.__name__
        counted.__wrapped__ = fn
        return counted

    # -- operations ----------------------------------------------------------

    def run_op(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` as operation ``op_id`` under a root span."""
        self.op = op_id
        traced = self._span_wrapper(OP_SPAN, fn)
        try:
            return traced(*args)
        finally:
            self.op = 0

    def summary(self) -> dict:
        """Per operation: span self time and call count by name, plus counters.

        Returns ``{op: {"self": {name: s}, "calls": {name: n}, "counts": {...}}}``.
        """
        child_time = Counter()
        for _op, _sid, parent, _name, t0, t1 in self.spans:
            child_time[parent] += t1 - t0
        out = {}
        for op, sid, _parent, name, t0, t1 in self.spans:
            rec = out.setdefault(op, {"self": Counter(), "calls": Counter(),
                                      "counts": Counter()})
            rec["self"][name] += (t1 - t0) - child_time[sid]
            rec["calls"][name] += 1
        for op, counts in self.counts.items():
            out.setdefault(op, {"self": Counter(), "calls": Counter(),
                                "counts": Counter()})["counts"].update(counts)
        return out


def op_metrics(rec) -> Counter:
    """Flat per-layer metrics of one operation's summary: self time per
    layer and per function, call counts, and the work counters."""
    m = Counter()
    for name, s in rec["self"].items():
        m[name.split(".")[0] + ".self_s"] += s
        m[name + ".self_s"] += s
        m[name + ".calls"] += rec["calls"][name]
    m.update(rec["counts"])
    calls = m["search.solve_freezing.calls"]
    m["search.mask_yield"] = m["search.masks"] / calls if calls else 0.0
    return m
