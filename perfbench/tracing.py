"""Per-layer tracing of the library from outside its source.

Every public function defined in a loaded ``gooddecomp.*`` module is replaced
by one wrapper in every module namespace that bound it (``oracle``, ``decomp``
and ``cli`` each import ``arc_connectivity`` from ``digraph``), so a call is
seen whichever name the caller used.  The oracle's search kernel is wrapped as
``oracle._impl.search`` under the layer name ``kernel`` whatever module backs
it.  A function that does not exist is simply not wrapped.

Each call becomes a span (id, parent id, layer, start, end, instance label)
kept in memory and written out by :meth:`Tracer.dump` when the run ends.
:meth:`Tracer.finish` turns the spans into per-layer calls, total and self
seconds: a layer's self time is its spans' time minus the time of wrapped
child spans, and time the speed probe spent inside a span is left out.
Counts (calls, search nodes, oracle outcomes, enumeration yields) are
deterministic; times are recorded only as seconds.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter
from math import comb

PACKAGE = "gooddecomp"
KERNEL_LAYER = "kernel"
STATS = ("calls", "total_s", "self_s")


class Tracer:
    def __init__(self):
        self.layers: set[str] = set()
        self.stats: dict[str, list] = {}  # layer -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.instance = None
        self._stack: list[int] = []  # ids of open spans
        self._next_id = 0
        self._depth: Counter = Counter()
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public library function in every namespace binding it."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        layers: dict[int, tuple[str, object]] = {}
        for mod in modules.values():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ in modules
                    and obj.__module__ != PACKAGE
                ):
                    short = obj.__module__.rsplit(".", 1)[1]
                    layers[id(obj)] = (f"{short}.{obj.__name__}", obj)
        impl = getattr(modules.get(PACKAGE + ".oracle"), "_impl", None)
        search = getattr(impl, "search", None)
        if callable(search):
            layers[id(search)] = (f"{KERNEL_LAYER}.search", search)
        wrappers = {key: self._wrap(layer, fn) for key, (layer, fn) in layers.items()}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        self.layers |= {layer for layer, _ in layers.values()}

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    # -- spans --------------------------------------------------------------

    def _open(self) -> tuple[int, float]:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        return span_id, time.perf_counter()

    def _close(self, layer: str, span_id: int, start: float, outermost: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append((span_id, parent, layer, start, end, self.instance, outermost))

    def finish(self, busy=lambda start, end: 0.0) -> None:
        """Per-layer [calls, total_s, self_s] from the spans; ``busy(start,
        end)`` is the time inside a span that belongs to no layer.  Total
        time counts only a layer's outermost spans, so recursion is not
        counted twice."""
        self.stats = {layer: [0, 0.0, 0.0] for layer in self.layers}
        child: Counter = Counter()
        for span_id, parent, layer, start, end, _, outermost in self.spans:  # children close first
            net = end - start - busy(start, end)
            st = self.stats[layer]
            st[0] += 1
            st[1] += net if outermost else 0.0
            st[2] += net - child.pop(span_id, 0.0)
            if parent is not None:
                child[parent] += net

    def _wrap(self, layer: str, fn):
        on_result = _RESULT_HOOKS.get(layer)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            on_call = _CALL_HOOKS.get(layer)

            def gen_wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(tracer.counts, args, kwargs)
                it = fn(*args, **kwargs)
                while True:
                    tracer._depth[layer] += 1
                    span_id, start = tracer._open()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._depth[layer] -= 1
                        tracer._close(layer, span_id, start, tracer._depth[layer] == 0)
                    tracer.counts[f"{layer}.yields"] += 1
                    yield item

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            tracer._depth[layer] += 1
            span_id, start = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._depth[layer] -= 1
                tracer._close(layer, span_id, start, tracer._depth[layer] == 0)
            if on_result is not None:
                on_result(tracer.counts, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ------------------------------------------------------------

    def value(self, name: str) -> float:
        """A per-layer metric by name; 0 for a layer that never ran."""
        layer, _, stat = name.rpartition(".")
        if stat in STATS:
            st = self.stats.get(layer)
            return float(st[STATS.index(stat)]) if st else 0.0
        if name == f"{KERNEL_LAYER}.search.nodes_per_s":
            secs = self.stats.get(f"{KERNEL_LAYER}.search", [0, 0.0, 0.0])[1]
            return self.counts[f"{KERNEL_LAYER}.search.nodes"] / secs if secs else 0.0
        if name == "oracle.enumerate_semicomplete.classes_per_candidate":
            cand = self.counts["oracle.enumerate_semicomplete.candidates"]
            return self.counts["oracle.enumerate_semicomplete.yields"] / cand if cand else 0.0
        return float(self.counts[name])

    def dump(self, path) -> None:
        layers = sorted({s[2] for s in self.spans})
        index = {name: i for i, name in enumerate(layers)}
        doc = {
            "layers": layers,
            "span_fields": ["id", "parent", "layer", "start_s", "end_s", "instance", "outermost"],
            "spans": [
                [s[0], s[1], index[s[2]], round(s[3], 9), round(s[4], 9), s[5], s[6]]
                for s in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def summary(self) -> dict:
        return {
            "stats": {
                layer: dict(zip(STATS, st)) for layer, st in sorted(self.stats.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }


# -- counters read from arguments and results ---------------------------------


def _kernel_result(counts: Counter, result) -> None:
    if isinstance(result, tuple) and len(result) >= 4 and isinstance(result[-1], int):
        counts[f"{KERNEL_LAYER}.search.nodes"] += result[-1]


def _oracle_result(counts: Counter, report) -> None:
    outcome = getattr(report, "outcome", None)
    if outcome is None:
        return
    counts[f"oracle.{outcome}"] += 1
    if outcome == "none" and getattr(report, "nodes_explored", None) == 0:
        counts["oracle.precheck_none"] += 1


def _enumerate_call(counts: Counter, args, kwargs) -> None:
    n = args[0] if args else kwargs.get("n", 0)
    if n >= 2:
        counts["oracle.enumerate_semicomplete.candidates"] += 3 ** comb(n, 2)


_RESULT_HOOKS = {
    f"{KERNEL_LAYER}.search": _kernel_result,
    "oracle.oracle_good_decomposition": _oracle_result,
}
_CALL_HOOKS = {"oracle.enumerate_semicomplete": _enumerate_call}
