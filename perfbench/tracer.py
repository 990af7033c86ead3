"""Span tracing of cytforge from outside the package.

The tracer replaces every public function of each layer module, plus a few
named methods, by a wrapper that records a span.  A name imported with
``from .x import f`` is a second binding of the same function object, so the
wrapper is installed in every cytforge module that binds it, not only in the
module that defines it.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter_ns
from typing import Callable

from benchlib import Spans

LAYERS = (
    "scalars",
    "intlinalg",
    "surfaces",
    "cone",
    "cyt",
    "skt",
    "topology",
    "search",
    "catalog",
    "certificates",
    "reproduce",
    "cli",
)

# (module, class, method, span name)
METHODS = (
    ("surfaces", "CohClass", "of", "surfaces.CohClass.of"),
    ("intlinalg", "IntegerSolver", "__init__", "intlinalg.IntegerSolver"),
    ("certificates", "Certificate", "to_json", "certificates.to_json"),
)

# span name -> (counter name, value to add for a returned result)
OUTCOMES: dict[str, tuple[tuple[str, Callable], ...]] = {
    "cyt.solve_scale": (("cyt.solve_scale.hits", lambda r: r is not None),),
    "topology.topology_certificate": (("topology.classified", lambda r: r.diffeo_label != "unclassified"),),
    "skt.verify_skt": (("skt.passes", lambda r: r.verdict),),
    "cone.is_kahler": (("cone.curves_checked", lambda r: len(r.curve_checks)),),
    "catalog.load_catalog": (("catalog.records_read", lambda r: len(r[0])),),
    "search.search": (
        ("search.pairs_evaluated", lambda r: r[1].pairs_evaluated),
        ("search.records", lambda r: r[1].records_emitted),
    ),
}


class Tracer:
    def __init__(self):
        self.spans = Spans()
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters
        nid = len(spans.names)
        spans.names.append(name)
        name_ids, parents, starts, ends = spans.name_id, spans.parent, spans.start, spans.end
        hooks = OUTCOMES.get(name, ())

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            for counter, value in hooks:
                counters[counter] += int(value(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"cytforge.{layer}") for layer in LAYERS}
        wrappers: dict[int, Callable] = {}
        for layer, mod in modules.items():
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        # every binding of each function, in the package and in each module
        for modname, mod in list(sys.modules.items()):
            if modname != "cytforge" and not modname.startswith("cytforge."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value)) if inspect.isfunction(value) else None
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patch(mod, attr, wrapper)
        for layer, cls_name, method, span in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = inspect.getattr_static(cls, method)
            if isinstance(raw, staticmethod):
                self._patch(cls, method, staticmethod(self._wrap(span, raw.__func__)))
            else:
                self._patch(cls, method, self._wrap(span, raw))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
