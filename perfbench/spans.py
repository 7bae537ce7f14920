"""In-memory spans and counters installed around sdflow's public functions
from outside the package.

A `Tracer` replaces a function in every loaded `sdflow` module that holds a
reference to it (so `from .runtime import run` call sites are covered too)
and restores the originals on `uninstall`.  Nothing inside `src/` changes.

* span(key)     records (name, start, end, parent) per call;
* counter(key)  counts the outermost calls only (the wrapped function may
                recurse through its own module global) and their total
                time, keyed by the span enclosing the call.

A key whose function no longer exists is listed in `missing`; metrics that
depend on it are reported absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

Measure = Callable[[tuple, object], float]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()      # (key, enclosing span) -> calls
        self.count_s: Counter = Counter()     # key -> seconds in outermost calls
        self.measured: Counter = Counter()    # key -> sum of measure(args, result)
        self.missing: set[str] = set()
        self._depth: Counter = Counter()
        self._patched: list[tuple] = []

    # --- installation ---------------------------------------------------------

    def install(self, spans: dict[str, Optional[Measure]],
                counters: list[str],
                kwarg_spans: Optional[dict[str, dict[str, str]]] = None) -> None:
        """`spans` maps "module.function" to an optional measure of each
        call; `kwarg_spans` maps a span key to {keyword: span name} for
        callables passed into it (e.g. run's observer)."""
        kwarg_spans = kwarg_spans or {}
        for key, measure in spans.items():
            self._patch(key, lambda fn, k=key, m=measure: self._span_wrapper(
                k, fn, m, kwarg_spans.get(k, {})))
        for key in counters:
            self._patch(key, lambda fn, k=key: self._counter_wrapper(k, fn))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _patch(self, key: str, make: Callable) -> None:
        module_name, _, attr = key.rpartition(".")
        try:
            original = getattr(importlib.import_module(f"sdflow.{module_name}"),
                               attr)
        except (ImportError, AttributeError):
            self.missing.add(key)
            return
        wrapper = make(original)
        for name, module in list(sys.modules.items()):
            if name != "sdflow" and not name.startswith("sdflow."):
                continue
            for ref, value in list(vars(module).items()):
                if value is original:
                    setattr(module, ref, wrapper)
                    self._patched.append((module, ref, original))

    # --- wrappers -----------------------------------------------------------------

    def _span_wrapper(self, key: str, fn: Callable, measure: Optional[Measure],
                      kwarg_spans: dict[str, str]) -> Callable:
        def traced(*args, **kwargs):
            for kw, name in kwarg_spans.items():
                if kwargs.get(kw) is not None:
                    kwargs[kw] = self._span_wrapper(name, kwargs[kw], None, {})
            index = len(self.spans)
            span = Span(key, 0.0, 0.0, self.stack[-1] if self.stack else None)
            self.spans.append(span)
            self.stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            if measure is not None:
                self.measured[key] += measure(args, result)
            return result
        return traced

    def _counter_wrapper(self, key: str, fn: Callable) -> Callable:
        depth = self._depth

        def counted(*args, **kwargs):
            if depth[key]:
                return fn(*args, **kwargs)
            enclosing = self.spans[self.stack[-1]].name if self.stack else None
            self.counts[(key, enclosing)] += 1
            depth[key] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.count_s[key] += time.perf_counter() - start
                depth[key] -= 1
        return counted

    # --- reading ------------------------------------------------------------------

    def inclusive(self, name: str) -> float:
        """Total time of the outermost spans with this name."""
        total = 0.0
        for span in self.spans:
            if span.name == name and not self._inside(span, name):
                total += span.end - span.start
        return total

    def self_time(self, name: str) -> float:
        """Time in spans with this name not covered by their child spans."""
        child = Counter()
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        return sum(span.end - span.start - child[i]
                   for i, span in enumerate(self.spans) if span.name == name)

    def layer_self_time(self, layer: str) -> float:
        names = {s.name for s in self.spans if s.name.startswith(layer + ".")}
        return sum(self.self_time(n) for n in names)

    def calls(self, key: str, within: Optional[str] = None) -> int:
        return sum(n for (k, enclosing), n in self.counts.items()
                   if k == key and (within is None or enclosing == within))

    def _inside(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False
