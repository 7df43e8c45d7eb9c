"""Spans and counters recorded around calls into ``delpezzo``, from outside the package.

``Tracer.install`` replaces each traced public function by a wrapper in every
``delpezzo`` module namespace that holds it, so calls between modules are
seen as well as calls from the benchmark. A span records its name, start,
end, parent span and request id; spans stay in memory until the run ends.
A span's self time is its duration minus that of its child spans. Spans
are recorded per thread; a span opened in a worker thread has no parent.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import Counter
from time import perf_counter_ns

import oracle

#: Functions recorded as spans, by module and name.
SPANS = (
    ("delpezzo.cli", "main"),
    ("delpezzo.picard", "parse_divisor"),
    ("delpezzo.picard", "format_divisor"),
    ("delpezzo.picard", "arithmetic_genus"),
    ("delpezzo.picard", "euler_characteristic"),
    ("delpezzo.geometry", "is_effective"),
    ("delpezzo.acm", "enumerate_acm"),
    ("delpezzo.acm", "degree_count_table"),
    ("delpezzo.wild", "find_wild_pair"),
    ("delpezzo.wild", "family_plan"),
    ("delpezzo.goldens", "run_verification"),
    ("delpezzo.goldens", "golden_lines"),
)

#: Functions only counted: they run too often for a span each.
COUNTS = (
    ("delpezzo.picard", "intersect"),
    ("delpezzo.acm", "is_acm_initialized"),
)

#: Degree buckets of the effectivity spans: (name suffix, lowest degree).
DEGREE_BUCKETS = (("d00_09", -(10**9)), ("d10_19", 10), ("d20_up", 20))


def _layer_name(module: str, name: str) -> str:
    return f"{module.removeprefix('delpezzo.')}.{name}"


def effectivity_bucket(surface: str, coeffs) -> str:
    d = oracle.degree(surface, coeffs)
    return [suffix for suffix, low in DEGREE_BUCKETS if d >= low][-1]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, request id]
        self.counts: Counter = Counter()
        self.request = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _spanned(self, name: str, fn):
        bucketed = name == "geometry.is_effective"

        def wrapper(*args, **kwargs):
            span_name = name
            if bucketed:
                D = args[0]
                span_name = f"{name}.{effectivity_bucket(D.surface.name, D.coeffs)}"
            stack = self._stack()
            span = [span_name, 0, 0, stack[-1] if stack else -1, self.request]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()

        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "delpezzo":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def install(self) -> "Tracer":
        for module, name in SPANS:
            fn = getattr(sys.modules[module], name)
            self._replace(fn, self._spanned(_layer_name(module, name), fn))
        for module, name in COUNTS:
            fn = getattr(sys.modules[module], name)
            self._replace(fn, self._counted(_layer_name(module, name), fn))
        divisor_class = sys.modules["delpezzo.picard"].DivisorClass
        self._undo.append((divisor_class, "__post_init__", divisor_class.__post_init__))
        divisor_class.__post_init__ = self._counted("picard.DivisorClass", divisor_class.__post_init__)
        return self

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def summary(self) -> dict:
        """Per span name: calls, total and self nanoseconds and the longest span; counters."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        spans: dict[str, dict[str, int]] = {}
        for (name, start, end, _, _), children in zip(self.spans, child_ns):
            agg = spans.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "max_ns": 0})
            agg["calls"] += 1
            agg["ns"] += end - start
            agg["self_ns"] += end - start - children
            agg["max_ns"] = max(agg["max_ns"], end - start)
        return {"spans": spans, "counts": dict(self.counts)}

    def write(self, path) -> None:
        """Write the raw spans, one JSON list per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def merge(summaries: list[dict]) -> dict:
    """Sum several ``Tracer.summary`` results (keeping the longest span)."""
    spans: dict[str, dict[str, int]] = {}
    counts: Counter = Counter()
    for s in summaries:
        counts.update(s["counts"])
        for name, agg in s["spans"].items():
            out = spans.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "max_ns": 0})
            for key in ("calls", "ns", "self_ns"):
                out[key] += agg[key]
            out["max_ns"] = max(out["max_ns"], agg["max_ns"])
    return {"spans": spans, "counts": dict(counts)}
