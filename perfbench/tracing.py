"""In-memory span tracer that wraps tricol's public functions from outside.

The library is left untouched: ``Tracer.install`` replaces every public
function of every ``tricol`` module attribute (including the names other
modules import it under, such as ``applications.general_invert``) and a
few public methods by wrappers that record a span.  Hot scalar accessors
only increment a counter.  Spans are kept in a list and written out once,
when the benchmark ends.

A span is ``(id, parent_id, op_index, name, start, end)``.  All spans of
one benchmark op share ``op_index``; calls between layers nest through
``parent_id``.  Self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter, defaultdict

#: Methods that get spans, as (module, class, method).
SPAN_METHODS = (
    ("model", "BandSpec", "rates"),
    ("model", "StructuredMatrix", "band_rates"),
    ("model", "StructuredMatrix", "to_dense"),
    ("general", "InverseView", "materialize"),
    ("general", "InverseView", "block"),
)

#: Hot accessors that are only counted, as (module, class, method).
COUNT_METHODS = (
    ("model", "StructuredMatrix", "entry"),
    ("general", "InverseView", "element"),
    ("homogeneous", "DiagonalCache", "diag"),
)

#: Span names whose outermost calls realize one window of rates.
RATE_SPANS = ("model.BandSpec.rates", "model.StructuredMatrix.band_rates")


def _tricol_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "tricol" or name.startswith("tricol.")) and mod is not None]


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


class Tracer:
    """Collects spans and counts while installed; restores the library after."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op_index = -1          # -1: set-up, before the timed loop
        self._stack: list[tuple[int, str]] = []   # open spans: (id, name)
        self._next_id = 0
        self._patched: list[tuple] = []   # (owner, attribute, original)

    # -- recording ----------------------------------------------------------
    def _span_wrapper(self, name: str, fn):
        tracer = self
        counts_window = name in RATE_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if counts_window and not any(n in RATE_SPANS for _, n in stack):
                hi = args[1] if len(args) > 1 else kwargs["hi"]
                tracer.counts["model.rates_calls"] += 1
                tracer.counts["model.rate_indices"] += int(hi) + 1
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            stack.append((sid, name))
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, tracer.op_index, name, t0, t1))

        return wrapper

    def _count_wrapper(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------
    def install(self) -> "Tracer":
        wrappers: dict[int, object] = {}
        for mod in _tricol_modules():
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or not value.__module__.startswith("tricol")):
                    continue
                key = id(value)
                if key not in wrappers:
                    wrappers[key] = self._span_wrapper(
                        f"{_short(value.__module__)}.{value.__qualname__}", value)
                self._patch(mod, attr, wrappers[key])
        for modname, cls, meth in SPAN_METHODS:
            owner = getattr(sys.modules[f"tricol.{modname}"], cls)
            self._patch(owner, meth, self._span_wrapper(
                f"{modname}.{cls}.{meth}", vars(owner)[meth]))
        for modname, cls, meth in COUNT_METHODS:
            owner = getattr(sys.modules[f"tricol.{modname}"], cls)
            self._patch(owner, meth, self._count_wrapper(
                f"{modname}.{cls}.{meth}", vars(owner)[meth]))
        return self

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis -----------------------------------------------------------
    def self_times(self, ops=None) -> dict[str, float]:
        """Total self seconds per span name, over spans of the given op indices."""
        child = defaultdict(float)
        for sid, parent, op, name, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for sid, parent, op, name, t0, t1 in self.spans:
            if ops is None or op in ops:
                out[name] += (t1 - t0) - child[sid]
        return dict(out)

    def top_level_time(self, name: str, ops=None) -> float:
        """Total duration of the outermost spans with this name, children included."""
        return sum(t1 - t0 for _, parent, op, n, t0, t1 in self.spans
                   if n == name and parent < 0 and (ops is None or op in ops))

    def call_counts(self, ops=None) -> Counter:
        return Counter(name for _, _, op, name, _, _ in self.spans
                       if ops is None or op in ops)

    def dump(self) -> list[list]:
        return [list(s) for s in sorted(self.spans)]
