"""Span tracer that wraps a package's public functions from outside it.

`Tracer.install` replaces each public module-level function of the
given layer modules with a wrapper that records a span (name, start,
end, parent) and runs an optional counter on the call's arguments and
result. Names bound to the same function elsewhere at import time
(`from .training import classify_scored` in another module, or a
function stored in a module-level dict such as a stage table) are
rebound too, so no call escapes its span. `uninstall` restores every
original binding. Spans stay in memory until `write` is called.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from collections import defaultdict

ROOT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        # work counters, summed over calls; the caller resets them per pass
        self.sums: dict[str, float] = defaultdict(float)
        # sizes, holding the last value seen in the run
        self.last: dict[str, float] = {}
        self.wrapped: set[str] = set()
        self._restore: list[tuple[object, object, object]] = []

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else ROOT)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def _wrap(self, name: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def install(self, layer_modules, bind_modules, exclude=(), counters=None) -> None:
        """Wrap the public functions defined in `layer_modules` (named
        `<layer>.<function>` after the module's last dotted part), except
        those named in `exclude`, and rebind every reference to them held
        by the modules in `bind_modules`, as a module attribute or as a
        value of a module-level dict."""
        counters = counters or {}
        wrappers = {}
        for mod in layer_modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                if name in exclude:
                    continue
                wrappers[obj] = self._wrap(name, obj, counters.get(name))
                self.wrapped.add(name)

        for mod in bind_modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._restore.append((mod, attr, obj))
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if isinstance(value, types.FunctionType) and value in wrappers:
                            obj[key] = wrappers[value]
                            self._restore.append((obj, key, value))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    # -- analysis --------------------------------------------------------

    def self_times(self, first: int, stop: int) -> dict[str, float]:
        """Self time per span name over spans first..stop-1, which must be
        one root span and all its descendants: each span's duration minus
        that of its children."""
        child = defaultdict(float)
        for i in range(first + 1, stop):
            child[self.parents[i]] += self.ends[i] - self.starts[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(first, stop):
            out[self.names[i]] += self.ends[i] - self.starts[i] - child[i]
        return out

    def inclusive_times(self, first: int, stop: int) -> dict[str, float]:
        """Wall time per span name over spans first..stop-1, not counting
        a span that sits inside another span of the same name."""
        out: dict[str, float] = defaultdict(float)
        for i in range(first, stop):
            name, q = self.names[i], self.parents[i]
            while q >= first and self.names[q] != name:
                q = self.parents[q]
            if q < first:
                out[name] += self.ends[i] - self.starts[i]
        return out

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    @property
    def n_spans(self) -> int:
        return len(self.names)

    def span_cost(self, calls: int = 50000) -> float:
        """Seconds a wrapper adds to one call, timed on a throwaway tracer."""
        probe = Tracer()

        def bare():
            return None

        traced = probe._wrap("calibration", bare, None)
        t0 = time.perf_counter()
        for _ in range(calls):
            bare()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        return max(0.0, (t2 - t1) - (t1 - t0)) / calls

    def write(self, path) -> None:
        """One span per line: id, parent id (-1 for a root), name, and
        start and end in seconds from the first span's start."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i}\t{self.parents[i]}\t{name}\t"
                    f"{self.starts[i] - t0:.9f}\t{self.ends[i] - t0:.9f}\n"
                )
