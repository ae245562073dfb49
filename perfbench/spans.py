"""Span tracing of mobcert layers from outside the package.

``Tracer.install`` replaces each traced function at every place it is looked
up -- the module that defines it and every mobcert module that imported it
by name (``mobcert.cli.run_scan``, ``mobcert.scan.anchor_search_bulk``, ...)
-- with a wrapper that records a span.  ``Tracer.uninstall`` puts the
originals back.

Spans are aggregated as they close, so memory stays bounded: per traced
function the tracer keeps its call count, its busy time (inclusive span
duration) and its self time (duration minus the union of the intervals its
child spans cover).  A span that starts on a worker thread with no open span
of its own is adopted by the innermost span open on the main thread, which
is the ``run_scan`` call that owns the thread pool.
"""

from __future__ import annotations

import functools
import sys
import threading
from time import perf_counter


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class _Span:
    __slots__ = ("start", "children")

    def __init__(self, start: float):
        self.start = start
        self.children: list[tuple[float, float]] = []


class Tracer:
    """Per-function call counts, busy and self times, plus named counters."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[_Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[_Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def totals(self) -> dict[str, float]:
        """Running totals, flat: <name>.calls, <name>.busy_s, <name>.self_s and the counters."""
        with self._lock:
            out = dict(self.counters)
            for name, calls in self.calls.items():
                out[name + ".calls"] = calls
                out[name + ".busy_s"] = self.busy[name]
                out[name + ".self_s"] = self.self_time[name]
        return out

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def wrap(self, name: str, fn, on_return=None):
        """Wrap fn so each call records a span under name.

        on_return(tracer, name, args, kwargs, result) may add counters; it
        runs outside the span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif stack is not tracer._main_stack and tracer._main_stack:
                parent = tracer._main_stack[-1]  # a pool thread works for the main thread's open span
            else:
                parent = None
            span = _Span(perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - span.start
                covered = _union_length(span.children, span.start, end) if span.children else 0.0
                if parent is not None:
                    parent.children.append((span.start, end))
                with tracer._lock:
                    tracer.calls[name] = tracer.calls.get(name, 0) + 1
                    tracer.busy[name] = tracer.busy.get(name, 0.0) + dur
                    tracer.self_time[name] = tracer.self_time.get(name, 0.0) + dur - covered
            if on_return is not None:
                on_return(tracer, name, args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> None:
        """targets: iterable of (module_name, func_name, metric_name, on_return).

        Functions that no longer exist are skipped, so the tracer keeps working
        when the package drops or renames a layer; their metrics read zero.
        """
        modules = [m for n, m in list(sys.modules.items()) if n == "mobcert" or n.startswith("mobcert.")]
        for mod_name, func_name, metric, on_return in targets:
            home = sys.modules.get(mod_name)
            fn = getattr(home, func_name, None) if home is not None else None
            if fn is None:
                continue
            wrapper = self.wrap(metric, fn, on_return)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()
