"""In-memory spans around calls into a layer's public functions.

A span is ``(sid, parent, layer, name, start_ns, end_ns)``; ``parent`` is the
sid of the span open on the same thread when this one started, or -1.
Timestamps come from ``time.perf_counter_ns``, which on Linux reads
CLOCK_MONOTONIC, so spans recorded by the server process and by the client
process share one time line and are joined by time after the run.

Point events ``(t_ns, kind, value)`` carry counts that are not calls: SQL
statements, certificate-cache lookups and ``StepClock`` steps.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import threading
import time

now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.events: list[tuple] = []
        self.recording = True
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        if not self.recording:
            return fn(*args, **kwargs)
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = now()
            stack.pop()
            self.spans.append((sid, parent, layer, name, start, end))

    def event(self, kind: str, value=1) -> None:
        if self.recording:
            self.events.append((now(), kind, value))

    def wrapped(self, layer: str, name: str, fn):
        """``fn`` with a span around each call.

        A generator function gets one span per item, so work the generator
        does lazily is charged to this layer and not to whoever iterates.
        A function returning a ``contextlib`` context manager gets a span
        around its ``__enter__`` and one around its ``__exit__``.
        """
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen(*args, **kwargs):
                it = self.call(layer, name, fn, *args, **kwargs)
                while True:
                    try:
                        item = self.call(layer, name, next, it)
                    except StopIteration:
                        return
                    yield item
            return gen

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(layer, name, fn, *args, **kwargs)
            if isinstance(result, contextlib.AbstractContextManager) and hasattr(result, "gen"):
                return _TracedContext(self, layer, name, result)
            return result
        return wrapper

    def wrap_attrs(self, owner, layer: str, names) -> None:
        """Replace functions, methods or property getters of a class or module."""
        label = getattr(owner, "__name__", str(owner)).rsplit(".", 1)[-1]
        for attr in names:
            static = inspect.getattr_static(owner, attr)
            name = f"{label}.{attr}"
            if isinstance(static, property):
                setattr(owner, attr, property(self.wrapped(layer, name, static.fget)))
            else:
                setattr(owner, attr, self.wrapped(layer, name, getattr(owner, attr)))


class _TracedContext:
    def __init__(self, tracer: Tracer, layer: str, name: str, inner) -> None:
        self._tracer, self._layer, self._name, self._inner = tracer, layer, name, inner

    def __enter__(self):
        return self._tracer.call(self._layer, self._name + ".enter", self._inner.__enter__)

    def __exit__(self, *exc):
        return self._tracer.call(self._layer, self._name + ".exit", self._inner.__exit__, *exc)


def public_methods(cls) -> list[str]:
    """Names of the plain public functions a class defines itself."""
    return [
        name for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


def self_times(spans) -> dict[int, int]:
    """Span duration minus the time its child spans cover, by sid."""
    child_ns: dict[int, int] = {}
    for sid, parent, _layer, _name, start, end in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    return {sid: end - start - child_ns.get(sid, 0) for sid, _p, _l, _n, start, end in spans}
