"""Layer timing from outside: wrap public entry points, keep spans.

:class:`Tracer` replaces a function or method with a timing wrapper for
the duration of a traced pass and restores the original afterwards, so
untraced passes run the program exactly as shipped.  Every call becomes
a span ``[layer, start, end, parent]`` (``parent`` is the index of the
enclosing span on the same thread, or -1) held in memory; the caller
writes them out once at the end of the run.

Self time is a call's duration minus the duration of the traced calls
nested inside it on the same thread, so the layers' self times add up
to the traced share of a pass without double counting.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from time import perf_counter


class LayerStats:
    """Accumulated self time, call count and extra counters of a layer."""

    __slots__ = ("self_s", "calls", "extra")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.calls = 0
        self.extra = defaultdict(float)


class Tracer:
    def __init__(self) -> None:
        self.spans = []
        self.layers = defaultdict(LayerStats)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, layer: str, extra=None) -> None:
        """Time ``owner.attr`` as ``layer`` until :meth:`unwrap_all`.

        ``extra(stats, args, kwargs, result)`` may add counters to the
        layer's :attr:`LayerStats.extra` after each call.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else (
            getattr(owner, attr)
        )
        func = orig.__func__ if isinstance(orig, classmethod) else orig
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = [layer, 0.0, 0.0, stack[-1][0] if stack else -1]
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(span)
            child = [0.0]
            stack.append((idx, child))
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1][0] += t1 - t0
                span[1] = t0
                span[2] = t1
                with tracer._lock:
                    stats = tracer.layers[layer]
                    stats.self_s += (t1 - t0) - child[0]
                    stats.calls += 1
            if extra is not None:
                with tracer._lock:
                    extra(tracer.layers[layer], args, kwargs, result)
            return result

        if isinstance(orig, classmethod):
            traced = classmethod(traced)
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def add(self, layer: str, key: str, value: float) -> None:
        """Add ``value`` to a layer's extra counter ``key``."""
        with self._lock:
            self.layers[layer].extra[key] += value

    def mark(self, layer: str, start: float, end: float) -> None:
        """Record a span that was timed by the caller (e.g. a pass)."""
        with self._lock:
            self.spans.append([layer, start, end, -1])

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def take_layers(self) -> dict:
        """The layer stats accumulated since the last call; resets them."""
        with self._lock:
            out, self.layers = self.layers, defaultdict(LayerStats)
        return out


class TimedLock:
    """A lock proxy that books the time spent waiting to acquire it."""

    def __init__(self, lock, tracer: Tracer, layer: str) -> None:
        self._lock = lock
        self._tracer = tracer
        self._layer = layer

    def acquire(self, *args, **kwargs):
        t0 = perf_counter()
        got = self._lock.acquire(*args, **kwargs)
        self._tracer.add(self._layer, "lock_wait_s", perf_counter() - t0)
        return got

    def release(self) -> None:
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()
