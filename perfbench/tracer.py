"""In-memory span tracer that wraps the public functions of the futurity layers.

Every public function defined in a layer module is replaced, at every
`futurity.*` module attribute that binds it, by a wrapper that records one
span: (id, parent id, layer, function, start, end, thread). Inner calls are
caught too, because the modules look their callees up as module globals at
call time. Nothing under `src/` is modified; `Tracer.uninstall` puts the
original functions back.

A span's parent is the innermost open span of its own thread. A span that
opens on a worker thread with no open span of its own is parented to the
innermost open span of the main thread, which is the `replicate` call that
owns the pool.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

LAYERS = ("strategy", "formulas", "chain", "simulate", "machines", "cli")


class Span(NamedTuple):
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def _futurity_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "futurity" or name.startswith("futurity.")]


def public_functions() -> list[tuple[str, str, object]]:
    """(layer, name, function) for every public function defined in a layer module."""
    out = []
    for layer in LAYERS:
        module = sys.modules[f"futurity.{layer}"]
        for name, obj in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                out.append((layer, name, obj))
    return out


class _Patch:
    """Replaces each function at every futurity module attribute bound to it."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def apply(self, replacements: dict[int, object]) -> None:
        for module in _futurity_modules():
            for attr, value in list(vars(module).items()):
                new = replacements.get(id(value))
                if new is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, new)

    def restore(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()


class Tracer:
    """Collects spans for calls into the layers while installed."""

    def __init__(self):
        self._raw: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._patch = _Patch()
        self.paused = False

    @property
    def spans(self) -> list[Span]:
        return [Span._make(raw) for raw in self._raw]

    @contextmanager
    def span(self, layer: str, name: str):
        """Record one span around the body; yields the span id."""
        if self.paused:
            yield None
            return
        ident = threading.get_ident()
        stack = self._main_stack if ident == self._main_ident else self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self._raw.append((span_id, parent, layer, name, start, end, ident))

    @contextmanager
    def pause(self):
        """Calls made in the body (checks, cross-checks) record no spans."""
        self.paused, previous = True, self.paused
        try:
            yield
        finally:
            self.paused = previous

    def _wrap(self, layer: str, name: str, fn):
        # Same bookkeeping as span(), inlined: this runs on every call into a
        # layer, and whatever it costs lands in the caller's self time.
        clock, get_ident, ids, record = time.perf_counter, threading.get_ident, self._ids, self._raw.append
        local, main_ident, main_stack = self._local, self._main_ident, self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            ident = get_ident()
            if ident == main_ident:
                stack = main_stack
            else:
                stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record((span_id, parent, layer, name, start, end, ident))

        return traced

    def install(self) -> None:
        self._patch.apply({id(fn): self._wrap(layer, name, fn) for layer, name, fn in public_functions()})

    def uninstall(self) -> None:
        self._patch.restore()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for child in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def root_of(spans: list[Span]) -> dict[int, int]:
    """Id of the outermost ancestor of every span."""
    parent = {s.id: s.parent for s in spans}
    roots: dict[int, int] = {}
    for s in spans:
        chain = [s.id]
        node = s.parent
        while node is not None and node not in roots:
            chain.append(node)
            node = parent.get(node)
        root = roots[node] if node is not None else chain[-1]
        for span_id in chain:
            roots[span_id] = root
    return roots


@contextmanager
def alloc_probe(names: tuple[str, ...]):
    """Peak traced allocation (bytes) of each main-thread call to the named functions.

    Runs the body under tracemalloc with the named public functions wrapped;
    yields a dict name -> list of per-call peaks. Calls from worker threads
    overlap and are not recorded.
    """
    peaks: dict[str, list[int]] = defaultdict(list)
    main = threading.main_thread().ident

    def wrap(name, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if threading.get_ident() != main:
                return fn(*args, **kwargs)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[name].append(tracemalloc.get_traced_memory()[1] - base)

        return probed

    patch = _Patch()
    patch.apply({id(fn): wrap(name, fn) for _, name, fn in public_functions() if name in names})
    tracemalloc.start()
    try:
        yield peaks
    finally:
        tracemalloc.stop()
        patch.restore()
