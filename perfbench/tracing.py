"""Spans recorded by the benchmark around its calls into wafersim's layers.

A span is one call: its name (``<module>.<function>``), start and end on
``time.perf_counter`` and the span that caused it.  Calls the benchmark makes
itself go through ``Tracer.call``; calls the program makes inside its own
entry points are traced by ``Tracer.patched``, which swaps the module names
they are looked up by for span-recording wrappers.  Spans stay in memory and
are aggregated when the run ends.  The untraced run uses ``NullTracer``, whose
calls go straight through and which patches nothing, so tracing costs nothing
there.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from types import ModuleType
from typing import Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the causing span in Tracer.spans

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a span per call; ``peak_mb`` holds tracemalloc peaks."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.peak_mb: dict[str, float] = {}
        self._stack: list[int] = []
        self._peak_calls: list = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), float("nan"), parent)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def call_peak(self, name: str, fn, *args, **kwargs):
        """Like ``call``; ``measure_peaks`` later repeats the call under
        tracemalloc, so that the span's time is not slowed by it."""
        out = self.call(name, fn, *args, **kwargs)
        self._peak_calls.append((name, fn, args, kwargs))
        return out

    @contextmanager
    def patched(self, calls: dict[ModuleType, list[str]],
                names: dict[str, str] = {}, peak: tuple = ()):
        """Within the block, replace each function named in ``calls``
        (module -> attribute names) in that module by a wrapper that records
        a span per call.  The span is named ``<defining module>.<function>``
        unless ``names`` renames the attribute; span names in ``peak`` go
        through ``call_peak``.  The originals are restored on exit."""
        saved = []
        try:
            for module, attrs in calls.items():
                for attr in attrs:
                    fn = getattr(module, attr)
                    name = names.get(attr) or \
                        f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                    call = self.call_peak if name in peak else self.call
                    saved.append((module, attr, fn))
                    setattr(module, attr, functools.partial(call, name, fn))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def measure_peaks(self) -> None:
        """Repeat the ``call_peak`` calls under tracemalloc and record each
        one's traced-heap peak in MB; call it outside the timed part."""
        for name, fn, args, kwargs in self._peak_calls:
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), peak / 2**20)
        self._peak_calls = []

    def totals(self) -> dict[str, float]:
        """Summed seconds per span name."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.duration
        return out

    def coverage(self) -> float:
        """Share of the first span's time covered by its direct children;
        the first span is the repetition's timed part."""
        covered = sum(s.duration for s in self.spans if s.parent == 0)
        return covered / self.spans[0].duration


class NullTracer:
    """Tracer stand-in for the untraced run: no spans, no bookkeeping."""

    def span(self, name: str):
        return nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    call_peak = call

    def patched(self, calls, names={}, peak=()):
        return nullcontext()

    def measure_peaks(self) -> None:
        pass
