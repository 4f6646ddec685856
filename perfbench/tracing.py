"""Span tracing from outside the program, and the benchmark's reporting rules.

The traced run wraps named public functions of :mod:`repro` (module
functions, including every module that imported them by name, and
class methods) so that each call records a span: name, start, end,
parent span and thread.  Spans stay in memory until the run ends.  A
span's *self time* is its duration minus the part of its interval that
its child spans cover; children on other threads may overlap each
other or outlast the parent, so coverage is the length of the union of
the children's intervals clipped to the parent.

Nothing here edits a file of the program: patches replace attributes
of loaded modules and classes for the duration of a traced run and are
undone afterwards.  Process-pool workers are forked from the traced
parent; every tracer switches itself off and undoes its patches in a
forked child, so workers run the program's own functions, unwrapped,
and record nothing.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import math
import os
import re
import sys
import threading
import time
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: A reported percentile needs at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


#: Every live tracer, so a forked child can switch them all off.
_TRACERS: "weakref.WeakSet[Tracer]" = weakref.WeakSet()


def _forget_in_child() -> None:
    """In a forked child: stop recording and put every patched attribute back."""
    for tracer in list(_TRACERS):
        tracer.active = False
        tracer.restore()


os.register_at_fork(after_in_child=_forget_in_child)


def check_metric_name(name: str) -> str:
    """Return ``name`` if it follows the metric-name rule, else raise."""
    if not NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} must start with a letter or digit and use at most "
            "64 letters, digits, '_', '.' and '-'"
        )
    return name


def check_unit(unit: str) -> str:
    """Return ``unit`` if it follows the unit rule, else raise."""
    if not UNIT_RE.match(unit):
        raise ValueError(f"unit {unit!r} must be 1-16 letters, digits, '_', '/', '%', '.', '-'")
    return unit


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile of ``n``."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q!r}")
    return n - math.ceil(q / 100.0 * n)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, refused unless ten samples lie beyond it."""
    n = len(values)
    if samples_beyond(n, q) < MIN_SAMPLES_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} of {n} samples has {samples_beyond(n, q)} beyond it; "
            f"at least {MIN_SAMPLES_BEYOND} are required"
        )
    ordered = sorted(values)
    return float(ordered[math.ceil(q / 100.0 * n) - 1])


def median(values: Sequence[float]) -> float:
    """Plain median (no tail rule: half the samples lie on each side)."""
    if not values:
        raise InsufficientSamples("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


@dataclass(frozen=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    span_id: int
    parent_id: int | None
    thread_id: int

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "id": self.span_id,
            "parent": self.parent_id,
            "thread": self.thread_id,
        }


def covered_length(intervals: Iterable[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0
    cur_start = cur_end = None
    for a, b in clipped:
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        elif b > cur_end:
            cur_end = b
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, int]:
    """Self time in ns of every span: duration minus what its children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start_ns, span.end_ns))
    return {
        span.span_id: (span.end_ns - span.start_ns)
        - covered_length(children.get(span.span_id, ()), span.start_ns, span.end_ns)
        for span in spans
    }


class Tracer:
    """In-memory span recorder with attribute patching and call counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        # The open span chain of this context: (span_id, name, enclosing).
        self._current: contextvars.ContextVar[tuple | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._ids = itertools.count(1)
        self._undo: list[Callable[[], None]] = []
        #: Wrappers record only while this is set, so set-up and the
        #: correctness checks outside the timed region leave no spans.
        self.active = False
        #: Calls through :meth:`counted` wrappers while recording.
        self.n_counted = 0
        _TRACERS.add(self)

    @contextlib.contextmanager
    def recording(self):
        """Record spans and counts inside the ``with`` block only."""
        self.active = True
        try:
            yield self
        finally:
            self.active = False

    # -- recording -------------------------------------------------------
    def run_span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; return its result."""
        parent = self._current.get()
        span_id = next(self._ids)
        token = self._current.set((span_id, name, parent))
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._current.reset(token)
            self.spans.append(
                Span(name, start, end, span_id, parent[0] if parent else None, threading.get_ident())
            )

    def nested_in(self, name: str) -> bool:
        """Whether a span named ``name`` is open in this context."""
        current = self._current.get()
        while current is not None:
            if current[1] == name:
                return True
            current = current[2]
        return False

    # -- wrappers --------------------------------------------------------
    def timed(self, name: str, fn: Callable, on_call: Callable | None = None) -> Callable:
        """A wrapper recording a span per call (per resumption for generators).

        ``calls`` counts invocations that are not nested inside an open
        span of the same name, so a public boundary that calls another
        boundary of its own layer counts once.  For those outer calls,
        ``on_call(args, kwargs, result)`` may add layer counters.
        """
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.active:
                    yield from fn(*args, **kwargs)
                    return
                if not tracer.nested_in(name):
                    tracer.counters[name + ".calls"] += 1
                inner = fn(*args, **kwargs)
                sentinel = object()
                while True:
                    item = tracer.run_span(name, next, inner, sentinel)
                    if item is sentinel:
                        return
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outer = not tracer.nested_in(name)
            if outer:
                tracer.counters[name + ".calls"] += 1
            result = tracer.run_span(name, fn, *args, **kwargs)
            if outer and on_call is not None:
                on_call(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """A wrapper that only counts calls (for boundaries too hot to span)."""
        tracer = self
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counters[key] += 1
                tracer.n_counted += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------
    def patch_function(self, module, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace a module function everywhere the program imported it by name."""
        original = getattr(module, attr)
        wrapper = make(original)
        root = module.__name__.split(".")[0] + "."
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith(root):
                continue
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                self._undo.append(functools.partial(setattr, mod, attr, original))

    def patch_method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace a method defined on ``cls`` (plain, class- or staticmethod)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            patched = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(make(raw.__func__))
        else:
            patched = make(raw)
        setattr(cls, attr, patched)
        self._undo.append(functools.partial(setattr, cls, attr, raw))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- aggregation -----------------------------------------------------
    def self_ms_by_name(self) -> dict[str, float]:
        """Summed self time in ms per span name."""
        own = self_times(self.spans)
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += own[span.span_id] / 1e6
        return dict(totals)

    # -- calibration -----------------------------------------------------
    def calibrate(self, calls: int = 20_000, rounds: int = 5) -> tuple[float, float]:
        """Measured cost in ns of one recorded span and of one counted call.

        Times a no-op behind each wrapper against the bare no-op while
        recording (best of ``rounds``), then drops what it recorded.
        """

        def noop():
            return None

        variants = (noop, self.timed("calibrate", noop), self.counted("calibrate", noop))
        n_spans, counters, n_counted = len(self.spans), Counter(self.counters), self.n_counted
        best = [math.inf] * len(variants)
        with self.recording():
            for _ in range(rounds):
                for k, fn in enumerate(variants):
                    start = time.perf_counter_ns()
                    for _ in range(calls):
                        fn()
                    best[k] = min(best[k], (time.perf_counter_ns() - start) / calls)
        del self.spans[n_spans:]
        self.counters, self.n_counted = counters, n_counted
        return max(best[1] - best[0], 0.0), max(best[2] - best[0], 0.0)


def reconcile_pairs(
    pairs: Sequence[tuple[float, float, int, int]], span_ns: float, count_ns: float
) -> tuple[float, float]:
    """Tracing overhead and reconcile error, in %, over matched passes.

    Each pair is (untraced s, traced s, spans recorded, counted calls) of
    the same input run twice back to back.  The overhead is the median
    of traced / untraced - 1.  The reconcile error is the absolute value
    of the median of (traced - spans x span cost - counted calls x count
    cost - untraced) / untraced: what the traced self times plus the
    untraced remainder add up to, less the wrapper cost measured apart
    from the run, against the wall time of the same work with nothing
    recording.  Medians over signed per-pair figures, because single
    passes of the same input differ by 10% or more on a shared box.
    """
    overhead = median([traced / untraced - 1.0 for untraced, traced, _, _ in pairs])
    error = median(
        [
            (traced - (spans * span_ns + counted * count_ns) / 1e9 - untraced) / untraced
            for untraced, traced, spans, counted in pairs
        ]
    )
    return overhead * 100.0, abs(error) * 100.0
