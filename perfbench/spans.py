"""In-memory span tracing around calls into imbench, from outside the package.

``patched`` replaces chosen functions (module attributes or class
attributes) with wrappers and puts the originals back when its ``with``
block ends. A Tracer uses it for wrappers that record one span per call:
id, parent id, name, start, end, the (dataset, sampler, classifier, run)
id of the cell being computed, and optional attributes computed from the
call's arguments and result.

Spans are appended under a lock, and each thread keeps its own stack of
open spans, so cells running on a thread pool nest correctly. A cell span
opened on a thread with no open span adopts the open grid span as parent.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

# the tail percentile keeps at least this many values beyond it
TAIL_BEYOND = 10


@contextlib.contextmanager
def patched(replacements):
    """For each (owner, attr, wrap), set ``owner.attr = wrap(original)``;
    put every original back when the block ends, also after an error.

    The original is read from ``owner.__dict__``, so methods stay unbound
    and the owner must be the object that really holds the attribute."""
    saved = []
    try:
        for owner, attr, wrap in replacements:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int  # 0 = no parent
    name: str
    start: float
    end: float
    cell: tuple | None
    attrs: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr`` recorded as span ``name``.

    ``cell_of(args)`` marks the span that starts a cell and returns its id;
    ``attrs(args, kwargs, result)`` returns extra fields for the span;
    ``root`` marks the grid span that threads without open spans nest under.
    """

    owner: Any
    attr: str
    name: str
    cell_of: Callable | None = None
    attrs: Callable | None = None
    root: bool = False


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)  # next() on a C iterator is atomic under the GIL
        self._local = threading.local()
        self._root = 0
        self._patches = None

    def __enter__(self) -> "Tracer":
        self._patches = patched([(t.owner, t.attr, functools.partial(self._wrap, t)) for t in self.targets])
        self._patches.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._patches.__exit__(*exc)

    def _wrap(self, target: Target, fn):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.cell = None
            sid = next(self._ids)
            parent = stack[-1] if stack else self._root
            saved_cell = local.cell
            if target.cell_of is not None:
                local.cell = target.cell_of(args)
            if target.root:
                self._root = sid
            stack.append(sid)
            attrs = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs = {"error": type(exc).__name__}
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                cell = local.cell
                local.cell = saved_cell
                if target.root:
                    self._root = parent
                if attrs is None and target.attrs is not None:
                    attrs = target.attrs(args, kwargs, result)
                span = Span(sid, parent, target.name, start, end, cell, attrs)
                with self._lock:
                    self.spans.append(span)
            return result

        return wrapper


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
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
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(children.get(s.id, []), s.start, s.end) for s in spans
    }


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile p with at least TAIL_BEYOND values above the
    p-th order statistic, and that statistic; None when there are too few."""
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 0, -1):
        k = math.ceil(p * n / 100)
        if k >= 1 and n - k >= TAIL_BEYOND:
            return p, xs[k - 1]
    return None
