"""Spans for the traced run, and the arithmetic that reads them.

A :class:`Tracer` wraps a layer's entry point so every call records one
span: its name, start and end (``time.perf_counter_ns``, the system's
monotonic clock, so the load process can compare against it), the span
that was open on the calling thread when it started (its parent), the
request id it serves, and optionally a work count.  Spans are kept in
memory and written out once, at shutdown.

A span's *self time* is its duration minus the part of it that its
children cover.  Children may overlap one another -- modules of one
build compile on a thread pool -- so the covered part is the length of
the union of the children's intervals, clipped to the parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

#: ``(sid, parent_sid, name, start_ns, end_ns, request_id, extra)``
Span = Tuple[int, Optional[int], str, int, int, Any, Any]


class Tracer:
    """Records spans from any number of threads.

    Each thread keeps a stack of the spans open on it; a new span's
    parent is the top of that stack, and it inherits the parent's
    request id unless its wrapper names one.  Work handed to another
    thread keeps its parent through :meth:`adopt`."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Tuple[int, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Tuple[int, Any]]:
        """``(sid, request_id)`` of the innermost open span here."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def adopt(self, context: Optional[Tuple[int, Any]]):
        """Run a block on this thread as if inside *context* (a value
        of :meth:`current` taken on the submitting thread)."""
        stack = self._stack()
        if context is not None:
            stack.append(context)
        try:
            yield
        finally:
            if context is not None:
                stack.pop()

    def wrap(self, name: str, fn: Callable[..., Any],
             request_id: Optional[Callable[[tuple], Any]] = None,
             attr: Optional[Callable[[tuple], Any]] = None,
             counter: Optional[Callable[[tuple], Sequence[int]]] = None
             ) -> Callable[..., Any]:
        """*fn* recording a span named *name* per call.

        ``request_id(args)`` names the request the call serves (else the
        parent's is used); ``attr(args)`` is stored with the span, taken
        before the call; ``counter(args)`` is read before and after the
        call and the difference is stored."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            parent = stack[-1] if stack else (None, None)
            sid = next(ids)
            rid = request_id(args) if request_id is not None else parent[1]
            extra = attr(args) if attr is not None else None
            before = counter(args) if counter is not None else None
            stack.append((sid, rid))
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if before is not None:
                    extra = [b - a for a, b in zip(before, counter(args))]
                spans.append([sid, parent[0], name_id, start, end, rid,
                              extra])

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": self.spans}, handle)


def load_spans(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    names = data["names"]
    return [(sid, parent, names[name], start, end, rid, extra)
            for sid, parent, name, start, end, rid, extra in data["spans"]]


def covered(lo: int, hi: int, intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    total = 0
    run_lo = run_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """``{sid: self time in ns}`` for every span."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for sid, parent, _name, start, end, _rid, _extra in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - covered(start, end, children.get(sid, ()))
            for sid, _parent, _name, start, end, _rid, _extra in spans}


# ---------------------------------------------------------------------------
# Percentiles from raw client samples
# ---------------------------------------------------------------------------

#: the percentiles the tail is chosen from, highest last
TAIL_LADDER = (90.0, 95.0, 99.0, 99.9)
#: samples that must lie beyond a percentile for it to be reported
TAIL_MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the *p*-th percentile of *n* samples,
    ``ceil(p * n / 100)``, computed in integers so that e.g. 99.9 of
    10000 is exactly 9990."""
    return max(1, -(-round(p * n * 1000) // 100000))


def percentile(sorted_samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of already sorted samples."""
    return sorted_samples[_rank(len(sorted_samples), p) - 1]


def beyond(n: int, p: float) -> int:
    """Samples ranked above the *p*-th percentile of *n* samples."""
    return n - _rank(n, p)


def tail_percentile(sorted_samples: Sequence[float], highest: float = 99.9
                    ) -> Tuple[Optional[float], Optional[float]]:
    """``(p, value)``: the highest percentile of :data:`TAIL_LADDER`, up
    to *highest*, with at least :data:`TAIL_MIN_BEYOND` samples beyond
    it, or ``(None, None)`` when even the lowest has too few."""
    n = len(sorted_samples)
    best = (None, None)
    for p in TAIL_LADDER:
        if p <= highest and beyond(n, p) >= TAIL_MIN_BEYOND:
            best = (p, percentile(sorted_samples, p))
    return best
