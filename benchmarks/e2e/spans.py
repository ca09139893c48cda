"""Span recording for the traced benchmark run.

Spans are recorded only from benchmark code: :class:`Tracer` wraps
functions and methods of the program at layer boundaries and restores them
on :meth:`Tracer.uninstall`.  A method is wrapped by rebinding the class
attribute; a name imported into another module is wrapped by rebinding
that module's binding, so only calls made through that module are timed.

Each span records its name, start, end, its parent (a per-thread stack)
and the request it belongs to.  The request id is the bench event id the
load generator set on the thread, or, where none is set (inside a forked
server), the id of the thread's outermost open span.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: Optional[int]
    event_id: object
    name: str
    start: float
    end: float
    tag: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from wrapped callables; undoes every wrap on uninstall."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: name -> list of observed values (e.g. response sizes).
        self.values: Dict[str, List[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Thread-local context
    # ------------------------------------------------------------------ #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_event(self, event_id: object) -> None:
        """Attribute spans opened on this thread to *event_id* (None clears)."""
        self._local.event_id = event_id

    def observe(self, name: str, value: float) -> None:
        self.values[name].append(float(value))

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def call(self, name: str, function: Callable, args, kwargs, tag: Optional[Callable] = None):
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent_id, event_id = stack[-1]
        else:
            parent_id = None
            event_id = getattr(self._local, "event_id", None)
            if event_id is None:
                event_id = ("span", span_id)
        stack.append((span_id, event_id))
        start = time.perf_counter()
        result = None
        try:
            result = function(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            label = tag(result) if tag is not None and result is not None else None
            self.spans.append(Span(span_id, parent_id, event_id, name, start, end, label))

    def _wrapper(self, name: str, function: Callable, tag: Optional[Callable]) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, function, args, kwargs, tag)

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    # A wrap whose target no longer exists is skipped, and its layer then
    # reports zero: the program may be refactored without the benchmark
    # changing, and per-layer metrics carry no bound.

    def wrap_method(self, owner: type, attribute: str, name: str, tag: Optional[Callable] = None) -> None:
        """Rebind ``owner.attribute`` (a function or a classmethod)."""
        raw = owner.__dict__.get(attribute)
        if raw is None:
            return
        if isinstance(raw, classmethod):
            replacement: object = classmethod(self._wrapper(name, raw.__func__, tag))
        else:
            replacement = self._wrapper(name, raw, tag)
        setattr(owner, attribute, replacement)
        self._undo.append((owner, attribute, raw))

    def wrap_binding(self, module: object, attribute: str, name: str, tag: Optional[Callable] = None) -> None:
        """Rebind a module-level name (a function imported into *module*)."""
        raw = getattr(module, attribute, None)
        if raw is None:
            return
        setattr(module, attribute, self._wrapper(name, raw, tag))
        self._undo.append((module, attribute, raw))

    def rebind(self, owner: object, attribute: str, replacement: object) -> None:
        """Install an arbitrary replacement that :meth:`uninstall` undoes."""
        raw = getattr(owner, attribute)
        setattr(owner, attribute, replacement)
        self._undo.append((owner, attribute, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, raw = self._undo.pop()
            setattr(owner, attribute, raw)


# --------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------- #


def covered(interval: Tuple[float, float], parts: Sequence[Tuple[float, float]]) -> float:
    """Length of *interval* covered by the union of *parts*."""
    low, high = interval
    clipped = sorted((max(low, a), min(high, b)) for a, b in parts if b > low and a < high)
    total = 0.0
    cursor = low
    for a, b in clipped:
        a = max(a, cursor)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start, span.end))
    return {
        span.span_id: span.duration - covered((span.start, span.end), children.get(span.span_id, ()))
        for span in spans
    }


def per_request(spans: Sequence[Span], name: str, tag: Optional[str] = None) -> List[float]:
    """Time (s) each request that reached the layer spent in it.

    A request may enter a layer several times; its time in the layer is the
    sum of those spans.
    """
    totals: Dict[object, float] = defaultdict(float)
    for span in spans:
        if span.name == name and (tag is None or span.tag == tag):
            totals[span.event_id] += span.duration
    return list(totals.values())
