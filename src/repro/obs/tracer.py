"""Process-wide tracer: nested spans and instant events.

One :class:`Tracer` collects every timing signal a run produces —
compiler passes, per-layer forwards, training epochs, simulator layer
attributions — into a single ordered event list that the exporters in
:mod:`repro.obs.export` turn into JSONL or a Chrome trace.  Spans are
the only record of time, and they carry the scalars of the work they
time as attrs (a ``train.epoch`` span its loss, top-1 and throughput;
a compiler pass span its rewrites).

Design constraints:

* **Near-zero overhead when disabled.**  ``tracer.span(...)`` on a
  disabled tracer returns a shared no-op context manager without
  recording anything; instrumented code paths check ``tracer.enabled``
  before doing any per-call work.  The overhead guard in
  ``tests/obs/test_overhead.py`` keeps this honest.
* **Thread safety.**  Each thread keeps its own span stack (nesting and
  parent attribution are per-thread); the shared event list is guarded
  by one lock.
* **The tree is recorded, not inferred.**  Every event draws an ``id``
  from the tracer's counter when it opens, and names its ``parent``: the
  id of the span open on the same thread, or ``None``.  Readers
  (:mod:`repro.obs.attrib`) rebuild the call tree from these ids.
* **Exception safety.**  A span closes (and is recorded, tagged with
  the exception type) even when the body raises.

Timestamps come from :func:`time.perf_counter` (monotonic) and are
stored as microseconds since the tracer's epoch, which is exactly the
``ts`` unit the Chrome trace-event format expects.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["SpanEvent", "Tracer", "get_tracer", "span", "event"]


@dataclass
class SpanEvent:
    """One completed span (``dur_us`` set) or instant event (``None``).

    ``id`` is unique per tracer; ``parent`` is the ``id`` of the span
    that was open on the same thread when this one began, or ``None``.
    """

    name: str
    ts_us: float
    dur_us: Optional[float]
    tid: int
    depth: int
    id: int
    parent: Optional[int]
    category: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def is_span(self) -> bool:
        return self.dur_us is not None


class _NullSpan:
    """Shared no-op returned by ``span()`` on a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _Span:
    """Live span context manager; records itself on exit."""

    __slots__ = ("_tracer", "name", "category", "attrs", "_start_s", "_depth", "_id", "_parent")

    def __init__(self, tracer: "Tracer", name: str, category: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.category = category
        self.attrs = attrs

    def set(self, **attrs) -> "_Span":
        """Attach attributes discovered mid-span (e.g. rewrite counts)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        stack = self._tracer._stack()
        self._depth = len(stack)
        self._id = next(self._tracer._ids)
        self._parent = stack[-1]._id if stack else None
        stack.append(self)
        self._start_s = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_s = time.perf_counter()
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._record(
            SpanEvent(
                name=self.name,
                ts_us=(self._start_s - self._tracer._epoch_s) * 1e6,
                dur_us=(end_s - self._start_s) * 1e6,
                tid=threading.get_ident(),
                depth=self._depth,
                id=self._id,
                parent=self._parent,
                category=self.category,
                attrs=self.attrs,
            )
        )
        return False


class Tracer:
    """Collects spans and instant events."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._local = threading.local()
        self._events: List[SpanEvent] = []
        self._epoch_s = time.perf_counter()
        # never reset, so a span open across clear() keeps an id no
        # later event reuses; next() on it is one call under the GIL
        self._ids = itertools.count()

    # -- state ---------------------------------------------------------------
    def enable(self) -> "Tracer":
        self.enabled = True
        return self

    def disable(self) -> "Tracer":
        self.enabled = False
        return self

    def clear(self) -> None:
        """Drop all recorded events and reset the epoch."""
        with self._lock:
            self._events = []
            self._epoch_s = time.perf_counter()

    # -- recording -----------------------------------------------------------
    def span(self, name: str, category: str = "", **attrs):
        """Context manager timing a region; no-op when disabled.

        Usage::

            with tracer.span("conv1.forward", bytes=n) as sp:
                ...
                sp.set(rewrites=3)   # attach results discovered mid-span
        """
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, category, attrs)

    def event(self, name: str, category: str = "", **attrs) -> None:
        """Record an instant (zero-duration) structured event."""
        if not self.enabled:
            return
        stack = self._stack()
        self._record(
            SpanEvent(
                name=name,
                ts_us=(time.perf_counter() - self._epoch_s) * 1e6,
                dur_us=None,
                tid=threading.get_ident(),
                depth=len(stack),
                id=next(self._ids),
                parent=stack[-1]._id if stack else None,
                category=category,
                attrs=attrs,
            )
        )

    # -- inspection ----------------------------------------------------------
    @property
    def events(self) -> List[SpanEvent]:
        """Snapshot of all recorded events, in completion order."""
        with self._lock:
            return list(self._events)

    # -- internals -----------------------------------------------------------
    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _record(self, ev: SpanEvent) -> None:
        with self._lock:
            self._events.append(ev)


#: the process-wide tracer every subsystem reports to; disabled by default
_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-wide tracer (disabled unless something enables it)."""
    return _TRACER


def span(name: str, category: str = "", **attrs):
    """``get_tracer().span(...)`` — the common instrumentation call."""
    return _TRACER.span(name, category, **attrs)


def event(name: str, category: str = "", **attrs) -> None:
    _TRACER.event(name, category, **attrs)
