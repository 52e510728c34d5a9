"""A lightweight hierarchical span tracer.

The pipeline spans four very differently-shaped stages (chase, structural
analysis, enhancement, per-fact mapping); a flat latency counter cannot
say *where* a slow request spent its time.  A :class:`Tracer` hands out
:class:`Span` context managers that record monotonic-clock timings and
parent/child nesting::

    tracer = Tracer()
    with tracer.span("chase.run", program="company_control"):
        with tracer.span("chase.stratum", stratum=0) as span:
            ...
            span.set(rounds=4)

Design constraints, in order:

* **near-zero overhead when disabled** — a disabled tracer returns one
  shared no-op span object from every :meth:`Tracer.span` call (no
  allocation, no clock read), so instrumentation can stay in hot paths
  unconditionally;
* **thread-safe** — finished spans append under a lock and the
  parent/child relation is tracked per thread, so spans opened on
  different threads never corrupt each other (a span opened on another
  thread has no parent unless one is passed explicitly via ``parent=``);
* **deterministic export** — span ids are small per-tracer integers and
  start offsets are relative to the tracer's epoch, so traces diff
  cleanly across runs.
"""

from __future__ import annotations

import threading
import time
from typing import Any


class Span:
    """One timed region of work, usable as a context manager."""

    __slots__ = (
        "span_id", "parent_id", "name", "attrs",
        "start_s", "end_s", "thread", "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: int | None,
        name: str,
        attrs: dict[str, Any],
    ):
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.start_s: float = 0.0
        self.end_s: float | None = None
        self.thread = threading.current_thread().name

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes on an open span."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_s": round(self.start_s, 9),
            "duration_s": round(self.duration_s, 9),
            "thread": self.thread,
            "attrs": self.attrs,
        }

    # ------------------------------------------------------------------
    # Context-manager protocol
    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start_s = time.perf_counter() - self._tracer.epoch
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end_s = time.perf_counter() - self._tracer.epoch
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id})"


class _NullSpan:
    """The shared do-nothing span a disabled tracer hands out.

    Every method is a no-op and ``__enter__`` returns the singleton
    itself, so instrumented code never branches on whether tracing is on.
    """

    __slots__ = ()

    name = None
    span_id = None
    parent_id = None
    attrs: dict[str, Any] = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


#: The singleton no-op span (one per process, shared by all tracers).
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects finished :class:`Span` records for one observed run.

    Parameters
    ----------
    enabled:
        When ``False`` every :meth:`span` call returns :data:`NULL_SPAN`
        — the same object, unconditionally — which is the documented
        near-zero-overhead mode for production hot paths.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._next_id = 1
        self._finished: list[Span] = []
        self._stack = threading.local()

    # ------------------------------------------------------------------
    # Span creation
    # ------------------------------------------------------------------
    def span(self, name: str, parent: Span | None = None, **attrs: Any):
        """A context manager timing one named region.

        Nesting is tracked per thread: a span opened while another is
        open on the same thread becomes its child.  Cross-thread
        parentage must be passed explicitly via ``parent=``.
        """
        if not self.enabled:
            return NULL_SPAN
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        if parent is None:
            parent = self.current()
        parent_id = parent.span_id if isinstance(parent, Span) else None
        return Span(self, span_id, parent_id, name, dict(attrs))

    def current(self) -> Span | None:
        """The innermost open span on the calling thread, if any."""
        stack = getattr(self._stack, "spans", None)
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def finished(self) -> tuple[Span, ...]:
        """Finished spans in completion order (children before parents)."""
        with self._lock:
            return tuple(self._finished)

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)

    # ------------------------------------------------------------------
    # Internal bookkeeping (called by Span)
    # ------------------------------------------------------------------
    def _push(self, span: Span) -> None:
        stack = getattr(self._stack, "spans", None)
        if stack is None:
            stack = []
            self._stack.spans = stack
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._stack, "spans", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # out-of-order close: be forgiving
            stack.remove(span)
        with self._lock:
            self._finished.append(span)


#: The process-default tracer: permanently disabled, shared by all
#: uninstrumented runs.  ``repro.obs.observed(...)`` swaps in a live one.
NULL_TRACER = Tracer(enabled=False)
