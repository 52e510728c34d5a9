"""Request admission: a bounded queue plus breaker-driven shedding.

Overload policy in one sentence: **shed at the door, never in the
kitchen**.  Admission is checked before any work is queued, and a
rejected request costs one counter bump and a ``503`` with a
``Retry-After`` header — the two signals a well-behaved client needs.

Two independent reasons to shed:

* **queue saturation** — at most ``limit`` requests may be admitted
  (in flight or queued for a worker) at once.  The bound is what turns
  a latency problem into a fast failure instead of an unbounded queue
  that serves every request late;
* **open circuit** — the server's :class:`CircuitBreaker` is fed the
  verdicts of :func:`healthy`, the server's one fixed health check:
  sustained p99/error-budget breaches open it, and while it is open
  every admission sheds, giving the workers a cooldown to drain.  After
  the cooldown it is half-open and admits again; the next healthy
  verdict closes it.

Counters land in the server's registry (``serve.shed_queue`` /
``serve.shed_breaker``, ``serve.breaker_opened`` /
``serve.breaker_closed``), the live depth in the ``serve.queue_depth``
gauge, and each shed appends a flight event when a recorder is ambient.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

from .. import obs
from ..obs.metrics import MetricsRegistry

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Failure fraction of a full-enough window at which the breaker opens.
FAILURE_THRESHOLD = 0.5

#: Health check: p99 of the ``serve.request`` histogram stays at or
#: under this many seconds.
LATENCY_P99_MAX_S = 2.5

#: Health check: ``serve.errors / (serve.ok + serve.errors)`` stays at or
#: under this rate once at least :data:`ERROR_RATE_MIN_EVENTS` requests
#: completed.  Client-requested deadline misses (504) are not errors: a
#: client asking for an impossible budget is not server unhealth, and
#: the latency bound already covers overload.
ERROR_RATE_MAX = 0.05
ERROR_RATE_MIN_EVENTS = 50


def healthy(metrics: MetricsRegistry) -> bool:
    """The server's health verdict over its own registry.

    Healthy while p99 request latency is within
    :data:`LATENCY_P99_MAX_S` (an empty histogram is healthy) and the
    internal-error rate within :data:`ERROR_RATE_MAX` (healthy below
    :data:`ERROR_RATE_MIN_EVENTS` completed requests).
    """
    latency = metrics.find_histogram("serve.request")
    if latency is not None and latency.percentile(99) > LATENCY_P99_MAX_S:
        return False
    errors = metrics.counter_value("serve.errors")
    total = metrics.counter_value("serve.ok") + errors
    return total < ERROR_RATE_MIN_EVENTS or errors / total <= ERROR_RATE_MAX


class CircuitBreaker:
    """Three-state breaker over a sliding window of health verdicts.

    * **closed** — each :meth:`observe_health` verdict lands in a window
      of the last ``window`` verdicts; once it holds ``min_calls`` and at
      least half are failures, the breaker opens;
    * **open** — admission sheds.  After ``cooldown_s`` (monotonic,
      injectable clock) the breaker reads as half-open;
    * **half-open** — admission lets requests through; the next verdict
      closes the breaker (healthy) or re-opens it for another cooldown.

    Thread-safe: the health heartbeat, request completions and
    ``/healthz`` reach it from different threads.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        window: int = 16,
        min_calls: int = 4,
        cooldown_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.metrics = metrics
        self.min_calls = max(1, min_calls)
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._outcomes: deque[bool] = deque(maxlen=window)
        self._state = CLOSED
        self._opened_at = 0.0

    def _tick_locked(self) -> None:
        """Open → half-open once the cooldown has elapsed."""
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.cooldown_s
        ):
            self._state = HALF_OPEN

    @property
    def state(self) -> str:
        with self._lock:
            self._tick_locked()
            return self._state

    def _move_locked(self, state: str) -> None:
        self._state = state
        self._outcomes.clear()
        if state == OPEN:
            self._opened_at = self._clock()
        event = "breaker_opened" if state == OPEN else "breaker_closed"
        self.metrics.incr(f"serve.{event}")
        obs.flight_event(event)

    def observe_health(self, healthy: bool) -> None:
        """Record one verdict of the server's :func:`healthy` check."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._move_locked(CLOSED if healthy else OPEN)
            elif healthy:
                self._outcomes.append(True)
            elif self._state == CLOSED:
                self._outcomes.append(False)
                if (
                    len(self._outcomes) >= self.min_calls
                    and self._outcomes.count(False) / len(self._outcomes)
                    >= FAILURE_THRESHOLD
                ):
                    self._move_locked(OPEN)

    def _cooldown_remaining_locked(self) -> float:
        if self._state != OPEN:
            return 0.0
        return max(
            0.0, self.cooldown_s - (self._clock() - self._opened_at)
        )

    def cooldown_remaining_s(self) -> float:
        """Seconds until an open breaker turns half-open (0.0 whenever
        the breaker is not open)."""
        with self._lock:
            self._tick_locked()
            return self._cooldown_remaining_locked()

    def snapshot(self) -> dict:
        with self._lock:
            self._tick_locked()
            outcomes = list(self._outcomes)
            return {
                "name": "serve",
                "state": self._state,
                "window": len(outcomes),
                "failures_in_window": outcomes.count(False),
                "cooldown_remaining_s": self._cooldown_remaining_locked(),
            }


class ShedRequest(Exception):
    """The request was not admitted; answer 503 with ``Retry-After``."""

    def __init__(self, reason: str, retry_after_s: float):
        super().__init__(reason)
        self.reason = reason
        self.retry_after_s = retry_after_s


class AdmissionController:
    """Bounded admission with circuit-breaker shedding."""

    def __init__(
        self,
        limit: int,
        breaker: CircuitBreaker,
        metrics: MetricsRegistry,
        retry_after_s: float = 1.0,
    ):
        if limit < 0:
            raise ValueError(f"admission limit must be >= 0, got {limit}")
        self.limit = limit
        self.breaker = breaker
        self.metrics = metrics
        self.retry_after_s = retry_after_s
        self._lock = threading.Lock()
        self._admitted = 0

    # ------------------------------------------------------------------
    # The gate
    # ------------------------------------------------------------------
    def admit(self) -> "_AdmissionToken":
        """Admit one request or raise :class:`ShedRequest`.

        The breaker is consulted first — an open circuit sheds even an
        empty queue (the point of the cooldown is to stop *accepting*
        work, not merely to stop queuing it).
        """
        if self.breaker.state == OPEN:
            self.metrics.incr("serve.shed_breaker")
            obs.flight_event("shed", reason="breaker_open")
            # Retry after the breaker's *remaining* cooldown, not the
            # full one — a request shed 25s into a 30s cooldown should
            # come back in 5s, not 30.
            raise ShedRequest(
                "circuit open (sustained SLO breach); backing off",
                max(self.retry_after_s, self.breaker.cooldown_remaining_s()),
            )
        with self._lock:
            if self._admitted >= self.limit:
                self.metrics.incr("serve.shed_queue")
                obs.flight_event(
                    "shed", reason="queue_full", depth=self._admitted
                )
                raise ShedRequest(
                    f"admission queue full ({self._admitted}/{self.limit})",
                    self.retry_after_s,
                )
            self._admitted += 1
            self.metrics.set_gauge("serve.queue_depth", float(self._admitted))
        return _AdmissionToken(self)

    def _release(self) -> None:
        with self._lock:
            self._admitted -= 1
            self.metrics.set_gauge("serve.queue_depth", float(self._admitted))

    @property
    def depth(self) -> int:
        with self._lock:
            return self._admitted

    def snapshot(self) -> dict:
        return {
            "limit": self.limit,
            "depth": self.depth,
            "breaker": self.breaker.snapshot(),
        }


class _AdmissionToken:
    """Context manager releasing one admission slot on exit."""

    __slots__ = ("_controller", "_released")

    def __init__(self, controller: AdmissionController):
        self._controller = controller
        self._released = False

    def __enter__(self) -> "_AdmissionToken":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._controller._release()
