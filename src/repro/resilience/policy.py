"""Retry policies, deadlines and the typed resilience error taxonomy.

The explanation pipeline has exactly one external dependency — the
per-template LLM call of Section 4.4 — and the paper treats enhanced
templates as an *optional* refinement over the always-valid deterministic
base templates.  That makes graceful degradation a paper-faithful
behaviour: when the enhancer backend misbehaves, the system falls back to
the base template for the affected reasoning path and keeps serving.

This module provides the three building blocks every resilient call site
shares:

* a **typed error taxonomy** (:class:`TransientLLMError`,
  :class:`PermanentLLMError`, :class:`DeadlineExceeded`,
  :class:`CircuitOpen`) replacing bare exceptions.  All of them subclass
  :class:`ResilienceError`; catch that (or a subclass), not
  :class:`RuntimeError`;
* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  *deterministic* jitter (seeded per attempt, so two runs with the same
  seed back off identically) and an injectable ``sleep``/``clock`` pair
  for tests;
* :class:`Deadline` — a monotonic time budget threaded through nested
  calls; checking an expired deadline raises :class:`DeadlineExceeded`
  instead of letting work pile up behind a hung backend.

Counters land in the ambient :mod:`repro.obs` registry under
``llm.retry_*`` so fault behaviour shows up in the stats document next to
the enhancement counters.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

from .. import obs


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------

class ResilienceError(Exception):
    """Base of the resilience taxonomy; catch it to degrade gracefully
    around any enhancement failure."""


class TransientLLMError(ResilienceError):
    """A retryable backend failure (timeout, 429/5xx, connection reset)."""


class PermanentLLMError(ResilienceError):
    """A non-retryable backend failure (auth, invalid request, 4xx)."""


class DeadlineExceeded(ResilienceError):
    """The operation's time budget ran out before it completed."""


class CircuitOpen(ResilienceError):
    """The circuit breaker is open; the call was short-circuited without
    reaching the backend (see :class:`repro.resilience.breaker.CircuitBreaker`)."""


#: Exception types a :class:`RetryPolicy` retries by default.  Permanent
#: errors, open circuits and expired deadlines are never retried.
DEFAULT_RETRYABLE: tuple[type[BaseException], ...] = (
    TransientLLMError, TimeoutError, ConnectionError,
)


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------

class Deadline:
    """A monotonic time budget shared by nested calls.

    Created once at the operation boundary and passed down; every layer
    can ask :meth:`remaining` (to bound its own waits) or :meth:`check`
    (to fail fast with :class:`DeadlineExceeded`).  The clock is
    injectable so tests advance time without sleeping.
    """

    __slots__ = ("budget_s", "_clock", "_expires_at")

    def __init__(self, budget_s: float, clock: Callable[[], float] = time.monotonic):
        self.budget_s = float(budget_s)
        self._clock = clock
        self._expires_at = clock() + self.budget_s

    @classmethod
    def after(
        cls, seconds: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        return cls(seconds, clock=clock)

    @staticmethod
    def coerce(
        value: "Deadline | float | int | None",
        clock: Callable[[], float] = time.monotonic,
    ) -> "Deadline | None":
        """Accept ``None``, an existing deadline, or a budget in seconds."""
        if value is None or isinstance(value, Deadline):
            return value
        return Deadline(float(value), clock=clock)

    def remaining(self) -> float:
        """Seconds left in the budget (never negative)."""
        return max(0.0, self._expires_at - self._clock())

    @property
    def expired(self) -> bool:
        return self._clock() >= self._expires_at

    def check(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expired:
            raise DeadlineExceeded(
                f"{what} exceeded its {self.budget_s:.3f}s deadline"
            )

    def __repr__(self) -> str:
        return (
            f"Deadline(budget_s={self.budget_s:.3f}, "
            f"remaining_s={self.remaining():.3f})"
        )


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------

def _no_jitter(_: int) -> float:  # pragma: no cover - trivial
    return 1.0


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    Attempt ``n`` (1-based) backs off
    ``min(max_delay_s, base_delay_s * multiplier**(n-1))`` scaled by a
    jitter factor drawn from ``[1-jitter, 1+jitter]`` with a seed derived
    from ``(seed, attempt)`` — the same policy produces the same backoff
    schedule on every run, which keeps fault-injected CI reproducible.

    ``sleep`` and ``clock`` are injectable so tests never wait.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 1.0
    jitter: float = 0.1
    seed: int = 0
    retry_on: tuple[type[BaseException], ...] = DEFAULT_RETRYABLE
    sleep: Callable[[float], None] = time.sleep
    clock: Callable[[], float] = time.monotonic
    metric_prefix: str | None = "llm.retry"

    def backoff_s(self, attempt: int) -> float:
        """The (deterministically jittered) delay after attempt ``attempt``."""
        if attempt < 1:
            raise ValueError(f"attempts are 1-based, got {attempt}")
        delay = min(
            self.max_delay_s, self.base_delay_s * self.multiplier ** (attempt - 1)
        )
        if self.jitter:
            factor = random.Random(f"{self.seed}:{attempt}").uniform(
                1.0 - self.jitter, 1.0 + self.jitter
            )
            delay *= factor
        return delay

    def _incr(self, suffix: str) -> None:
        if self.metric_prefix:
            obs.incr(f"{self.metric_prefix}_{suffix}")

    def call(
        self,
        fn: Callable[[], object],
        *,
        deadline: Deadline | None = None,
        on_retry: Callable[[int, BaseException, float], None] | None = None,
    ):
        """Invoke ``fn`` under this policy.

        Retryable errors (``retry_on``) trigger backoff-and-retry until
        ``max_attempts`` is reached, then the last error is re-raised.
        Everything else — including :class:`PermanentLLMError`,
        :class:`CircuitOpen` and :class:`DeadlineExceeded` — propagates
        immediately.  A deadline bounds the whole loop: an attempt never
        starts, and a backoff is never slept, past the budget.
        """
        for attempt in range(1, self.max_attempts + 1):
            if deadline is not None:
                deadline.check("retried call")
            try:
                result = fn()
            except self.retry_on as error:
                if attempt >= self.max_attempts:
                    self._incr("exhausted")
                    raise
                delay = self.backoff_s(attempt)
                if deadline is not None and delay >= deadline.remaining():
                    self._incr("deadline_abandoned")
                    raise DeadlineExceeded(
                        f"backoff of {delay:.3f}s does not fit in the "
                        f"remaining {deadline.remaining():.3f}s budget"
                    ) from error
                self._incr("attempts")
                if self.metric_prefix:
                    obs.observe(f"{self.metric_prefix}_backoff_s", delay)
                if on_retry is not None:
                    on_retry(attempt, error, delay)
                self.sleep(delay)
            else:
                if attempt > 1:
                    self._incr("recovered")
                return result
        raise AssertionError("unreachable")  # pragma: no cover


#: The default policy resilient call sites fall back to.
DEFAULT_RETRY_POLICY = RetryPolicy()


def resilient_complete(
    llm,
    prompt: str,
    *,
    policy: RetryPolicy | None = None,
    breaker=None,
    deadline: Deadline | None = None,
) -> str:
    """One LLM completion under retry + circuit-breaker + deadline.

    The breaker wraps each individual attempt, so a circuit that opens
    mid-retry short-circuits the remaining attempts (``CircuitOpen`` is
    not retryable).  Any object with a ``call(fn)`` raising/recording in
    breaker style works; ``None`` disables breaking.
    """
    chosen = policy if policy is not None else DEFAULT_RETRY_POLICY

    def attempt() -> str:
        if breaker is not None:
            return breaker.call(lambda: llm.complete(prompt))
        return llm.complete(prompt)

    return chosen.call(attempt, deadline=deadline)  # type: ignore[return-value]
