"""Declarative SLOs evaluated against metrics snapshots.

The north star is serving traffic, and serving means objectives:
"p99 explain latency under 250 ms", "deadline misses under 1% of
batch queries".  This module turns those sentences into data — a
:class:`LatencyObjective` or :class:`ErrorRateObjective` — and an
:class:`SLOEvaluator` that checks them against a live
:class:`~repro.obs.metrics.MetricsRegistry`.

Evaluation produces an :class:`SLOReport` that

* is serializable (``snapshot()``) for the stats document and CLI;
* publishes per-objective health gauges (``slo.<name>.ok``) back into
  the registry so Prometheus scrapes see the verdicts;
* can **drive a circuit breaker**
  (:meth:`SLOEvaluator.drive_breaker`): each evaluation feeds one
  healthy/unhealthy outcome into the breaker's sliding failure window,
  so sustained SLO breaches open the circuit and shed load.

Objectives are plain frozen dataclasses and also load from JSON-able
dicts (:meth:`SLOEvaluator.from_config`), so a deployment declares its
SLOs next to its gate config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .metrics import MetricsRegistry


class SLOConfigError(ValueError):
    """Raised for malformed declarative SLO configuration."""


@dataclass(frozen=True)
class LatencyObjective:
    """``percentile`` of ``histogram`` must stay at or under ``threshold_s``.

    An objective over a histogram that has collected no samples is
    vacuously healthy (there is no traffic to breach it).
    """

    name: str
    histogram: str
    threshold_s: float
    percentile: float = 99.0

    kind = "latency"


@dataclass(frozen=True)
class ErrorRateObjective:
    """``errors / total`` (two counters) must stay at or under ``max_rate``.

    Below ``min_events`` total events the objective is vacuously healthy
    — a single failed request out of two is not a breached error budget.
    """

    name: str
    errors: str
    total: str
    max_rate: float
    min_events: int = 1

    kind = "error_rate"


@dataclass(frozen=True)
class SLOStatus:
    """One objective's verdict against one snapshot."""

    name: str
    kind: str
    measured: float
    threshold: float
    ok: bool
    detail: str

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "measured": self.measured,
            "threshold": self.threshold,
            "ok": self.ok,
            "detail": self.detail,
        }


class SLOReport:
    """The verdicts of one evaluation pass."""

    def __init__(self, statuses: Sequence[SLOStatus]):
        self.statuses = tuple(statuses)

    @property
    def healthy(self) -> bool:
        return all(status.ok for status in self.statuses)

    def breaches(self) -> tuple[SLOStatus, ...]:
        return tuple(status for status in self.statuses if not status.ok)

    def snapshot(self) -> dict:
        return {
            "healthy": self.healthy,
            "objectives": [status.snapshot() for status in self.statuses],
        }

    def __iter__(self):
        return iter(self.statuses)


class SLOEvaluator:
    """Checks a set of objectives against metrics snapshots."""

    def __init__(
        self,
        objectives: Iterable[LatencyObjective | ErrorRateObjective],
    ):
        self.objectives = tuple(objectives)

    @classmethod
    def from_config(cls, config: Sequence[dict]) -> "SLOEvaluator":
        """Build an evaluator from declarative (JSON-able) entries.

        Each entry carries ``kind`` (``latency`` / ``error_rate``) plus
        the matching dataclass fields, e.g.::

            [{"kind": "latency", "name": "explain-p99",
              "histogram": "explain", "percentile": 99,
              "threshold_s": 0.25},
             {"kind": "error_rate", "name": "deadline-budget",
              "errors": "explain_deadline_exceeded",
              "total": "explanations", "max_rate": 0.01}]
        """
        objectives: list[LatencyObjective | ErrorRateObjective] = []
        for index, entry in enumerate(config):
            if not isinstance(entry, dict):
                raise SLOConfigError(
                    f"objective #{index} is not an object: {entry!r}"
                )
            kind = entry.get("kind")
            fields = {k: v for k, v in entry.items() if k != "kind"}
            try:
                if kind == "latency":
                    objectives.append(LatencyObjective(**fields))
                elif kind == "error_rate":
                    objectives.append(ErrorRateObjective(**fields))
                else:
                    raise SLOConfigError(
                        f"objective #{index} has unknown kind {kind!r} "
                        f"(expected 'latency' or 'error_rate')"
                    )
            except TypeError as error:
                raise SLOConfigError(
                    f"objective #{index} ({kind}): {error}"
                ) from error
        return cls(objectives)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, metrics: MetricsRegistry) -> SLOReport:
        statuses = []
        for objective in self.objectives:
            if isinstance(objective, LatencyObjective):
                statuses.append(self._evaluate_latency(objective, metrics))
            else:
                statuses.append(self._evaluate_error_rate(objective, metrics))
        return SLOReport(statuses)

    @staticmethod
    def _evaluate_latency(
        objective: LatencyObjective, metrics: MetricsRegistry
    ) -> SLOStatus:
        histogram = metrics.find_histogram(objective.histogram)
        if histogram is None or histogram.count == 0:
            return SLOStatus(
                name=objective.name, kind=objective.kind,
                measured=0.0, threshold=objective.threshold_s, ok=True,
                detail=f"no samples in {objective.histogram!r}",
            )
        measured = histogram.percentile(objective.percentile)
        ok = measured <= objective.threshold_s
        return SLOStatus(
            name=objective.name, kind=objective.kind,
            measured=measured, threshold=objective.threshold_s, ok=ok,
            detail=(
                f"p{objective.percentile:g}({objective.histogram}) = "
                f"{measured * 1000:.2f} ms "
                f"{'<=' if ok else '>'} {objective.threshold_s * 1000:.2f} ms"
            ),
        )

    @staticmethod
    def _evaluate_error_rate(
        objective: ErrorRateObjective, metrics: MetricsRegistry
    ) -> SLOStatus:
        errors = metrics.counter_value(objective.errors)
        total = metrics.counter_value(objective.total) + errors
        if total < objective.min_events:
            return SLOStatus(
                name=objective.name, kind=objective.kind,
                measured=0.0, threshold=objective.max_rate, ok=True,
                detail=f"{total} events < min_events {objective.min_events}",
            )
        rate = errors / total
        ok = rate <= objective.max_rate
        return SLOStatus(
            name=objective.name, kind=objective.kind,
            measured=rate, threshold=objective.max_rate, ok=ok,
            detail=(
                f"{objective.errors}/{objective.total} = {errors}/{total} "
                f"({rate:.4f}) {'<=' if ok else '>'} {objective.max_rate}"
            ),
        )

    # ------------------------------------------------------------------
    # Health signal consumers
    # ------------------------------------------------------------------
    def publish(self, metrics: MetricsRegistry) -> SLOReport:
        """Evaluate and publish verdict gauges into the same registry.

        Each objective sets ``slo.<name>.ok`` (1/0) and
        ``slo.<name>.value``; the overall verdict lands in
        ``slo.healthy`` — the signals a scrape or an admission
        controller reads.
        """
        report = self.evaluate(metrics)
        for status in report:
            metrics.set_gauge(f"slo.{status.name}.ok", 1.0 if status.ok else 0.0)
            metrics.set_gauge(f"slo.{status.name}.value", status.measured)
        metrics.set_gauge("slo.healthy", 1.0 if report.healthy else 0.0)
        return report

    def drive_breaker(self, breaker, metrics: MetricsRegistry) -> SLOReport:
        """Feed one evaluation into a circuit breaker's failure window.

        ``breaker`` is a
        :class:`~repro.serve.admission.CircuitBreaker` (anything with
        ``observe_health``).  Call this periodically: each pass records
        one healthy/unhealthy outcome, so *sustained* breaches trip the
        breaker, and the first healthy pass after its cooldown closes
        it.
        """
        report = self.publish(metrics)
        breaker.observe_health(report.healthy)
        return report
