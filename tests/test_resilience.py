"""Tests for the resilience layer: retries, deadlines, breaker, faults."""

import threading
import time

import pytest

from repro import obs
from repro.core.compiler import compile_program
from repro.llm import SimulatedLLM
from repro.resilience import (
    CircuitBreaker,
    CircuitOpen,
    Deadline,
    DeadlineExceeded,
    FaultInjectingLLM,
    FaultSpecError,
    PermanentLLMError,
    ResilienceError,
    RetryPolicy,
    TransientLLMError,
    breaker_for,
    parse_fault_spec,
    resilient_complete,
    strip_tokens,
)


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class CountingLLM:
    """Echoes the prompt payload; counts calls."""

    def __init__(self):
        self.calls = 0

    def complete(self, prompt: str) -> str:
        self.calls += 1
        return prompt


def no_sleep(_: float) -> None:
    pass


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------

class TestTaxonomy:
    def test_all_errors_are_resilience_errors(self):
        for error in (TransientLLMError, PermanentLLMError,
                      DeadlineExceeded, CircuitOpen):
            assert issubclass(error, ResilienceError)

    def test_taxonomy_is_not_a_runtimeerror(self):
        # Handlers catch the typed hierarchy, not bare RuntimeError.
        for error in (ResilienceError, TransientLLMError, PermanentLLMError,
                      DeadlineExceeded, CircuitOpen):
            assert not issubclass(error, RuntimeError)


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------

class TestDeadline:
    def test_remaining_and_expiry(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        clock.advance(1.0)
        assert deadline.expired
        assert deadline.remaining() == 0.0

    def test_check_raises_when_spent(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        deadline.check("enhancement")  # fine while in budget
        clock.advance(2.0)
        with pytest.raises(DeadlineExceeded, match="enhancement"):
            deadline.check("enhancement")

    def test_coerce(self):
        clock = FakeClock()
        assert Deadline.coerce(None) is None
        existing = Deadline.after(1.0, clock=clock)
        assert Deadline.coerce(existing) is existing
        coerced = Deadline.coerce(0.5, clock=clock)
        assert isinstance(coerced, Deadline)
        assert coerced.budget_s == pytest.approx(0.5)


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------

class TestRetryPolicy:
    def test_backoff_is_deterministic_and_exponential(self):
        policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0,
                             max_delay_s=10.0, jitter=0.1, seed=42)
        delays = [policy.backoff_s(n) for n in (1, 2, 3)]
        again = [policy.backoff_s(n) for n in (1, 2, 3)]
        assert delays == again  # same seed, same schedule
        # Exponential shape survives the +/-10% jitter.
        assert 0.09 <= delays[0] <= 0.11
        assert 0.18 <= delays[1] <= 0.22
        assert 0.36 <= delays[2] <= 0.44

    def test_transient_then_success(self):
        slept = []
        policy = RetryPolicy(max_attempts=3, sleep=slept.append)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientLLMError("boom")
            return "ok"

        assert policy.call(flaky) == "ok"
        assert len(attempts) == 3
        assert len(slept) == 2

    def test_exhaustion_reraises_last_transient(self):
        policy = RetryPolicy(max_attempts=2, sleep=no_sleep)
        with pytest.raises(TransientLLMError):
            policy.call(lambda: (_ for _ in ()).throw(TransientLLMError("x")))

    def test_permanent_error_not_retried(self):
        calls = []
        policy = RetryPolicy(max_attempts=5, sleep=no_sleep)

        def broken():
            calls.append(1)
            raise PermanentLLMError("bad request")

        with pytest.raises(PermanentLLMError):
            policy.call(broken)
        assert len(calls) == 1

    def test_deadline_stops_attempts(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        policy = RetryPolicy(max_attempts=5, sleep=no_sleep, clock=clock)
        clock.advance(2.0)
        calls = []
        with pytest.raises(DeadlineExceeded):
            policy.call(lambda: calls.append(1), deadline=deadline)
        assert not calls  # no attempt starts past the budget

    def test_backoff_never_sleeps_past_deadline(self):
        clock = FakeClock()
        deadline = Deadline.after(0.01, clock=clock)
        slept = []
        policy = RetryPolicy(
            max_attempts=3, base_delay_s=5.0, sleep=slept.append, clock=clock,
        )
        with pytest.raises(DeadlineExceeded):
            policy.call(
                lambda: (_ for _ in ()).throw(TransientLLMError("x")),
                deadline=deadline,
            )
        assert not slept  # a 5s backoff does not fit a 10ms budget


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------

def tripped_breaker(clock, **kwargs):
    defaults = dict(window=4, failure_threshold=0.5, min_calls=2,
                    cooldown_s=30.0, clock=clock)
    defaults.update(kwargs)
    breaker = CircuitBreaker(**defaults)
    breaker.record_failure()
    breaker.record_failure()
    return breaker


class TestCircuitBreaker:
    def test_opens_at_failure_rate(self):
        clock = FakeClock()
        breaker = CircuitBreaker(window=4, failure_threshold=0.5,
                                 min_calls=2, clock=clock)
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "closed"  # below min_calls
        breaker.record_failure()
        assert breaker.state == "open"

    def test_open_rejects_without_calling_backend(self):
        clock = FakeClock()
        breaker = tripped_breaker(clock)
        calls = []
        with pytest.raises(CircuitOpen):
            breaker.call(lambda: calls.append(1))
        assert not calls

    def test_successes_keep_rate_below_threshold(self):
        clock = FakeClock()
        breaker = CircuitBreaker(window=4, failure_threshold=0.75,
                                 min_calls=4, clock=clock)
        for _ in range(3):
            breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # 1/4 < 0.75

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = tripped_breaker(clock)
        clock.advance(31.0)
        assert breaker.state == "half_open"
        assert breaker.call(lambda: "ok") == "ok"
        assert breaker.state == "closed"

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = tripped_breaker(clock)
        clock.advance(31.0)
        with pytest.raises(TransientLLMError):
            breaker.call(lambda: (_ for _ in ()).throw(TransientLLMError("x")))
        assert breaker.state == "open"
        # ... and the new cooldown starts from the probe failure.
        clock.advance(29.0)
        assert breaker.state == "open"
        clock.advance(2.0)
        assert breaker.state == "half_open"

    def test_half_open_admits_single_probe(self):
        clock = FakeClock()
        breaker = tripped_breaker(clock)
        clock.advance(31.0)
        breaker.allow()  # the probe slot
        with pytest.raises(CircuitOpen):
            breaker.allow()  # concurrent second call is rejected

    def test_thread_safety_under_concurrent_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(window=64, failure_threshold=0.9,
                                 min_calls=64, clock=clock)
        threads = [
            threading.Thread(target=breaker.record_failure)
            for _ in range(32)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert breaker.snapshot()["failures_in_window"] == 32

    def test_breaker_for_is_shared_per_client(self):
        first, second = CountingLLM(), CountingLLM()
        assert breaker_for(first) is breaker_for(first)
        assert breaker_for(first) is not breaker_for(second)


# ----------------------------------------------------------------------
# Fault SPEC parsing and the injector
# ----------------------------------------------------------------------

class TestFaultSpec:
    def test_counted_directives(self):
        rules = parse_fault_spec("transient:3,permanent:1,drop:2")
        assert [(r.kind, r.count) for r in rules] == [
            ("transient", 3), ("permanent", 1), ("drop", 2),
        ]

    def test_slow_and_rate(self):
        slow, rate = parse_fault_spec("slow:5:0.25,rate:0.3:permanent")
        assert (slow.kind, slow.count, slow.seconds) == ("slow", 5, 0.25)
        assert (rate.kind, rate.probability, rate.error_kind) == (
            "rate", 0.3, "permanent",
        )

    def test_rate_defaults_to_transient(self):
        (rule,) = parse_fault_spec("rate:0.5")
        assert rule.error_kind == "transient"

    @pytest.mark.parametrize("bad", [
        "bogus:1", "transient", "transient:x", "slow:3", "rate:1.5",
        "rate:0.5:weird",
    ])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(FaultSpecError):
            parse_fault_spec(bad)

    def test_empty_spec_is_no_faults(self):
        assert parse_fault_spec("") == []


class TestFaultInjectingLLM:
    def test_counted_transients_then_healthy(self):
        inner = CountingLLM()
        llm = FaultInjectingLLM(inner, "transient:2")
        for _ in range(2):
            with pytest.raises(TransientLLMError):
                llm.complete("p")
        assert llm.complete("p") == "p"
        assert inner.calls == 1  # faults fire before the backend is hit
        assert llm.injected == {"transient": 2}

    def test_permanent_fault(self):
        llm = FaultInjectingLLM(CountingLLM(), "permanent:1")
        with pytest.raises(PermanentLLMError):
            llm.complete("p")
        assert llm.complete("p") == "p"

    def test_drop_strips_tokens(self):
        llm = FaultInjectingLLM(CountingLLM(), "drop:1")
        assert llm.complete("keep <a> and <b>") == "keep  and "
        assert llm.complete("keep <a>") == "keep <a>"

    def test_slow_uses_injectable_sleep(self):
        delays = []
        llm = FaultInjectingLLM(
            CountingLLM(), "slow:2:0.25", sleep=delays.append
        )
        for _ in range(3):
            llm.complete("p")
        assert delays == [0.25, 0.25]

    def test_rate_is_seeded_and_deterministic(self):
        def failures(seed):
            llm = FaultInjectingLLM(CountingLLM(), "rate:0.5", seed=seed)
            failed = 0
            for _ in range(32):
                try:
                    llm.complete("p")
                except TransientLLMError:
                    failed += 1
            return failed

        assert failures(7) == failures(7)
        assert 4 < failures(7) < 28  # actually probabilistic, not 0%/100%

    def test_signature_distinguishes_fault_runs(self):
        inner = SimulatedLLM(seed=0, faithful=True)
        wrapped = FaultInjectingLLM(inner, "transient:1", seed=3)
        assert inner.signature() in wrapped.signature()
        assert wrapped.signature() != inner.signature()

    def test_strip_tokens(self):
        assert strip_tokens("a <x> b <y-z> c") == "a  b  c"


# ----------------------------------------------------------------------
# resilient_complete: retry + breaker composition
# ----------------------------------------------------------------------

class TestResilientComplete:
    def test_retries_through_to_success(self):
        llm = FaultInjectingLLM(CountingLLM(), "transient:2")
        policy = RetryPolicy(max_attempts=3, sleep=no_sleep)
        assert resilient_complete(llm, "p", policy=policy) == "p"

    def test_open_breaker_short_circuits_without_backend_call(self):
        clock = FakeClock()
        breaker = tripped_breaker(clock)
        inner = CountingLLM()
        policy = RetryPolicy(max_attempts=3, sleep=no_sleep)
        with pytest.raises(CircuitOpen):
            resilient_complete(inner, "p", policy=policy, breaker=breaker)
        assert inner.calls == 0  # CircuitOpen is not retried either

    def test_failures_feed_the_breaker(self):
        clock = FakeClock()
        breaker = CircuitBreaker(window=8, failure_threshold=0.5,
                                 min_calls=2, clock=clock)
        llm = FaultInjectingLLM(CountingLLM(), "transient:4")
        policy = RetryPolicy(max_attempts=2, sleep=no_sleep)
        with pytest.raises((TransientLLMError, CircuitOpen)):
            resilient_complete(llm, "p", policy=policy, breaker=breaker)
        assert breaker.state == "open"


# ----------------------------------------------------------------------
# Acceptance: compile under a 30%-flaky backend degrades, never drops
# ----------------------------------------------------------------------

class TestDegradedCompile:
    def test_compile_under_30pct_transient_faults_keeps_every_path(self):
        from repro.apps import company_control

        app = company_control.build()
        llm = FaultInjectingLLM(
            SimulatedLLM(seed=0, faithful=True), "rate:0.3", seed=3
        )
        registry = obs.MetricsRegistry()
        with obs.observed(metrics=registry):
            compiled = compile_program(
                app.program, app.glossary, llm=llm,
                retry_policy=RetryPolicy(sleep=no_sleep),
            )
        report = compiled.enhancement_report
        store = compiled.store
        # No reasoning path is dropped: every template still carries its
        # deterministic base text; enhancement is per-path best-effort.
        assert len(store) > 0
        for template in store.templates():
            assert template.deterministic_text
        assert report.enhanced + report.fallbacks == len(store)
        assert report.fallbacks > 0  # seed 3 exhausts some retry budgets
        assert report.enhanced > 0
        # ... and the degradation is visible in the stats document.
        document = obs.stats_document(registry)
        assert document["counters"]["enhance.fallback_total"] > 0
        assert document["counters"]["enhance.fallback_total"] == report.fallbacks

    def test_healthy_backend_records_no_fallbacks(self):
        from repro.apps import company_control

        app = company_control.build()
        registry = obs.MetricsRegistry()
        with obs.observed(metrics=registry):
            compiled = compile_program(
                app.program, app.glossary,
                llm=SimulatedLLM(seed=0, faithful=True),
            )
        assert compiled.enhancement_report.fallbacks == 0
        assert registry.counter_value("enhance.fallback_total") == 0
