"""Circuit breaker state machine: closed -> open -> half-open -> closed."""

import pytest

from repro.observability import MetricsRegistry
from repro.resilience import BreakerState, CircuitBreaker


def breaker(**kwargs):
    defaults = dict(window=10, failure_threshold=0.5, min_samples=4,
                    cooldown_s=1.0, half_open_probes=2)
    defaults.update(kwargs)
    return CircuitBreaker(**defaults)


class TestOpening:
    def test_stays_closed_below_min_samples(self):
        b = breaker()
        for t in range(3):
            b.record(False, float(t))
        assert b.state(3.0) is BreakerState.CLOSED
        assert b.allow(3.0)

    def test_opens_at_threshold(self):
        b = breaker()
        b.record(True, 0.0)
        b.record(True, 0.1)
        b.record(False, 0.2)
        assert b.state(0.3) is BreakerState.CLOSED
        b.record(False, 0.3)  # 2/4 = threshold
        assert b.state(0.3) is BreakerState.OPEN
        assert not b.allow(0.4)
        assert b.transitions == [(0.3, BreakerState.CLOSED, BreakerState.OPEN)]

    def test_sliding_window_forgets_old_failures(self):
        b = breaker(window=4)
        for t in range(2):
            b.record(False, float(t))
        for t in range(2, 8):  # successes push the failures out of the window
            b.record(True, float(t))
        assert b.state(8.0) is BreakerState.CLOSED
        assert b.failure_rate == 0.0


class TestRecovery:
    def trip(self, b, t0=0.0):
        for i in range(4):
            b.record(False, t0 + i * 0.01)
        assert b.state(t0 + 0.05) is BreakerState.OPEN

    def test_cooldown_half_opens(self):
        b = breaker(cooldown_s=1.0)
        self.trip(b)
        assert b.state(0.5) is BreakerState.OPEN
        assert b.state(1.03) is BreakerState.HALF_OPEN
        assert b.allow(1.03)

    def test_infinite_cooldown_never_half_opens(self):
        b = breaker(cooldown_s=float("inf"))
        self.trip(b)
        assert b.state(1e12) is BreakerState.OPEN
        assert not b.allow(1e12)

    def test_probe_failure_reopens(self):
        b = breaker()
        self.trip(b)
        b.state(2.0)  # half-open
        b.record(False, 2.0)
        assert b.state(2.0) is BreakerState.OPEN
        assert not b.allow(2.1)

    def test_probe_successes_close(self):
        b = breaker(half_open_probes=2)
        self.trip(b)
        b.state(2.0)
        b.record(True, 2.0)
        assert b.state(2.0) is BreakerState.HALF_OPEN
        b.record(True, 2.1)
        assert b.state(2.1) is BreakerState.CLOSED
        assert b.allow(2.2)
        assert b.failure_rate == 0.0  # window reset on close
        states = [(frm, to) for (_, frm, to) in b.transitions]
        assert states == [
            (BreakerState.CLOSED, BreakerState.OPEN),
            (BreakerState.OPEN, BreakerState.HALF_OPEN),
            (BreakerState.HALF_OPEN, BreakerState.CLOSED),
        ]

    def test_half_open_limits_probes(self):
        b = breaker(half_open_probes=1)
        self.trip(b)
        assert b.allow(2.0)  # the single probe slot
        b.record(True, 2.0)  # one success closes (probes == 1)
        assert b.state(2.0) is BreakerState.CLOSED


class TestProbeReservation:
    """Half-open probe slots are reserved at allow() time, so concurrent
    callers (N allow() calls before any outcome is recorded) can never
    launch more than ``half_open_probes`` probes."""

    def trip(self, b, t0=0.0):
        for i in range(4):
            b.record(False, t0 + i * 0.01)
        assert b.state(t0 + 0.05) is BreakerState.OPEN

    def test_concurrent_allows_cannot_exceed_probe_limit(self):
        b = breaker(half_open_probes=2)
        self.trip(b)
        assert b.state(2.0) is BreakerState.HALF_OPEN
        # Three callers race before any records: only two admitted.
        verdicts = [b.allow(2.0) for _ in range(3)]
        assert verdicts == [True, True, False]
        # The two reserved probes settle and close the breaker.
        b.record(True, 2.1)
        b.record(True, 2.2)
        assert b.state(2.2) is BreakerState.CLOSED

    def test_probe_available_is_pure(self):
        b = breaker(half_open_probes=1)
        self.trip(b)
        # Scanning health N times must not consume the probe slot.
        for _ in range(5):
            assert b.probe_available(2.0)
        assert b.allow(2.0)       # the actual commit takes it
        assert not b.probe_available(2.0)
        assert not b.allow(2.0)

    def test_failed_probe_reopens_even_with_reservations_out(self):
        b = breaker(half_open_probes=2)
        self.trip(b)
        assert b.state(2.0) is BreakerState.HALF_OPEN
        assert b.allow(2.0) and b.allow(2.0)
        b.record(False, 2.1)  # first probe fails: re-open immediately
        assert b.state(2.1) is BreakerState.OPEN
        assert not b.allow(2.2)


class TestReporting:
    def test_metrics_published_on_transitions(self):
        registry = MetricsRegistry()
        b = CircuitBreaker(window=10, min_samples=2, failure_threshold=0.5,
                           name="server7", metrics=registry)
        b.record(False, 0.0)
        b.record(False, 0.1)
        exported = registry.to_dict()
        counters = {c["name"] for c in exported["counters"]}
        gauges = {g["name"] for g in exported["gauges"]}
        assert "breaker_transitions_total" in counters
        assert "breaker_state" in gauges

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(window=0)
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(min_samples=0)
        with pytest.raises(ValueError):
            CircuitBreaker(window=5, min_samples=6)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_s=0.0)
        with pytest.raises(ValueError, match="cooldown_s"):
            CircuitBreaker(cooldown_s=float("nan"))
        with pytest.raises(ValueError):
            CircuitBreaker(half_open_probes=0)
