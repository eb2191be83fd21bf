"""Retry policy: backoff growth, jitter determinism, budget exhaustion."""

import pytest

from repro.resilience import RetryPolicy, RetryState
from repro.serving import Request


def req(i, attempt=0):
    return Request(req_id=i, seq_len=10, arrival_s=0.0, attempt=attempt)


class TestBackoff:
    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(max_attempts=10, base_backoff_s=0.1,
                             multiplier=2.0, max_backoff_s=0.5, jitter=0.0)
        delays = [policy.backoff_s(a, req_id=0) for a in range(1, 6)]
        assert delays[0] == pytest.approx(0.1)
        assert delays[1] == pytest.approx(0.2)
        assert delays[2] == pytest.approx(0.4)
        assert delays[3] == pytest.approx(0.5)  # capped
        assert delays[4] == pytest.approx(0.5)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(jitter=0.5)
        base = RetryPolicy(jitter=0.0)
        for rid in range(20):
            d = policy.backoff_s(1, req_id=rid)
            assert d == policy.backoff_s(1, req_id=rid)
            raw = base.backoff_s(1, req_id=rid)
            assert raw <= d < raw * 1.5

    def test_jitter_varies_across_requests(self):
        policy = RetryPolicy(jitter=0.5)
        delays = {policy.backoff_s(1, req_id=rid) for rid in range(20)}
        assert len(delays) > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_backoff_s=0.01, base_backoff_s=0.05)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(budget=-1)
        with pytest.raises(ValueError):
            RetryPolicy().backoff_s(0, req_id=0)

    @pytest.mark.parametrize("kwargs", [
        {"base_backoff_s": float("nan")},
        {"multiplier": float("nan")},
        {"max_backoff_s": float("nan")},
        {"base_backoff_s": float("inf"), "max_backoff_s": float("inf")},
    ], ids=["nan-base", "nan-multiplier", "nan-max", "inf-backoffs"])
    def test_rejects_nan_and_infinite_backoffs(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestRetryState:
    def test_grants_until_max_attempts(self):
        state = RetryState(RetryPolicy(max_attempts=3, jitter=0.0,
                                       base_backoff_s=0.1))
        r = req(0)
        first = state.next_retry_at(r, now_s=1.0)
        assert first == pytest.approx(1.1)
        r.attempt = 1
        second = state.next_retry_at(r, now_s=2.0)
        assert second == pytest.approx(2.2)
        r.attempt = 2  # third execution would be attempt index 2; 2+1 >= 3
        assert state.next_retry_at(r, now_s=3.0) is None
        assert state.retries_used == 2

    def test_budget_exhaustion_stops_all_retries(self):
        state = RetryState(RetryPolicy(max_attempts=10, budget=3))
        granted = [state.next_retry_at(req(i), now_s=0.0) for i in range(6)]
        assert sum(1 for g in granted if g is not None) == 3
        assert granted[3:] == [None, None, None]
        assert state.retries_used == 3

    def test_zero_budget_means_fail_fast(self):
        state = RetryState(RetryPolicy(max_attempts=10, budget=0))
        assert state.next_retry_at(req(0), now_s=0.0) is None
        assert state.retries_used == 0

    def test_denied_retry_consumes_no_budget(self):
        state = RetryState(RetryPolicy(max_attempts=2, budget=5))
        assert state.next_retry_at(req(0, attempt=1), now_s=0.0) is None
        assert state.retries_used == 0


class TestDeadlineAwareRetry:
    def policy(self, backoff=1.0):
        return RetryPolicy(max_attempts=10, base_backoff_s=backoff,
                           multiplier=2.0, max_backoff_s=backoff * 8,
                           jitter=0.0, budget=5)

    def test_backoff_past_deadline_denies_without_burning_budget(self):
        state = RetryState(self.policy(backoff=1.0))
        r = Request(req_id=0, seq_len=10, arrival_s=0.0, deadline_s=0.5)
        # Retry would land at t=1.0, past arrival + deadline = 0.5: the
        # attempt is doomed, so no grant and no budget spent.
        assert state.next_retry_at(r, now_s=0.0) is None
        assert state.retries_used == 0

    def test_backoff_within_deadline_granted(self):
        state = RetryState(self.policy(backoff=1.0))
        r = Request(req_id=0, seq_len=10, arrival_s=0.0, deadline_s=2.0)
        assert state.next_retry_at(r, now_s=0.0) == pytest.approx(1.0)
        assert state.retries_used == 1

    def test_deadline_less_requests_unaffected(self):
        state = RetryState(self.policy(backoff=1.0))
        r = Request(req_id=0, seq_len=10, arrival_s=0.0)
        assert state.next_retry_at(r, now_s=100.0) == pytest.approx(101.0)

    def test_deadline_denial_applies_per_attempt_growth(self):
        # First retry fits (t=1.0 <= 3.0); the grown second backoff
        # (2.0s from now=2.5 -> 4.5) does not.
        state = RetryState(self.policy(backoff=1.0))
        r = Request(req_id=0, seq_len=10, arrival_s=0.0, deadline_s=3.0)
        assert state.next_retry_at(r, now_s=0.0) is not None
        r.attempt = 1
        assert state.next_retry_at(r, now_s=2.5) is None
        assert state.retries_used == 1
