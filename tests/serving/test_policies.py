"""Hungry/lazy trigger policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    HungryPolicy,
    LazyPolicy,
    MessageQueue,
    NaiveBatchScheduler,
    Request,
    ServingConfig,
    simulate_serving,
)


def queue_with(arrivals):
    q = MessageQueue()
    for i, t in enumerate(arrivals):
        q.push(Request(req_id=i, seq_len=10, arrival_s=t))
    return q


class TestHungry:
    def test_fires_whenever_nonempty(self):
        policy = HungryPolicy()
        assert not policy.should_schedule(queue_with([]), 0.0)
        assert policy.should_schedule(queue_with([0.0]), 0.0)

    def test_no_future_decision_time(self):
        policy = HungryPolicy()
        assert policy.next_decision_time(queue_with([0.0]), 0.0) == float("inf")


class TestLazy:
    def test_both_triggers_infinite_rejected(self):
        """With no timeout and no SLO escape a partial batch never fires,
        so the run would end with work queued."""
        inf = float("inf")
        with pytest.raises(ValueError, match="both infinite"):
            LazyPolicy(timeout_s=inf, latency_slo_s=inf)
        # Either one alone is off; the other still fires.
        LazyPolicy(timeout_s=inf)
        LazyPolicy(latency_slo_s=inf)

    def test_waits_below_thresholds(self):
        policy = LazyPolicy(timeout_s=0.01, max_batch=4, latency_slo_s=10.0)
        q = queue_with([0.0, 0.0])
        assert not policy.should_schedule(q, 0.001)

    def test_fires_on_max_batch(self):
        policy = LazyPolicy(timeout_s=10.0, max_batch=3, latency_slo_s=100.0)
        assert policy.should_schedule(queue_with([0.0] * 3), 0.0)

    def test_fires_on_timeout(self):
        policy = LazyPolicy(timeout_s=0.01, max_batch=100, latency_slo_s=100.0)
        q = queue_with([0.0])
        assert not policy.should_schedule(q, 0.005)
        assert policy.should_schedule(q, 0.011)

    def test_slo_escape_hatch(self):
        """Front request's age + estimated execution > SLO/2 -> fire now."""
        policy = LazyPolicy(timeout_s=10.0, max_batch=100, latency_slo_s=0.1,
                            estimated_exec_s=0.04)
        q = queue_with([0.0])
        assert not policy.should_schedule(q, 0.005)
        assert policy.should_schedule(q, 0.011)  # 0.011 + 0.04 >= 0.05

    def test_next_decision_time_is_earliest_trigger(self):
        policy = LazyPolicy(timeout_s=0.02, max_batch=100, latency_slo_s=0.5)
        q = queue_with([1.0])
        assert policy.next_decision_time(q, 1.0) == pytest.approx(1.02)

    def test_next_decision_time_clamped_to_now(self):
        """Regression (ISSUE 1): a large estimated_exec_s pushed the SLO
        trigger (arrival + slo/2 - estimate) into the past; an event
        simulator advancing to a past trigger makes no progress and falls
        into anti-stall micro-stepping."""
        policy = LazyPolicy(timeout_s=10.0, max_batch=100, latency_slo_s=0.1,
                            estimated_exec_s=5.0)
        q = queue_with([0.0])
        assert policy.next_decision_time(q, 1.0) == 1.0

    @pytest.mark.parametrize("estimate", [0.0, 0.04, 0.5, 5.0, 500.0])
    def test_next_decision_time_never_in_past(self, estimate):
        policy = LazyPolicy(timeout_s=0.02, max_batch=100, latency_slo_s=0.1,
                            estimated_exec_s=estimate)
        q = queue_with([0.0])
        for now in (0.0, 0.001, 0.019, 1.0):
            assert policy.next_decision_time(q, now) >= now

    def test_large_estimated_exec_no_micro_stepping(self):
        """A huge per-request cost must not degrade the simulation into
        thousands of 1e-9 s anti-stall steps: the number of policy
        decision-time evaluations stays on the order of the request
        count."""
        calls = []

        class CountingLazy(LazyPolicy):
            def next_decision_time(self, queue, now_s):
                t = super().next_decision_time(queue, now_s)
                calls.append((now_s, t))
                return t

        requests = [Request(req_id=i, seq_len=10, arrival_s=0.01 * i)
                    for i in range(20)]
        config = ServingConfig(
            max_batch=4,
            policy=CountingLazy(timeout_s=0.005, max_batch=4,
                                latency_slo_s=0.1),
        )
        metrics = simulate_serving(
            requests, NaiveBatchScheduler(),
            lambda seq_len, batch: 1.0 + 0.1 * batch,  # enormous exec cost
            config=config, duration_s=0.2,
        )
        assert metrics.completed == 20
        assert all(t >= now for now, t in calls)
        assert len(calls) < 200

    @settings(max_examples=200, deadline=None)
    @given(arrivals=st.lists(st.floats(0.0, 1e4, allow_nan=False),
                             min_size=1, max_size=5),
           timeout=st.floats(1e-6, 10.0),
           slo=st.floats(1e-6, 10.0),
           estimate=st.floats(0.0, 20.0),
           after=st.floats(0.0, 1e4, allow_nan=False))
    def test_fires_at_its_own_decision_time(self, arrivals, timeout, slo,
                                            estimate, after):
        """A trigger armed at ``next_decision_time`` never finds the policy
        declining, whatever the float rounding of the sums."""
        policy = LazyPolicy(timeout_s=timeout, max_batch=100,
                            latency_slo_s=slo, estimated_exec_s=estimate)
        q = queue_with(sorted(arrivals))
        now = max(arrivals) + after
        assert policy.should_schedule(q, policy.next_decision_time(q, now))

    def test_timeout_fires_at_the_rounded_sum(self):
        """Regression: a request arriving at 0.7 s with a 0.1 s timeout is
        due at ``0.7 + 0.1 == 0.7999999999999999``, where its age reads
        ``0.09999999999999998``.  The trigger armed there must start it,
        not leave it waiting for the next arrival at 0.95 s."""
        requests = [Request(req_id=0, seq_len=10, arrival_s=0.7),
                    Request(req_id=1, seq_len=10, arrival_s=0.95)]
        config = ServingConfig(max_batch=8, policy=LazyPolicy(
            timeout_s=0.1, max_batch=8, latency_slo_s=10.0))
        simulate_serving(requests, NaiveBatchScheduler(),
                         lambda seq_len, batch: 0.01, config=config,
                         duration_s=1.0)
        assert requests[0].start_s == 0.7 + 0.1
        assert requests[1].start_s == 0.95 + 0.1

    def test_empty_queue_never_fires(self):
        policy = LazyPolicy()
        assert not policy.should_schedule(queue_with([]), 5.0)
        assert policy.next_decision_time(queue_with([]), 5.0) == float("inf")

    @pytest.mark.parametrize("kwargs", [
        {"timeout_s": 0.0}, {"max_batch": 0}, {"latency_slo_s": 0.0},
        {"timeout_s": float("nan")}, {"latency_slo_s": float("nan")},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LazyPolicy(**kwargs)
