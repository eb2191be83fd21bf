"""Regressions pinned by the event-engine port of ``simulate_serving``.

A bug died with the private ``while``/``heapq`` loop, and one
behaviour became specifiable at all: the dispatch order of a retry
wake-up, a new arrival, and a trigger-policy decision landing at the same
virtual instant.  Each test here fails against the pre-engine loop.
"""

from repro.observability import MetricsRegistry, Tracer
from repro.resilience import (
    FaultPlan,
    ResilienceConfig,
    RetryPolicy,
    TransientFailures,
)
from repro.serving import (
    LazyPolicy,
    NaiveBatchScheduler,
    Request,
    ServingConfig,
    simulate_serving,
)


def burst(n, seq_len=10, at=0.0):
    return [Request(req_id=i, seq_len=seq_len, arrival_s=at) for i in range(n)]


class RecordingScheduler(NaiveBatchScheduler):
    """Naive batching that remembers each round's queue order."""

    def __init__(self):
        self.rounds = []

    def schedule(self, requests, cost_fn, max_batch):
        self.rounds.append([r.req_id for r in requests])
        return super().schedule(requests, cost_fn, max_batch)


class TestQueueDepthPreDrain:
    """Bugfix: the queue-depth trace counter was emitted after
    ``queue.drain`` and always showed ~0 while the metrics gauge recorded
    the pre-drain depth.  Both now report the pre-drain value from one
    sample."""

    def test_trace_counter_and_gauge_agree_on_pre_drain_depth(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        simulate_serving(
            burst(5), NaiveBatchScheduler(), lambda s, b: 0.01,
            duration_s=1.0, tracer=tracer, metrics=metrics,
        )
        depths = [e["args"]["depth"] for e in tracer.events
                  if e.get("ph") == "C" and e["name"] == "queue"]
        # Five arrivals (depth 1..5), then the round samples the queue it
        # is about to drain — 5, not the post-drain 0 the old loop traced.
        assert depths == [1.0, 2.0, 3.0, 4.0, 5.0, 5.0]
        assert metrics.gauge("serving_queue_depth").series == [(0.0, 5.0)]


class TestSameInstantDeterminism:
    """A retry wake-up, a new arrival, and a trigger decision at the same
    virtual time dispatch in the engine's documented order —
    ARRIVAL < RETRY < TRIGGER — so the round sees the arrival queued
    before the retried request, and two runs agree exactly."""

    # All timestamps are exact binary fractions so the three events land
    # on bit-identical times: r0 fails at 0.5, retries at 0.5 + 0.5 = 1.0;
    # r2 (arrival 0.75) arms the lazy timeout trigger at 0.75 + 0.25 = 1.0;
    # r1 arrives at 1.0.
    def _run(self):
        r0 = Request(req_id=0, seq_len=10, arrival_s=0.0)
        r1 = Request(req_id=1, seq_len=10, arrival_s=1.0)
        r2 = Request(req_id=2, seq_len=10, arrival_s=0.75)
        scheduler = RecordingScheduler()
        policy = LazyPolicy(timeout_s=0.25, max_batch=10, latency_slo_s=100.0)
        resilience = ResilienceConfig(
            faults=FaultPlan(failures=(
                TransientFailures(start_s=0.0, end_s=0.3, failure_rate=1.0),
            )),
            retry=RetryPolicy(max_attempts=3, base_backoff_s=0.5,
                              multiplier=2.0, max_backoff_s=2.0, jitter=0.0),
        )
        metrics = simulate_serving(
            [r0, r1, r2], scheduler, lambda s, b: 0.25,
            config=ServingConfig(policy=policy),
            duration_s=2.0, resilience=resilience,
        )
        return scheduler.rounds, metrics

    def test_arrival_enters_queue_before_retry(self):
        rounds, metrics = self._run()
        # Round 1 (trigger at 0.25): r0 alone; it fails inside the fault
        # window.  Round 2 (all three events at t=1.0): r2 was already
        # queued, the new arrival r1 enters next, the retried r0 last.
        assert rounds == [[0], [2, 1, 0]]
        assert metrics.completed == 3
        assert metrics.resilience.retries == 1

    def test_identical_across_two_runs(self):
        first_rounds, first_metrics = self._run()
        second_rounds, second_metrics = self._run()
        assert first_rounds == second_rounds
        assert first_metrics == second_metrics
