"""Clipper-style adaptive batching: SLO bounding + AIMD feedback."""

import math

import pytest

from repro.serving import (
    AdaptiveBatchScheduler,
    NoBatchScheduler,
    Request,
    ServingConfig,
    make_batch,
    simulate_serving,
)


def reqs(lengths):
    return [Request(req_id=i, seq_len=l, arrival_s=0.0) for i, l in enumerate(lengths)]


def linear_cost(per_token=0.0001, fixed=0.001):
    def cost(seq_len, batch):
        return fixed + per_token * seq_len * batch
    return cost


class TestSloBounding:
    def test_batches_respect_slo_prediction(self):
        cost = linear_cost()
        scheduler = AdaptiveBatchScheduler(latency_slo_s=0.02, initial_cap=20)
        batches = scheduler.schedule(reqs([50] * 12), cost, 20)
        for batch in batches:
            assert cost(batch.padded_len, batch.size) <= 0.02

    def test_tight_slo_forces_singletons(self):
        cost = linear_cost()
        scheduler = AdaptiveBatchScheduler(latency_slo_s=0.0065, initial_cap=20)
        batches = scheduler.schedule(reqs([50] * 6), cost, 20)
        assert all(b.size == 1 for b in batches)

    def test_arrival_order_preserved(self):
        """Length-oblivious: requests batch in arrival order, not sorted."""
        scheduler = AdaptiveBatchScheduler(latency_slo_s=10.0, initial_cap=2)
        batches = scheduler.schedule(reqs([500, 5, 400, 6]), linear_cost(), 20)
        assert [r.seq_len for r in batches[0].requests] == [500, 5]

    def test_cap_respected(self):
        scheduler = AdaptiveBatchScheduler(latency_slo_s=10.0, initial_cap=3)
        batches = scheduler.schedule(reqs([10] * 9), linear_cost(), 20)
        assert all(b.size <= 3 for b in batches)

    def test_every_request_scheduled_once(self):
        scheduler = AdaptiveBatchScheduler(latency_slo_s=0.01, initial_cap=20)
        requests = reqs([10, 200, 30, 499, 5])
        batches = scheduler.schedule(requests, linear_cost(), 20)
        ids = sorted(r.req_id for b in batches for r in b.requests)
        assert ids == [0, 1, 2, 3, 4]


class TestAimd:
    def test_cap_grows_on_compliance(self):
        scheduler = AdaptiveBatchScheduler(latency_slo_s=0.1, initial_cap=1)
        batch = make_batch(reqs([10]))
        for _ in range(5):
            scheduler.observe(batch, 0.01)
        assert scheduler.cap == 6
        assert scheduler.slo_violations == 0

    def test_cap_halves_on_violation(self):
        scheduler = AdaptiveBatchScheduler(latency_slo_s=0.1, initial_cap=8)
        scheduler.observe(make_batch(reqs([10])), 0.5)
        assert scheduler.cap == 4
        assert scheduler.slo_violations == 1

    def test_cap_never_below_one(self):
        scheduler = AdaptiveBatchScheduler(latency_slo_s=0.1, initial_cap=1)
        for _ in range(5):
            scheduler.observe(make_batch(reqs([10])), 1.0)
        assert scheduler.cap == 1

    def test_server_feeds_observations(self):
        """simulate_serving reports executions through the observe hook."""
        scheduler = AdaptiveBatchScheduler(latency_slo_s=0.05, initial_cap=1)
        requests = [Request(req_id=i, seq_len=20, arrival_s=0.0005 * i)
                    for i in range(40)]
        simulate_serving(requests, scheduler, linear_cost(),
                         ServingConfig(max_batch=20), duration_s=0.05)
        assert scheduler.observations > 0
        assert scheduler.cap > 1  # compliant workload grew the cap

    @pytest.mark.parametrize("kwargs", [
        {"latency_slo_s": 0.0},
        {"additive_step": 0},
        {"multiplicative_backoff": 1.0},
        {"initial_cap": 0},
        {"latency_slo_s": math.nan},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AdaptiveBatchScheduler(**kwargs)

    def test_infinite_slo_means_none(self):
        scheduler = AdaptiveBatchScheduler(latency_slo_s=math.inf)
        batch = make_batch([Request(req_id=0, seq_len=16, arrival_s=0.0)])
        scheduler.observe(batch, 1e9)
        assert scheduler.slo_violations == 0


class TestVsDp:
    def test_adaptive_wastes_more_padding_on_mixed_lengths(self):
        """The gap the paper's DP closes: arrival-order batching mixes
        short and long requests and pays padding for it."""
        from repro.serving import DPBatchScheduler, schedule_makespan

        cost = linear_cost()
        requests = reqs([10, 490, 12, 480, 9, 500, 11, 470])
        adaptive = AdaptiveBatchScheduler(latency_slo_s=1.0, initial_cap=20)
        adaptive_time = schedule_makespan(
            adaptive.schedule(requests, cost, 20), cost
        )
        dp_time = schedule_makespan(
            DPBatchScheduler().schedule(requests, cost, 20), cost
        )
        assert dp_time < adaptive_time
