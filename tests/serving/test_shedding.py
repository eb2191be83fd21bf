"""Deadline-based load shedding under overload.

Shedding is ``simulate_serving`` with per-request deadlines and a
``ResilienceConfig``: a request already past its deadline when its round
starts (or when its batch is dispatched) resolves ``TIMED_OUT`` instead of
being served hopelessly late.  ``TIMED_OUT`` counts as dropped.
"""

import pytest

from repro.resilience import ResilienceConfig
from repro.serving import (
    DPBatchScheduler,
    NoBatchScheduler,
    Request,
    RequestState,
    ServingConfig,
    simulate_serving,
)


def cost(seq_len, batch):
    return 0.002 + 0.00005 * seq_len * batch


def flood(rate, duration, seq_len=100, start_id=0, deadline_s=None):
    gap = 1.0 / rate
    n = int(rate * duration)
    return [Request(req_id=start_id + i, seq_len=seq_len, arrival_s=i * gap,
                    deadline_s=deadline_s)
            for i in range(n)]


def shed(requests, scheduler, cost_fn, max_batch=20, duration_s=None):
    """Serve with deadline shedding; returns (metrics, dropped count)."""
    metrics = simulate_serving(requests, scheduler, cost_fn,
                               ServingConfig(max_batch=max_batch),
                               duration_s=duration_s,
                               resilience=ResilienceConfig())
    dropped = sum(1 for r in requests if r.state is RequestState.TIMED_OUT)
    return metrics, dropped


class TestShedding:
    def test_no_drops_below_capacity(self):
        requests = flood(rate=50, duration=2.0, deadline_s=0.5)  # cap ~140/s
        metrics, dropped = shed(requests, NoBatchScheduler(), cost,
                                duration_s=2.0)
        assert dropped == 0
        assert metrics.completed == len(requests)

    def test_overload_sheds_and_bounds_latency(self):
        requests = flood(rate=500, duration=2.0, deadline_s=0.2)  # ~3.5x cap
        metrics, dropped = shed(requests, NoBatchScheduler(), cost,
                                duration_s=2.0)
        assert dropped > 0
        assert dropped / metrics.offered > 0.4
        # Served requests stay near the deadline instead of diverging.
        assert metrics.latency.max_ms < 1.5 * 200

    def test_unshed_overload_diverges_for_contrast(self):
        requests = flood(rate=500, duration=2.0)
        metrics = simulate_serving(
            requests, NoBatchScheduler(), cost,
            ServingConfig(max_batch=20), duration_s=2.0,
        )
        # Without shedding the tail blows past any deadline.
        assert metrics.latency.max_ms > 1000

    def test_goodput_near_capacity_under_overload(self):
        requests = flood(rate=500, duration=3.0, deadline_s=0.2)
        metrics, _ = shed(requests, NoBatchScheduler(), cost, duration_s=3.0)
        capacity = 1.0 / cost(100, 1)
        assert metrics.response_throughput > 0.7 * capacity

    def test_batching_scheduler_composes(self):
        requests = flood(rate=800, duration=2.0, deadline_s=0.3)
        metrics, dropped = shed(requests, DPBatchScheduler(), cost,
                                max_batch=20, duration_s=2.0)
        served_plus_dropped = metrics.completed + dropped
        assert served_plus_dropped == len(requests)
        # Batching raises goodput over per-request shedding.
        solo, _ = shed(flood(rate=800, duration=2.0, deadline_s=0.3),
                       NoBatchScheduler(), cost, duration_s=2.0)
        assert metrics.response_throughput > solo.response_throughput

    def test_goodput_at_drop_rate_zero(self):
        """drop_rate 0: every response counts — goodput is the serving
        throughput and nothing is shed."""
        requests = flood(rate=50, duration=2.0, deadline_s=5.0)
        metrics, dropped = shed(requests, NoBatchScheduler(), cost,
                                duration_s=2.0)
        assert dropped / metrics.offered == 0.0
        assert metrics.completed == len(requests)
        assert metrics.response_throughput > 0

    def test_goodput_at_drop_rate_one(self):
        """drop_rate 1: everyone was shed, so goodput collapses to zero.

        Arrivals are bunched at t=0 behind one huge head-of-line request,
        so by the time the second round starts every queued request is
        already past its deadline."""
        blocker = Request(req_id=0, seq_len=512, arrival_s=0.0,
                          deadline_s=1.0)
        victims = [Request(req_id=1 + i, seq_len=10, arrival_s=1e-6,
                           deadline_s=1.0)
                   for i in range(20)]

        def slow_cost(seq_len, batch):
            return 10.0  # any batch takes 10s; deadline is 1s

        metrics, dropped = shed([blocker] + victims, NoBatchScheduler(),
                                slow_cost, duration_s=1.0)
        assert dropped == len(victims)
        # All measured-window responses were shed (the blocker finishes
        # far outside the horizon), so goodput is zero.
        assert metrics.response_throughput == 0.0
        victim_rate = dropped / max(1, metrics.offered - 1)
        assert victim_rate == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            shed([], NoBatchScheduler(), cost)
        with pytest.raises(ValueError):
            flood(10, 1.0, deadline_s=0.0)
