"""Discrete-event serving simulation."""

import pytest

from repro.serving import (
    DPBatchScheduler,
    LazyPolicy,
    NaiveBatchScheduler,
    NoBatchScheduler,
    Request,
    ServingConfig,
    generate_requests,
    simulate_serving,
)


def constant_cost(per_request=0.01):
    """Batch cost = fixed + linear in batch: simple and monotone."""
    def cost(seq_len, batch):
        return 0.002 + per_request * batch
    return cost


def sparse_requests(gap_s, n, seq_len=10):
    return [
        Request(req_id=i, seq_len=seq_len, arrival_s=i * gap_s) for i in range(n)
    ]


class TestSimulation:
    def test_all_requests_complete(self):
        requests = sparse_requests(0.05, 20)
        metrics = simulate_serving(
            requests, NoBatchScheduler(), constant_cost(), duration_s=1.0
        )
        assert metrics.completed == 20
        assert all(r.completion_s is not None for r in requests)

    def test_completion_after_arrival(self):
        requests = sparse_requests(0.05, 10)
        simulate_serving(requests, NoBatchScheduler(), constant_cost(),
                         duration_s=0.5)
        for r in requests:
            assert r.completion_s >= r.arrival_s

    def test_underload_latency_is_service_time(self):
        """With big gaps, each request is served alone immediately."""
        cost = constant_cost(0.01)
        requests = sparse_requests(1.0, 5)
        metrics = simulate_serving(requests, NoBatchScheduler(), cost,
                                   duration_s=5.0)
        assert metrics.latency.avg_ms == pytest.approx(12.0, rel=0.01)
        assert not metrics.saturated

    def test_overload_detected(self):
        # Service takes 12 ms/request; offer one every 2 ms.
        requests = sparse_requests(0.002, 500)
        metrics = simulate_serving(requests, NoBatchScheduler(), constant_cost(),
                                   duration_s=1.0)
        assert metrics.saturated
        assert metrics.backlog_at_end > 0
        # Throughput saturates at service capacity (~1/12ms).
        assert metrics.response_throughput == pytest.approx(1 / 0.012, rel=0.1)

    def test_batching_raises_capacity(self):
        requests = generate_requests(400, 2.0, seed=3)
        cost = constant_cost(0.01)
        nobatch = simulate_serving(
            list(requests), NoBatchScheduler(), cost, duration_s=2.0
        )
        requests2 = generate_requests(400, 2.0, seed=3)
        batched = simulate_serving(
            list(requests2), NaiveBatchScheduler(), cost, duration_s=2.0,
            config=ServingConfig(max_batch=20),
        )
        assert batched.response_throughput > nobatch.response_throughput

    def test_deterministic(self):
        a = simulate_serving(generate_requests(100, 2.0, seed=4),
                             DPBatchScheduler(), constant_cost(), duration_s=2.0)
        b = simulate_serving(generate_requests(100, 2.0, seed=4),
                             DPBatchScheduler(), constant_cost(), duration_s=2.0)
        assert a.response_throughput == b.response_throughput
        assert a.latency.avg_ms == b.latency.avg_ms

    def test_lazy_policy_completes_everything(self):
        requests = sparse_requests(0.001, 50)
        config = ServingConfig(
            max_batch=10,
            policy=LazyPolicy(timeout_s=0.005, max_batch=10, latency_slo_s=0.5),
        )
        metrics = simulate_serving(requests, NaiveBatchScheduler(),
                                   constant_cost(), config=config,
                                   duration_s=0.1)
        assert metrics.completed == 50

    def test_lazy_batches_more_than_hungry(self):
        """Delayed batching under light load accumulates bigger batches."""
        cost_calls = []

        def tracking_cost(seq_len, batch):
            cost_calls.append(batch)
            return 0.001 + 0.001 * batch

        requests = sparse_requests(0.0005, 40)
        config = ServingConfig(
            max_batch=20,
            policy=LazyPolicy(timeout_s=0.02, max_batch=20, latency_slo_s=10.0),
        )
        simulate_serving(requests, NaiveBatchScheduler(), tracking_cost,
                         config=config, duration_s=0.05)
        assert max(cost_calls) >= 10

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            simulate_serving([], NoBatchScheduler(), constant_cost())

    @pytest.mark.parametrize("duration_s", [float("nan"), float("inf")])
    def test_non_finite_horizon_rejected(self, duration_s):
        """A NaN horizon would report utilization 1.0 with a NaN
        throughput, and an infinite one fail late on an empty window."""
        with pytest.raises(ValueError, match="positive and finite"):
            simulate_serving(sparse_requests(0.001, 5), NoBatchScheduler(),
                             constant_cost(), duration_s=duration_s)

    def test_round_limit_bounds_scheduling_scope(self):
        requests = sparse_requests(0.0, 30)  # all arrive at t=0
        config = ServingConfig(max_batch=20, round_limit=5)
        metrics = simulate_serving(requests, NaiveBatchScheduler(),
                                   constant_cost(), config=config,
                                   duration_s=0.01)
        assert metrics.completed == 30


class TestBacklogSnapshot:
    def test_backlog_snapshotted_at_horizon_despite_late_arrival(self):
        """Regression (ISSUE 1): the backlog must be recorded at the first
        event crossing the horizon, not once every arrival has been
        ingested.  A burst that saturates the horizon plus one straggler
        arriving long after it used to defer the snapshot until the
        straggler — by which time the backlog had drained to ~0 and the
        run was misclassified as stable."""
        requests = [
            Request(req_id=i, seq_len=10, arrival_s=0.0001 * i)
            for i in range(100)
        ]
        requests.append(Request(req_id=100, seq_len=10, arrival_s=2.0))
        metrics = simulate_serving(requests, NoBatchScheduler(),
                                   constant_cost(), duration_s=0.05)
        assert metrics.completed == 101
        # 12 ms service vs ~100 requests in the first 10 ms: at the 50 ms
        # horizon nearly everything is still queued.
        assert metrics.backlog_at_end > 50
        assert metrics.saturated

    def test_post_horizon_arrivals_not_counted_as_backlog(self):
        """Requests offered after the horizon are not backlog of the
        measured load, even if a long batch carries the clock past both
        the horizon and their arrivals before the snapshot happens."""
        requests = [Request(req_id=0, seq_len=10, arrival_s=0.0)]
        requests += [
            Request(req_id=i, seq_len=10, arrival_s=0.011 + 0.0001 * i)
            for i in range(1, 5)
        ]
        # Horizon inside the first request's 12 ms execution: the first
        # post-execution event sits past the horizon with the four
        # post-horizon arrivals already queued.
        metrics = simulate_serving(requests, NoBatchScheduler(),
                                   constant_cost(), duration_s=0.01)
        assert metrics.backlog_at_end == 0
        assert not metrics.saturated

    def test_drained_before_horizon_reports_zero_backlog(self):
        metrics = simulate_serving(sparse_requests(0.05, 5),
                                   NoBatchScheduler(), constant_cost(),
                                   duration_s=10.0)
        assert metrics.backlog_at_end == 0

    def test_batches_executed_reported(self):
        requests = sparse_requests(0.0, 30)
        metrics = simulate_serving(requests, NaiveBatchScheduler(),
                                   constant_cost(),
                                   ServingConfig(max_batch=10),
                                   duration_s=0.01)
        assert metrics.batches_executed == 3


class TestServingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServingConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServingConfig(warmup_fraction=1.0)

    @pytest.mark.parametrize("round_limit", [0, -1])
    def test_nonpositive_round_limit_rejected(self, round_limit):
        """A round must be able to take at least one request; the queue
        would otherwise fail mid-run on its first drain."""
        with pytest.raises(ValueError, match="round_limit"):
            ServingConfig(round_limit=round_limit)

    @pytest.mark.parametrize("max_batch", [2.5, float("inf"), True])
    def test_non_integer_max_batch_rejected(self, max_batch):
        """A fractional or infinite batch cap used to fail on the first
        round, inside the DP's row build; ``True`` ran as a cap of 1."""
        with pytest.raises(TypeError, match="max_batch must be an int"):
            ServingConfig(max_batch=max_batch)

    @pytest.mark.parametrize("round_limit", [1.5, float("inf"), True])
    def test_non_integer_round_limit_rejected(self, round_limit):
        """A fractional round limit used to run, draining a request
        count that no round can take."""
        with pytest.raises(TypeError, match="round_limit must be an int"):
            ServingConfig(round_limit=round_limit)

    def test_round_limit_of_one_serves_everything(self):
        metrics = simulate_serving(sparse_requests(0.0, 5),
                                   NaiveBatchScheduler(), constant_cost(),
                                   ServingConfig(round_limit=1),
                                   duration_s=0.01)
        assert metrics.completed == 5
        assert metrics.batches_executed == 5


class TestUtilization:
    def test_light_load_low_utilization(self):
        requests = sparse_requests(0.1, 10)  # 12ms work every 100ms
        metrics = simulate_serving(requests, NoBatchScheduler(),
                                   constant_cost(), duration_s=1.0)
        assert 0.05 < metrics.utilization < 0.3

    def test_overload_saturates_utilization(self):
        requests = sparse_requests(0.002, 500)
        metrics = simulate_serving(requests, NoBatchScheduler(),
                                   constant_cost(), duration_s=1.0)
        assert metrics.utilization > 0.95

    def test_utilization_bounded(self):
        requests = sparse_requests(0.001, 1000)
        metrics = simulate_serving(requests, NaiveBatchScheduler(),
                                   constant_cost(),
                                   ServingConfig(max_batch=20), duration_s=1.0)
        assert 0.0 <= metrics.utilization <= 1.0
