"""Resilience threaded through the serving simulators.

An empty resilience config is byte-identical to ``resilience=None`` for
pre-existing simulations, the retry budget bounds retry storms, deadlines
drop expired work, and a bounded queue sheds.
"""

import pytest

from repro.resilience import (
    FaultPlan,
    ResilienceConfig,
    RetryPolicy,
    ServerCrash,
    TransientFailures,
)
from repro.serving import (
    DPBatchScheduler,
    NaiveBatchScheduler,
    Request,
    RequestState,
    RoutingPolicy,
    ServingConfig,
    generate_requests,
    simulate_cluster,
    simulate_serving,
)


def cost(seq_len, batch):
    return 0.002 + 0.00005 * seq_len * batch


def workload(rate=100, duration=2.0, seed=0, deadline_s=None):
    requests = generate_requests(rate, duration, seed=seed)
    if deadline_s is None:
        return requests
    return [Request(req_id=r.req_id, seq_len=r.seq_len,
                    arrival_s=r.arrival_s, deadline_s=deadline_s)
            for r in requests]


class TestZeroOverheadWhenDisabled:
    """resilience=None and an all-defaults config produce identical metrics."""

    def test_single_server_identical(self):
        plain = simulate_serving(workload(), DPBatchScheduler(), cost,
                                 duration_s=2.0)
        empty = simulate_serving(workload(), DPBatchScheduler(), cost,
                                 duration_s=2.0, resilience=ResilienceConfig())
        assert empty.resilience is not None  # the only permitted difference
        assert plain == type(plain)(
            **{**empty.__dict__, "resilience": None}
        )

    @pytest.mark.parametrize("policy", list(RoutingPolicy))
    def test_cluster_identical(self, policy):
        plain = simulate_cluster(workload(), 3, NaiveBatchScheduler, cost,
                                 policy=policy, duration_s=2.0)
        empty = simulate_cluster(workload(), 3, NaiveBatchScheduler, cost,
                                 policy=policy, duration_s=2.0,
                                 resilience=ResilienceConfig())
        assert plain.per_server_completed == empty.per_server_completed
        assert plain.serving == type(plain.serving)(
            **{**empty.serving.__dict__, "resilience": None}
        )

    def test_empty_fault_plan_queries_cost_nothing(self):
        # All query methods of the empty plan answer with the identity, so
        # threading it through is behaviour-preserving by construction.
        config = ResilienceConfig()
        assert config.faults.empty
        assert config.retry is None
        assert config.breaker_factory is None
        assert config.queue_capacity is None


class TestDeadlines:
    def test_patient_requests_never_time_out(self):
        result = simulate_serving(
            workload(), DPBatchScheduler(), cost, duration_s=2.0,
            resilience=ResilienceConfig(),
        )
        assert result.resilience.timed_out == 0
        assert result.completed == result.offered

    def test_overload_times_out_stale_requests(self):
        requests = workload(rate=600, duration=2.0, deadline_s=0.2)
        result = simulate_serving(
            requests, NaiveBatchScheduler(), cost,
            ServingConfig(max_batch=8), duration_s=2.0,
            resilience=ResilienceConfig(),
        )
        assert result.resilience.timed_out > 0
        assert result.completed + result.resilience.dropped == result.offered
        timed_out = [r for r in requests
                     if r.state is RequestState.TIMED_OUT]
        assert all(not r.is_completed for r in timed_out)

    def test_deadline_bounds_served_latency(self):
        requests = workload(rate=600, duration=2.0, deadline_s=0.2)
        result = simulate_serving(
            requests, NaiveBatchScheduler(), cost,
            ServingConfig(max_batch=8), duration_s=2.0,
            resilience=ResilienceConfig(),
        )
        # Admission happens at round start; one round of slack on top of
        # the deadline is the worst case for an admitted request.
        assert result.latency.max_ms < 3 * 200


class TestRetryBudget:
    """Regression: a permanently failing replica cannot retry-storm."""

    def always_failing(self):
        return FaultPlan(failures=(
            TransientFailures(start_s=0.0, end_s=100.0, failure_rate=1.0),))

    def test_budget_caps_reenqueues_single_server(self):
        budget = 25
        result = simulate_serving(
            workload(rate=50, duration=1.0), DPBatchScheduler(), cost,
            duration_s=1.0,
            resilience=ResilienceConfig(
                faults=self.always_failing(),
                retry=RetryPolicy(max_attempts=100, budget=budget),
            ),
        )
        assert result.resilience.retries == budget
        assert result.completed == 0
        assert result.resilience.failed == result.offered

    def test_executed_attempts_bounded_by_offered_plus_budget(self):
        budget = 10
        result = simulate_serving(
            workload(rate=50, duration=1.0), DPBatchScheduler(), cost,
            duration_s=1.0, config=ServingConfig(max_batch=1),
            resilience=ResilienceConfig(
                faults=self.always_failing(),
                retry=RetryPolicy(max_attempts=100, budget=budget),
            ),
        )
        assert result.batches_executed <= result.offered + budget

    def test_max_attempts_bounds_without_budget(self):
        result = simulate_serving(
            workload(rate=50, duration=1.0), DPBatchScheduler(), cost,
            duration_s=1.0,
            resilience=ResilienceConfig(
                faults=self.always_failing(),
                retry=RetryPolicy(max_attempts=3),
            ),
        )
        # Every request gets exactly max_attempts - 1 retries.
        assert result.resilience.retries == 2 * result.offered
        assert result.resilience.failed == result.offered

    def test_transient_window_recovers_after_retries(self):
        plan = FaultPlan(failures=(
            TransientFailures(start_s=0.2, end_s=0.4, failure_rate=0.5),))
        result = simulate_serving(
            workload(rate=100, duration=2.0), DPBatchScheduler(), cost,
            duration_s=2.0,
            resilience=ResilienceConfig(
                faults=plan, retry=RetryPolicy(max_attempts=6),
            ),
        )
        assert result.resilience.retries > 0
        assert result.completed == result.offered  # everyone lands eventually


class TestClusterResilience:
    def test_crash_window_work_is_rerouted(self):
        plan = FaultPlan(crashes=(ServerCrash(start_s=0.5, end_s=1.0,
                                              server_id=0),))
        result = simulate_cluster(
            workload(rate=200, duration=2.0), 3, NaiveBatchScheduler, cost,
            policy=RoutingPolicy.LEAST_WORK, duration_s=2.0,
            resilience=ResilienceConfig(
                faults=plan, retry=RetryPolicy(max_attempts=5, budget=500),
            ),
        )
        assert result.serving.completed == result.serving.offered
        assert result.serving.resilience.failed == 0

    def test_cluster_deterministic_under_faults(self):
        def run():
            plan = FaultPlan(
                crashes=(ServerCrash(start_s=0.5, end_s=1.0, server_id=1),),
                failures=(TransientFailures(start_s=0.2, end_s=1.5,
                                            failure_rate=0.3, server_id=0),),
            )
            return simulate_cluster(
                workload(rate=150, duration=2.0), 3, NaiveBatchScheduler,
                cost, duration_s=2.0,
                resilience=ResilienceConfig(
                    faults=plan, retry=RetryPolicy(max_attempts=4, budget=200),
                ),
            )

        a, b = run(), run()
        assert a.serving == b.serving
        assert a.per_server_completed == b.per_server_completed


class TestQueueCapacity:
    @pytest.mark.parametrize("capacity", [float("nan"), 2.5, True],
                             ids=["nan", "fraction", "bool"])
    def test_capacity_that_is_not_an_int_rejected(self, capacity):
        with pytest.raises(TypeError, match="queue_capacity"):
            ResilienceConfig(queue_capacity=capacity)

    def test_full_queue_sheds(self):
        result = simulate_serving(
            workload(rate=800, duration=1.0), NaiveBatchScheduler(), cost,
            ServingConfig(max_batch=4), duration_s=1.0,
            resilience=ResilienceConfig(queue_capacity=10),
        )
        assert result.resilience.rejected > 0
        assert result.resilience.shed == result.resilience.rejected
        assert result.completed + result.resilience.dropped == result.offered

    def test_cluster_replicas_shed_at_capacity(self):
        """Each replica's queue is bounded in a cluster run too."""
        from repro.observability import MetricsRegistry

        registry = MetricsRegistry()
        result = simulate_cluster(
            workload(rate=1500, duration=1.0), 2, NaiveBatchScheduler, cost,
            max_batch=4, duration_s=1.0,
            resilience=ResilienceConfig(queue_capacity=10), metrics=registry,
        ).serving
        assert result.resilience.rejected > 0
        assert result.resilience.shed == result.resilience.rejected
        assert result.completed + result.resilience.dropped == result.offered
        shed = [c["value"] for c in registry.to_dict()["counters"]
                if c["name"] == "serving_requests_dropped_total"
                and c["labels"] == {"reason": "shed"}]
        assert shed == [result.resilience.shed]
